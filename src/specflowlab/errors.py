"""Exception and warning vocabulary shared across the package.

Three failure families matter to callers (and to the CLI exit-code map):

* bad input          -> InputError subtree (exit code 1)
* certification loss -> CertificationError subtree (exit code 2); the result
                        is *inconclusive*, never silently wrong
* internal fault     -> ConsistencyFault (exit code 3); two routes that must
                        agree did not, i.e. a bug surfaced
"""

from __future__ import annotations

import math
import numbers


class SpecFlowError(Exception):
    """Base class for all package-specific errors."""


class InputError(SpecFlowError, ValueError):
    """A caller-supplied value violates a documented precondition."""


def coerce_field(value, cast, name: str):
    """``cast(value)`` for the field ``name`` of an input file (cast is int
    or float); a value the cast refuses is an InputError naming the field.
    Both casts also refuse booleans, which they would read as 0 or 1, and
    an int field refuses numbers with a fractional part, which ``int``
    would silently truncate."""
    refused = InputError(f"{name}: cannot read {value!r} as {cast.__name__}")
    if isinstance(value, bool) or (
        cast is int and isinstance(value, float) and not value.is_integer()
    ):
        raise refused
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise refused from None


def require_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` itself if it is an int, not a bool, of at least ``low``
    (and at most ``high``) when given; otherwise an InputError naming it."""
    if (
        isinstance(value, bool) or not isinstance(value, int)
        or (low is not None and value < low) or (high is not None and value > high)
    ):
        span = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise InputError(f"{name} must be an int{span}, got {value!r}")
    return value


#: the ranges ``require_real`` checks, by the words of its refusal
_RANGES = {
    "a number": lambda x: not math.isnan(x),
    "finite": math.isfinite,
    "positive": lambda x: x > 0,
    "positive and finite": lambda x: 0 < x < math.inf,
    "finite and nonnegative": lambda x: 0 <= x < math.inf,
}


def require_real(value, name: str, span: str | None = None) -> float:
    """``value`` as a float (an int past the float range as an infinity) if
    it is a real number, not a bool, within the range ``span`` names (a key
    of ``_RANGES``), when given; otherwise an InputError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a float, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if span is not None and not _RANGES[span](x):
        raise InputError(f"{name} must be {span}, got {x!r}")
    return x


class HermiticityError(InputError):
    """Matrix is not Hermitian within tolerance; carries the defect norm."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not Hermitian: symmetry defect {defect:.3e} exceeds tol {tol:.3e}"
        )


class DimensionMismatchError(InputError):
    """Operands have incompatible shapes."""


class FinitenessError(InputError):
    """Matrix entries contain NaN or Inf."""


class FunctionDomainError(InputError):
    """A scalar function was undefined (or non-finite) at an eigenvalue."""

    def __init__(self, eigenvalue: float, detail: str = ""):
        self.eigenvalue = float(eigenvalue)
        msg = f"scalar function undefined at eigenvalue {self.eigenvalue!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BoundaryCollisionError(InputError):
    """An interval endpoint sits too close to the spectrum for a stable cut."""


class EndpointError(InputError):
    """A path endpoint violates the invertibility convention, or two paths
    that should share an endpoint do not."""


class CertificationError(SpecFlowError):
    """A result could not be certified at the requested resolution.

    Carries the parameter window that resisted certification so callers can
    refine. The verdict is "inconclusive", not "false".
    """

    def __init__(self, message: str, window: tuple[float, float] | None = None):
        self.window = window
        if window is not None:
            message += f" (window t in [{window[0]:.6g}, {window[1]:.6g}])"
        super().__init__(message)


class SamplingError(CertificationError):
    """Sampling too coarse: an observed jump cannot be accounted for."""


class ConsistencyFault(SpecFlowError):
    """Two independent routes that must agree disagreed beyond tolerance.

    This is an internal-error surface: it indicates a bug, not bad input.
    """


class IllConditionedRankWarning(UserWarning):
    """A singular value lies within a factor 10 of the rank threshold."""
