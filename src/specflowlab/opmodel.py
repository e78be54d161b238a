"""Truncated diagonal operator models and the perturbation families that
separate the four metrics.

A DiagonalModel fixes a truncation dimension N and an eigenvalue law
lambda_1..lambda_N; realize() produces D = diag(lambda_k). The families
return the *perturbation* C_n (not D + C_n):

* rank_one:  C_n = e_n e_n*                  (norm-metric witness)
* lambda:    C_n = lambda_n e_n e_n*         (bounded-metric witness)
* fuglede:   C_n = -2 lambda_n e_n e_n*      (sign-flip witness)
* swap:      C_n exchanges e_1 and e_n       (rank two, non-commuting)

For the three diagonal families D and D + C_n commute, so every metric
reduces to a scalar formula; closed_form_distances returns those exact
values. The swap family only admits bounds (swap_bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, require_int, require_real
from .matcore import HermitianMatrix, apply_function

__all__ = [
    "DiagonalModel",
    "LAWS",
    "FAMILIES",
    "realize",
    "family_perturbation",
    "closed_form_distances",
    "swap_bounds",
    "truncate_fn",
    "truncation_riesz_bound",
]


def _law_linear(k: np.ndarray) -> np.ndarray:
    return k.astype(np.float64)


def _law_signed(k: np.ndarray) -> np.ndarray:
    return ((-1.0) ** k) * np.ceil(k / 2.0)


def _law_shifted(k: np.ndarray) -> np.ndarray:
    return k + 0.5


LAWS = {"linear": _law_linear, "signed": _law_signed, "shifted": _law_shifted}

FAMILIES = ("rank_one", "lambda", "fuglede", "swap")


@dataclass(frozen=True)
class DiagonalModel:
    """A finite truncation of a diagonal operator with a named eigenvalue law."""

    trunc_dim: int
    law: str = "linear"

    def __post_init__(self):
        require_int(self.trunc_dim, "truncation dimension", 2)
        if not isinstance(self.law, str) or self.law not in LAWS:
            raise InputError(f"unknown eigenvalue law {self.law!r}; choose from {sorted(LAWS)}")

    def lambdas(self) -> np.ndarray:
        """Eigenvalues lambda_1..lambda_N of the truncated model."""
        k = np.arange(1, self.trunc_dim + 1)
        return LAWS[self.law](k)

    def lam(self, n: int) -> float:
        self._check_index(n)
        return float(self.lambdas()[n - 1])

    def _check_index(self, n: int, lo: int = 1) -> int:
        # capped at N-1 so trends over n stay inside the truncation
        return require_int(n, "family index n", lo, self.trunc_dim - 1)


def realize(model: DiagonalModel) -> HermitianMatrix:
    """The truncated diagonal matrix D = diag(lambda_1..lambda_N)."""
    return HermitianMatrix.diag(model.lambdas())


def _shift(family: str, lam: float) -> float:
    """The diagonal entry C_n adds at (n, n) for the three diagonal families,
    given lam = lambda_n."""
    return {"rank_one": 1.0, "lambda": lam, "fuglede": -2.0 * lam}[family]


def _entries(model: DiagonalModel, family: str, n: int) -> np.ndarray:
    """The real entries of C_n, unvalidated; the index is checked."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
    c = np.zeros((model.trunc_dim, model.trunc_dim))
    if family == "swap":
        model._check_index(n, lo=2)
        c[0, n - 1] = 1.0
        c[n - 1, 0] = 1.0
    else:
        c[n - 1, n - 1] = _shift(family, model.lam(n))
    return c


def family_perturbation(model: DiagonalModel, family: str, n: int) -> HermitianMatrix:
    """Dispatch to one of the four named perturbation families."""
    return HermitianMatrix(_entries(model, family, n))


def _riesz_scalar(x: float) -> float:
    return x / np.sqrt(1.0 + x * x)


def closed_form_distances(model: DiagonalModel, family: str, n: int) -> dict[str, float] | None:
    """Exact scalar values of all four distances between D + C_n and D.

    Available for the three diagonal families (D and C_n commute, so each
    metric is a one-eigenvalue computation). Returns None for "swap".
    """
    if family == "swap":
        return None
    lam = model.lam(n)
    shift = _shift(family, lam)
    d_n = abs(shift)
    d_w = abs(shift) / np.sqrt(1.0 + lam * lam)
    d_r = abs(_riesz_scalar(lam + shift) - _riesz_scalar(lam))
    d_g = abs(1.0 / (lam + shift + 1j) - 1.0 / (lam + 1j))
    return {"d_N": d_n, "d_W": float(d_w), "d_R": float(d_r), "d_G": float(d_g)}


def swap_bounds(model: DiagonalModel, n: int) -> dict[str, float]:
    """Certified bounds for the swap family.

    d_N and d_W are exact; the graph distance admits the decay envelope
    d_G <= 2 (1 + lambda_n^2)^{-1/2} while the resolvent-conjugated
    perturbation norm is bounded below by |lambda_n + i| / |lambda_1 + i|.
    """
    model._check_index(n, lo=2)
    lam1 = model.lam(1)
    lamn = model.lam(n)
    return {
        "d_N": 1.0,
        "d_W": float(max(1.0 / np.sqrt(1.0 + lam1 * lam1), 1.0 / np.sqrt(1.0 + lamn * lamn))),
        "d_W_lower": float(1.0 / np.sqrt(1.0 + lam1 * lam1)),
        "d_G_upper": float(2.0 / np.sqrt(1.0 + lamn * lamn)),
        "conjugated_norm_lower": float(
            np.sqrt((1.0 + lamn * lamn) / (1.0 + lam1 * lam1))
        ),
    }


def truncate_fn(t: HermitianMatrix, n: float) -> HermitianMatrix:
    """Clamp the spectrum of T to [-n, n] (functional calculus with a clip)."""
    n = require_real(n, "n", "positive and finite")
    return apply_function(t, lambda x: min(max(x, -n), n))


def truncation_riesz_bound(n: float) -> float:
    """Upper bound |n / sqrt(1 + n^2) - 1| for d_R(T, clamped T)."""
    n = require_real(n, "n", "positive and finite")
    return float(abs(n / np.sqrt(1.0 + n * n) - 1.0))
