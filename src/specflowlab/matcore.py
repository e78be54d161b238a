"""Dense complex-Hermitian matrix primitives.

Validated value types (HermitianMatrix, EigenDecomposition, Interval,
Projection) and the spectral tool-kit built on them: eigendecomposition,
functional calculus, spectral projections cut by intervals, the same
projections recovered by resolvent contour integration, operator norms,
tolerance-aware ranks, and an integral representation of A^{-1/2}.

Conventions
-----------
* dtype is complex128 throughout; values are immutable after construction.
* Validation tolerances scale with (1 + ||H||); absolute floors are 1e-14.
* Functions never mutate their inputs and return fresh objects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryCollisionError,
    CertificationError,
    ConsistencyFault,
    ContourCollisionError,
    DefinitenessError,
    DimensionMismatchError,
    FinitenessError,
    FunctionDomainError,
    HermiticityError,
    IllConditionedRankWarning,
    InputError,
    InvertibilityError,
)

__all__ = [
    "HermitianMatrix",
    "EigenDecomposition",
    "Interval",
    "Projection",
    "as_hermitian",
    "eigh",
    "jacobi_eigh",
    "apply_function",
    "spectral_projection",
    "nonneg_projection",
    "contour_projection",
    "op_norm",
    "rank_eps",
    "inv_sqrt_integral",
    "check_a1",
    "A1Report",
    "tol_spec",
]

#: relative Hermiticity budget (times the largest entry magnitude)
_HERM_RTOL = 1e-12
#: absolute floor under every scaled tolerance
_TOL_FLOOR = 1e-14
#: relative margin below a bound within which a Frobenius norm accepts outright
_FRO_SLACK = 1e-6


def _hermitian_average(a: np.ndarray) -> np.ndarray:
    """The Hermitian predicate on a (k, n, n) complex stack.

    Checks, in this order, that every entry is finite, that the matrices
    are square and non-empty, and that each matrix has a symmetry defect
    max|A - A*| within 1e-12 times its own largest entry magnitude (floor
    1e-14); the first failing matrix raises. Returns the read-only stack of
    Hermitian averages (A + A*) / 2, entry by entry the same floats a
    one-matrix call gives; an average that overflows (entries beyond half
    the float range) raises FinitenessError.
    """
    if not np.all(np.isfinite(a)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    _, n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"Hermitian matrix must be square, got {n}x{m}")
    if n < 1:
        raise InputError("dimension must be >= 1")
    ah = a.conj().swapaxes(1, 2)
    # overflow shows as an infinite defect or average, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(a - ah), axis=(1, 2))
        tol = np.maximum(_HERM_RTOL * np.max(np.abs(a), axis=(1, 2)), _TOL_FLOOR)
        bad = np.flatnonzero(defect > tol)
        if bad.size:
            raise HermiticityError(float(defect[bad[0]]), float(tol[bad[0]]))
        h = (a + ah) / 2.0
    if not np.all(np.isfinite(h)):
        raise FinitenessError("Hermitian average overflows: entries exceed half the float range")
    h.setflags(write=False)
    return h


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a matrix or wrapper type."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    return float(np.linalg.norm(m, 2))


def _frobenius_within(a: np.ndarray, bound: float) -> bool:
    """Cheap sufficient test for ``op_norm(a) <= bound``.

    ||a||_2 <= ||a||_F, and the relative slack absorbs the rounding of both
    norms, so a True here never accepts what the exact test would reject.
    A False (including NaN or Inf) only means: run the exact test.
    """
    return bool(np.linalg.norm(a) <= bound * (1.0 - _FRO_SLACK))


class HermitianMatrix:
    """An immutable square complex matrix validated to be Hermitian.

    The symmetry defect max|H - H*| must not exceed 1e-12 times the largest
    entry magnitude (floor 1e-14); the stored matrix is the Hermitian average
    of the input, so the invariant holds exactly afterwards. ``from_stack``
    applies the same check to k matrices at once.
    """

    __slots__ = ("_mat", "_norm")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got shape {a.shape}")
        self._mat = _hermitian_average(a[None])[0]
        self._norm: float | None = None

    @staticmethod
    def from_stack(entries) -> list[HermitianMatrix]:
        """Validate k matrices at once, given as a (k, n, n) array or a
        sequence of k equally shaped matrices. One stacked check, with the
        constructor's messages, covers every matrix, so the rows are wrapped
        without a second one.
        """
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 3:
            raise InputError(f"expected a stack of 2-d matrices, got shape {a.shape}")
        rows = []
        for row in _hermitian_average(a):
            h = object.__new__(HermitianMatrix)
            h._mat = row
            h._norm = None
            rows.append(h)
        return rows

    @property
    def mat(self) -> np.ndarray:
        """The underlying read-only complex128 array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def norm(self) -> float:
        """Operator norm, computed once and cached."""
        if self._norm is None:
            self._norm = op_norm(self._mat)
        return self._norm

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._mat
        return self._mat.astype(dtype)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dims differ: {self.dim} vs {other.dim}")
        return HermitianMatrix(self._mat + other._mat)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dims differ: {self.dim} vs {other.dim}")
        return HermitianMatrix(self._mat - other._mat)

    def __mul__(self, scalar) -> "HermitianMatrix":
        s = complex(scalar)
        if abs(s.imag) > _TOL_FLOOR * (1.0 + abs(s.real)):
            raise InputError("scaling a Hermitian matrix requires a real scalar")
        return HermitianMatrix(self._mat * s.real)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self._mat)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim}, norm={self.norm:.6g})"

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    @classmethod
    def diag(cls, values: Sequence[float]) -> "HermitianMatrix":
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise InputError("diag expects a non-empty 1-d sequence of reals")
        return cls(np.diag(v.astype(np.complex128)))


def tol_spec(h: HermitianMatrix | np.ndarray) -> float:
    """Spectral-separation tolerance: 1e-9 * (1 + ||H||)."""
    norm = h.norm if isinstance(h, HermitianMatrix) else op_norm(h)
    return 1e-9 * (1.0 + norm)


def as_hermitian(a) -> HermitianMatrix:
    """Coerce an array or wrapper into a validated HermitianMatrix."""
    if isinstance(a, HermitianMatrix):
        return a
    return HermitianMatrix(np.asarray(a))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending, real) and an orthonormal eigenbasis.

    values[i] pairs with column vectors[:, i]; ||V* V - I|| <= 1e-10 is
    validated at construction, reconstruction against the source matrix is
    validated by :func:`eigh`.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.values, dtype=np.float64)
        v = np.asarray(self.vectors, dtype=np.complex128)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise InputError("inconsistent eigendecomposition shapes")
        if np.any(np.diff(w) < 0):
            raise ConsistencyFault("eigenvalues are not ascending")
        gram = v.conj().T @ v - np.eye(w.size)
        if not _frobenius_within(gram, 1e-10):
            gram_defect = op_norm(gram)
            if gram_defect > 1e-10:
                raise ConsistencyFault(
                    f"eigenvector columns not orthonormal: defect {gram_defect:.3e}"
                )
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "values", w)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.values.size

    def assemble(self, scalars: np.ndarray) -> np.ndarray:
        """Return V diag(scalars) V* as a plain array."""
        s = np.asarray(scalars)
        return (self.vectors * s) @ self.vectors.conj().T


def eigh(h: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, ascending order.

    Backed by LAPACK; the reconstruction residual ||V L V* - H|| is checked
    against 1e-10 * (1 + ||H||) so a silently bad factorization cannot leak.
    A Frobenius residual under the floor 1e-10 accepts without ||H||.
    """
    h = as_hermitian(h)
    w, v = np.linalg.eigh(h.mat)
    ed = EigenDecomposition(values=w, vectors=v)
    resid_mat = ed.assemble(ed.values) - h.mat
    if not _frobenius_within(resid_mat, 1e-10):
        resid = op_norm(resid_mat)
        if resid > 1e-10 * (1.0 + h.norm):
            raise ConsistencyFault(
                f"eigendecomposition reconstruction residual {resid:.3e} too large"
            )
    return ed


def jacobi_eigh(h: HermitianMatrix, max_sweeps: int = 64) -> EigenDecomposition:
    """Cyclic-Jacobi eigendecomposition (self-contained reference route).

    Deliberately dependency-free and slow; used to cross-check the LAPACK
    route on small matrices. Sweeps stop when the off-diagonal Frobenius
    mass drops below 1e-14 * ||H||_F (floor 1e-300 guards the zero matrix).
    """
    h = as_hermitian(h)
    a = np.array(h.mat, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    thr = max(1e-14 * float(np.linalg.norm(a)), 1e-300)

    def offmass() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if offmass() <= thr:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[p, q]
                az = abs(z)
                if az <= thr / max(n, 1):
                    continue
                phase = z / az
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * az)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # columns: [p q] <- [p q] @ [[c, s*phase], [-s*conj(phase), c]]
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * np.conj(phase) * cq
                a[:, q] = s * phase * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * phase * rq
                a[q, :] = s * np.conj(phase) * rp + c * rq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(phase) * vq
                v[:, q] = s * phase * vp + c * vq
    if offmass() > max(thr, 1e-12 * (1.0 + h.norm)):
        raise CertificationError(
            f"Jacobi sweeps did not converge: off-diagonal mass {offmass():.3e}"
        )
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(values=w[order], vectors=v[:, order])


def _eval_scalar(f: Callable[[float], float], lam: float) -> float:
    try:
        y = f(float(lam))
    except (ArithmeticError, ValueError) as exc:
        raise FunctionDomainError(lam, str(exc)) from exc
    yc = complex(y)
    if not (np.isfinite(yc.real) and np.isfinite(yc.imag)):
        raise FunctionDomainError(lam, f"non-finite value {y!r}")
    if abs(yc.imag) > 1e-12 * (1.0 + abs(yc.real)):
        raise FunctionDomainError(lam, f"non-real value {y!r}")
    return yc.real


def apply_function(h: HermitianMatrix, f: Callable[[float], float]) -> HermitianMatrix:
    """Spectral functional calculus: V f(L) V* for a real scalar function.

    f is evaluated once per eigenvalue with a domain check; an undefined or
    non-finite value raises FunctionDomainError naming the eigenvalue.
    """
    ed = eigh(h)
    ys = np.array([_eval_scalar(f, lam) for lam in ed.values], dtype=np.float64)
    return HermitianMatrix(ed.assemble(ys))


@dataclass(frozen=True)
class Interval:
    """A real interval with open/closed end flags; ends may be infinite."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if np.isnan(lo) or np.isnan(hi):
            raise InputError("interval endpoints must not be NaN")
        if lo > hi:
            raise InputError(f"empty interval: lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def co(cls, lo: float, hi: float) -> "Interval":
        """Closed-open [lo, hi)."""
        return cls(lo, hi, True, False)

    @classmethod
    def ge(cls, lo: float) -> "Interval":
        """[lo, +inf)."""
        return cls(lo, np.inf, True, False)

    @classmethod
    def gt(cls, lo: float) -> "Interval":
        """(lo, +inf)."""
        return cls(lo, np.inf, False, False)

    @classmethod
    def le(cls, hi: float) -> "Interval":
        """(-inf, hi]."""
        return cls(-np.inf, hi, False, True)

    @classmethod
    def lt(cls, hi: float) -> "Interval":
        """(-inf, hi)."""
        return cls(-np.inf, hi, False, False)

    def finite_endpoints(self) -> list[float]:
        return [e for e in (self.lo, self.hi) if np.isfinite(e)]

    def mask(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        left = (v >= self.lo) if self.closed_lo else (v > self.lo)
        right = (v <= self.hi) if self.closed_hi else (v < self.hi)
        return left & right

    def __str__(self) -> str:
        lb = "[" if self.closed_lo else "("
        rb = "]" if self.closed_hi else ")"
        return f"{lb}{self.lo:.6g}, {self.hi:.6g}{rb}"


class Projection(HermitianMatrix):
    """An orthogonal projection: Hermitian, idempotent, spectrum in {0, 1}.

    Stored as a full matrix; construction validates ||P^2 - P|| <= 1e-10 and
    that every eigenvalue is within 1e-9 of {0, 1}. ``rank`` is the rounded
    trace, checked to match the eigenvalue count.
    """

    __slots__ = ("_rank",)

    def __init__(self, entries):
        super().__init__(entries)
        m = self.mat
        idem_mat = m @ m - m
        if not _frobenius_within(idem_mat, 1e-10):
            idem = op_norm(idem_mat)
            if idem > 1e-10:
                raise InputError(f"not idempotent: ||P^2 - P|| = {idem:.3e}")
        w = np.linalg.eigvalsh(m)
        dist = np.minimum(np.abs(w), np.abs(w - 1.0))
        if np.max(dist) > 1e-9:
            raise InputError(
                f"projection spectrum strays {np.max(dist):.3e} from {{0,1}}"
            )
        tr = float(np.trace(m).real)
        r = int(round(tr))
        count = int(np.sum(w > 0.5))
        if r != count or abs(tr - r) > 1e-8 * (1 + self.dim):
            raise ConsistencyFault(
                f"projection rank ambiguous: trace {tr!r} vs eigenvalue count {count}"
            )
        self._rank = r

    @property
    def rank(self) -> int:
        return self._rank

    def complement(self) -> "Projection":
        return Projection(np.eye(self.dim) - self.mat)

    def __repr__(self) -> str:
        return f"Projection(dim={self.dim}, rank={self.rank})"

    @classmethod
    def onto_span(cls, columns: np.ndarray) -> "Projection":
        """Projection onto the column span (columns need not be orthonormal)."""
        b = np.asarray(columns, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] < 1:
            raise InputError("onto_span expects an n x k column block")
        if b.shape[1] == 0:
            return cls(np.zeros((b.shape[0], b.shape[0])))
        q, r = np.linalg.qr(b)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(b))))
        q = q[:, keep]
        return cls(q @ q.conj().T)


def spectral_projection(h: HermitianMatrix, window: Interval) -> Projection:
    """Projection onto the eigenspaces with eigenvalues in ``window``.

    Every finite endpoint of the window must keep a distance greater than
    1e-9 * (1 + ||H||) from the spectrum; otherwise the cut is ill-posed and
    a BoundaryCollisionError reports the offending endpoint and gap.
    """
    h = as_hermitian(h)
    ed = eigh(h)
    guard = tol_spec(h)
    for e in window.finite_endpoints():
        gap = float(np.min(np.abs(ed.values - e))) if ed.values.size else np.inf
        if gap <= guard:
            raise BoundaryCollisionError(
                f"interval endpoint {e:.6g} is {gap:.3e} from the spectrum "
                f"(needs > {guard:.3e})"
            )
    mask = window.mask(ed.values)
    b = ed.vectors[:, mask]
    return Projection(b @ b.conj().T)


def nonneg_projection(h: HermitianMatrix) -> Projection:
    """Projection onto eigenspaces with eigenvalue >= 0 (no boundary guard).

    Deterministic convention for subdivision junctions where an eigenvalue
    may legitimately sit at 0; callers relying on a stable answer must
    guarantee separation themselves (e.g. the path-endpoint invertibility
    convention).
    """
    h = as_hermitian(h)
    ed = eigh(h)
    b = ed.vectors[:, ed.values >= 0.0]
    return Projection(b @ b.conj().T)


def contour_projection(
    h: HermitianMatrix,
    center: float,
    radius: float,
    *,
    tol: float = 1e-12,
    max_nodes: int = 1 << 14,
) -> Projection:
    """Spectral projection via resolvent integration around a circle.

    Trapezoid rule on |z - center| = radius with node doubling until two
    successive levels agree within ``tol`` in operator norm. Independent of
    the eigenvector route, so it serves as a genuine cross-check of
    :func:`spectral_projection`. Eigenvalues are only consulted to guard the
    contour: any eigenvalue within 1e-9 * (1 + ||H||) of the circle raises
    ContourCollisionError.
    """
    h = as_hermitian(h)
    if not (np.isfinite(center) and np.isfinite(radius)) or radius <= 0:
        raise InputError("contour needs a finite center and a positive radius")
    w = np.linalg.eigvalsh(h.mat)
    guard = tol_spec(h)
    circle_dist = float(np.min(np.abs(np.abs(w - center) - radius)))
    if circle_dist <= guard:
        raise ContourCollisionError(
            f"eigenvalue {circle_dist:.3e} from the contour (needs > {guard:.3e})"
        )
    n = h.dim
    eye = np.eye(n, dtype=np.complex128)

    def level(nodes: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        acc = np.zeros((n, n), dtype=np.complex128)
        for th in theta:
            z = center + radius * np.exp(1j * th)
            acc += radius * np.exp(1j * th) * np.linalg.inv(z * eye - h.mat)
        return acc / nodes

    nodes = 16
    prev = level(nodes)
    while True:
        nodes *= 2
        cur = level(nodes)
        diff = op_norm(cur - prev)
        if diff <= tol:
            break
        if nodes >= max_nodes:
            raise CertificationError(
                f"contour quadrature stalled at {nodes} nodes (last delta {diff:.3e})"
            )
        prev = cur
    sym_defect = op_norm(cur - cur.conj().T)
    if sym_defect > 1e-8:
        raise ConsistencyFault(
            f"contour integral far from Hermitian: defect {sym_defect:.3e}"
        )
    return Projection((cur + cur.conj().T) / 2.0)


def rank_eps(a, tol: float = 1e-8) -> int:
    """Numerical rank: number of singular values above ``tol``.

    If any singular value falls within a factor 10 of ``tol`` the rank
    decision is fragile; an IllConditionedRankWarning is issued so callers
    can see the hazard propagate.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InputError("rank threshold must be a positive finite number")
    m = np.asarray(a, dtype=np.complex128)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    near = sv[(sv > tol / 10.0) & (sv < tol * 10.0)]
    if near.size:
        warnings.warn(
            IllConditionedRankWarning(
                f"singular value {near[0]:.3e} within factor 10 of threshold {tol:.3e}"
            ),
            stacklevel=2,
        )
    return int(np.sum(sv > tol))


def inv_sqrt_integral(
    a: HermitianMatrix,
    *,
    tol: float = 1e-10,
    max_nodes: int = 1 << 12,
) -> HermitianMatrix:
    """A^(-1/2) through the integral (2/pi) * Int_0^inf (A + x^2)^{-1} dx.

    The substitution x = tan(theta) maps the ray to [0, pi/2); Gauss-Legendre
    quadrature with node doubling runs until two successive node counts agree
    within ``tol``. A must be positive definite.
    """
    a = as_hermitian(a)
    lam_min = float(np.linalg.eigvalsh(a.mat)[0])
    if lam_min <= _TOL_FLOOR * (1.0 + a.norm):
        raise DefinitenessError(
            f"matrix must be positive definite (min eigenvalue {lam_min:.3e})"
        )
    n = a.dim
    eye = np.eye(n, dtype=np.complex128)

    def level(nodes: int) -> np.ndarray:
        xi, wts = np.polynomial.legendre.leggauss(nodes)
        theta = (xi + 1.0) * (np.pi / 4.0)
        acc = np.zeros((n, n), dtype=np.complex128)
        for th, wt in zip(theta, wts):
            t2 = np.tan(th) ** 2
            acc += wt * (1.0 + t2) * np.linalg.inv(a.mat + t2 * eye)
        return (np.pi / 4.0) * acc * (2.0 / np.pi)

    nodes = 8
    prev = level(nodes)
    while True:
        nodes *= 2
        cur = level(nodes)
        if op_norm(cur - prev) <= tol:
            break
        if nodes >= max_nodes:
            raise CertificationError(
                f"inverse-sqrt quadrature stalled at {nodes} nodes"
            )
        prev = cur
    return HermitianMatrix((cur + cur.conj().T) / 2.0)


@dataclass(frozen=True)
class A1Report:
    """Outcome of the conjugation-norm identity checks for a pair (T, B)."""

    norm_tbt_inv: float
    norm_tinv_bt: float
    norm_b: float
    equal_norms_ok: bool
    lower_bound_ok: bool
    spd: bool
    sandwich_norm: float | None
    sandwich_bound_ok: bool | None

    @property
    def ok(self) -> bool:
        base = self.equal_norms_ok and self.lower_bound_ok
        if self.sandwich_bound_ok is None:
            return base
        return base and self.sandwich_bound_ok


def check_a1(t: HermitianMatrix, b: HermitianMatrix) -> A1Report:
    """Verify the conjugation-norm identities for invertible Hermitian T.

    Checks ||T B T^-1|| = ||T^-1 B T|| (within 1e-10 relative), the lower
    bound ||B|| <= ||T^-1 B T||, and — when T is positive definite — the
    sandwich bound ||T^-1/2 B T^-1/2|| <= ||T^-1 B||.
    """
    t = as_hermitian(t)
    b = as_hermitian(b)
    if t.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {t.dim} vs {b.dim}")
    w = np.linalg.eigvalsh(t.mat)
    gap = float(np.min(np.abs(w)))
    if gap <= tol_spec(t):
        raise InvertibilityError(
            f"T must be invertible: min |eigenvalue| = {gap:.3e}"
        )
    t_inv = apply_function(t, lambda x: 1.0 / x)
    n1 = op_norm(t.mat @ b.mat @ t_inv.mat)
    n2 = op_norm(t_inv.mat @ b.mat @ t.mat)
    nb = op_norm(b)
    scale = 1.0 + max(n1, n2, nb)
    equal_ok = abs(n1 - n2) <= 1e-10 * scale
    lower_ok = nb <= n2 + 1e-10 * scale
    spd = bool(w[0] > tol_spec(t))
    sandwich = None
    sandwich_ok = None
    if spd:
        t_inv_half = apply_function(t, lambda x: 1.0 / np.sqrt(x))
        sandwich = op_norm(t_inv_half.mat @ b.mat @ t_inv_half.mat)
        rhs = op_norm(t_inv.mat @ b.mat)
        sandwich_ok = sandwich <= rhs + 1e-10 * (1.0 + sandwich + rhs)
    return A1Report(
        norm_tbt_inv=n1,
        norm_tinv_bt=n2,
        norm_b=nb,
        equal_norms_ok=equal_ok,
        lower_bound_ok=lower_ok,
        spd=spd,
        sandwich_norm=sandwich,
        sandwich_bound_ok=sandwich_ok,
    )
