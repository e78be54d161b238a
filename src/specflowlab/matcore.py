"""Dense complex-Hermitian matrix primitives.

Validated value types (HermitianMatrix, EigenDecomposition, Interval,
Projection) and the spectral tool-kit built on them: eigendecomposition,
functional calculus, spectral projections cut by closed intervals, operator norms
and tolerance-aware ranks.

A HermitianMatrix caches its validated eigendecomposition (``.eig``, by
:func:`eigh` on first use) like its norm; every function of the matrix, here
and in ``transforms``, reads that one decomposition.

The Hermitian check, the validated eigendecomposition and the operator norm
also take (k, n, n) stacks, which callers cut into chunks of at most
``_CHUNK_BYTES``, the one stack budget; the one-matrix functions (the
constructor, :func:`eigh`, :func:`op_norm`) are their one-matrix case, and
each matrix of a stack gets the bits it would get alone.

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
    ConsistencyFault,
    DimensionMismatchError,
    FinitenessError,
    FunctionDomainError,
    HermiticityError,
    IllConditionedRankWarning,
    InputError,
    SpecFlowError,
)

__all__ = [
    "HermitianMatrix",
    "EigenDecomposition",
    "Interval",
    "Projection",
    "as_hermitian",
    "eigh",
    "apply_function",
    "spectral_projection",
    "nonneg_projection",
    "op_norm",
    "rank_eps",
    "tol_spec",
]

#: relative Hermiticity budget (times the largest entry magnitude)
_HERM_RTOL = 1e-12
#: absolute floor under every scaled tolerance
_TOL_FLOOR = 1e-14
#: relative margin below a bound within which a Frobenius norm accepts outright
_FRO_SLACK = 1e-6
#: the largest float whose double is finite
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0
#: zheevd rescales a matrix whose largest entry magnitude is nonzero and
#: outside [sqrt(tiny/eps), sqrt(eps/tiny)] = [2^-485, 2^485]
_UNSCALED_MIN = float(np.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps))
_UNSCALED_MAX = 1.0 / _UNSCALED_MIN
#: the bit pattern of -0.0 read as an int64
_NEG_ZERO_BITS = np.int64(np.iinfo(np.int64).min)

#: byte budget of one stacked LAPACK call: stacks of complex128 matrices
#: are cut into chunks of ``_chunk_len(dim)`` matrices
_CHUNK_BYTES = 1 << 18


def _chunk_len(dim: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _hermitian_average(a: np.ndarray) -> np.ndarray:
    """The Hermitian predicate on a (k, n, n) complex stack.

    Checks, in this order, that every entry is finite, that the matrices
    are square and non-empty, and that each matrix has a symmetry defect
    max|A - A*| within 1e-12 times its own largest entry magnitude (floor
    1e-14); the first failing matrix raises. Returns the read-only stack of
    Hermitian averages (A + A*) / 2, entry by entry the same floats a
    one-matrix call gives; an average that overflows (entries beyond half
    the float range) raises FinitenessError.

    A stack equal to its adjoint has defect 0, so the defect is not
    computed. A stack of real diagonal matrices with no -0.0 averages to
    itself, and ``_diagonal_copy`` returns a copy of it before any other
    check; for the other stacks equal to their adjoint (real combinations of
    exactly Hermitian matrices, as the trig paths evaluate, and sparse ones)
    ``_exact_average_into`` writes the same bytes without the sum unless a
    -0.0 off the diagonal's imaginary parts, or an entry beyond half the
    float range, leaves them to the formula.
    """
    diagonal = _diagonal_copy(a)
    if diagonal is not None:
        return diagonal
    if not np.all(np.isfinite(a)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    _, n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"Hermitian matrix must be square, got {n}x{m}")
    if n < 1:
        raise InputError("dimension must be >= 1")
    conj = a.conj()
    ah = conj.swapaxes(1, 2)
    # overflow shows as an infinite defect or average, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if a.size and np.array_equal(a, ah):
            if _exact_average_into(a, conj):
                conj.setflags(write=False)
                return conj
        else:
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


def _diagonal_copy(a: np.ndarray) -> np.ndarray | None:
    """The read-only copy of a non-empty C-contiguous square (k, n, n)
    complex stack, which is its Hermitian average, when checks show it is
    a stack of real diagonal matrices that the formula leaves as it is:
    one count finds no nonzero component off the real diagonal and no -0.0
    anywhere, whose sign the formula may change (``_real_diagonals``, which
    sends a dense stack on after one look); and the diagonal is finite and
    within half the float range. Else None, and the stack is left to the
    general checks."""
    if a.flags.c_contiguous and a.size and a.shape[1] == a.shape[2]:
        d = _real_diagonals(a)
        if d is not None and np.abs(d).max() <= _HALF_MAX:
            out = a.copy()
            out.setflags(write=False)
            return out
    return None


def _real_diagonals(s: np.ndarray) -> np.ndarray | None:
    """The real diagonals, as a (k, n) view, of a non-empty C-contiguous
    (k, n, n) complex stack whose every other component (the off-diagonal
    entries and the imaginary parts of the diagonal) is +0.0 and whose
    diagonal holds no -0.0; else None.

    The first matrix's bottom-left entry is tested first, so a dense stack
    is sent on after one look. Then one count of the components whose bits
    are nonzero (-0.0 reads as the least int64, a NaN as nonzero) must
    equal the count of nonzero diagonal entries: a -0.0 anywhere, or any
    other nonzero component off the real diagonal, makes the first count
    the larger."""
    n = s.shape[1]
    if s[0, n - 1, 0] != 0:
        return None
    d = s.diagonal(axis1=1, axis2=2).real
    if np.count_nonzero(s.view(np.int64)) != np.count_nonzero(d):
        return None
    return d


def _has_neg_zero(x: np.ndarray) -> bool:
    """Whether a float64 array, or a C-contiguous complex128 one, holds a
    -0.0 component, which reads as the least int64."""
    return x.size > 0 and bool(x.view(np.int64).min() == _NEG_ZERO_BITS)


def _hermitian_stack(entries) -> np.ndarray:
    """The ``HermitianMatrix`` check on k matrices at once, given as a
    (k, n, n) array or a sequence of k equally shaped matrices: one stacked
    check, with the constructor's messages, returning the read-only stack
    of validated matrices."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 3:
        raise InputError(f"expected a stack of 2-d matrices, got shape {a.shape}")
    return _hermitian_average(a)


def _exact_average_into(a: np.ndarray, out: np.ndarray) -> bool:
    """Write (A + A*) / 2 of a finite stack equal to its adjoint into
    ``out`` without the sum, when that is possible; return whether it was.

    The formula is (A + A*) / (2+0j), which numpy evaluates per component
    as (s_re + s_im * 0) * 0.5 and (s_im - s_re * 0) * 0.5 on the sum s.
    For a stack equal to its adjoint, s = 2 a_ij, so the average is A
    itself, with three exceptions:
    * the diagonal's imaginary parts are zero (x = -x) and sum to +0.0,
      so they average to +0.0 whatever their sign; the copy writes +0.0;
    * any other -0.0 component (a conjugate pair's, or a diagonal real
      part) sums to -0.0, and adding the signed zero of the other part's
      product may make it +0.0, so its sign depends on its neighbour;
    * 2 a_ij overflows beyond half the float range.
    A stack with a -0.0 bit pattern outside the diagonal's imaginary parts,
    with a component beyond half the float range, or not C-contiguous is
    left, with ``out`` untouched, to the formula, so the bytes and the
    overflow error are the formula's for every input. A dense stack, whose
    only zeros are the diagonal's imaginary parts, is told by one count; a
    sparse one by the least int64 of its bits, since -0.0 reads as the
    least int64, and by a count only when a -0.0 is there.
    """
    if not a.flags.c_contiguous:
        return False
    k, n, _ = a.shape
    flat = a.view(np.float64)
    if np.count_nonzero(flat) != flat.size - k * n:
        bits = a.view(np.int64)
        if bits.min() == _NEG_ZERO_BITS and np.count_nonzero(
            bits == _NEG_ZERO_BITS
        ) != np.count_nonzero(np.signbit(_diagonal_imag(a))):
            return False
    if max(np.max(flat), -np.min(flat)) > _HALF_MAX:
        return False
    np.copyto(out, a)
    _diagonal_imag(out)[...] = 0.0
    return True


def _diagonal_imag(a: np.ndarray) -> np.ndarray:
    """The imaginary parts of the diagonals of a C-contiguous (k, n, n)
    complex stack, as a (k, n) strided view."""
    k, n, _ = a.shape
    return a.view(np.float64).reshape(k, 2 * n * n)[:, 1 :: 2 * (n + 1)]


def _stack_eigvalsh(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a validated, C-contiguous
    (k, n, n) Hermitian stack, bit for bit those of ``np.linalg.eigvalsh(s)``.

    A stack of real diagonal matrices with no -0.0 (``_real_diagonals``;
    LAPACK's sort places a -0.0 differently among the zeros) takes the
    sorted diagonal, which is what LAPACK's zheevd computes for it, when
    each matrix's largest |d| is 0 or lies where zheevd does not rescale
    (``_UNSCALED_MIN`` to ``_UNSCALED_MAX``). Any other stack goes to
    LAPACK.
    """
    d = _real_diagonals(s)
    if d is not None:
        w = np.sort(d, axis=1)
        amax = np.maximum(w[:, -1], -w[:, 0])
        unscaled = amax.max() <= _UNSCALED_MAX and (
            amax.min() >= _UNSCALED_MIN or np.all((amax == 0.0) | (amax >= _UNSCALED_MIN))
        )
        if unscaled:
            return w
    return np.linalg.eigvalsh(s)


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a matrix or wrapper type."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(_op_norms(m))


def _op_norms(a: np.ndarray) -> np.ndarray:
    """Operator norm of a non-empty complex matrix, or of each matrix of a
    (k, n, m) stack by one stacked SVD, each bit for bit that of its matrix
    alone; a non-finite entry anywhere raises FinitenessError."""
    if not np.all(np.isfinite(a)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _frobenius_misses(a: np.ndarray, bound: float) -> list[int]:
    """Indices of the matrices of a (k, n, n) stack that the cheap
    sufficient test for ``op_norm(a_i) <= bound`` does not accept.

    ||a||_2 <= ||a||_F, and the relative slack absorbs the rounding of both
    norms, so the test never accepts what the exact test would reject. A
    miss (including NaN, Inf or an overflowing square) only means: run the
    exact test on it. One stacked norm call measures every matrix.
    """
    limit = bound * (1.0 - _FRO_SLACK)
    with np.errstate(over="ignore", invalid="ignore"):
        fro = np.linalg.norm(a, axis=(1, 2))
    return np.flatnonzero(~(fro <= limit)).tolist()


class HermitianMatrix:
    """An immutable square complex matrix validated to be Hermitian.

    The symmetry defect max|H - H*| must not exceed 1e-12 times the largest
    entry magnitude (floor 1e-14); the stored matrix is the Hermitian average
    of the input, so the invariant holds exactly afterwards.
    ``_hermitian_stack`` applies the same check to k matrices at once.
    """

    __slots__ = ("_mat", "_norm", "_eig")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got shape {a.shape}")
        self._mat = _hermitian_average(a[None])[0]
        self._norm: float | None = None
        self._eig: EigenDecomposition | None = None

    @staticmethod
    def _of_valid(row: np.ndarray) -> HermitianMatrix:
        """Wrap one read-only row of a stack ``_hermitian_average`` returned,
        without a second check."""
        h = object.__new__(HermitianMatrix)
        h._mat = row
        h._norm = h._eig = None
        return h

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

    @property
    def eig(self) -> EigenDecomposition:
        """Validated eigendecomposition (:func:`eigh`), computed once and cached."""
        if self._eig is None:
            self._eig = eigh(self)
        return self._eig

    def __array__(self, dtype=None, copy=None):
        return np.array(self._mat, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim}, norm={self.norm:.6g})"

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
        _check_eigenbases(w[None], v[None])
        self._freeze(w, v)

    def _freeze(self, w: np.ndarray, v: np.ndarray) -> None:
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "values", w)
        object.__setattr__(self, "vectors", v)

    @staticmethod
    def _of_valid(w: np.ndarray, v: np.ndarray) -> "EigenDecomposition":
        """Wrap one matrix's rows of a decomposition ``_eigh_stack``
        returned, without a second check."""
        ed = object.__new__(EigenDecomposition)
        ed._freeze(w, v)
        return ed

    def assemble(self, scalars: np.ndarray) -> np.ndarray:
        """Return V diag(scalars) V* as a plain array."""
        return _assemble(self.vectors, np.asarray(scalars))


def _assemble(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """V diag(s) V* for a basis V, or for each of a (k, n, n) stack of them
    with s of shape (k, 1, n); each matrix bit for bit its own product."""
    return (v * s) @ v.conj().swapaxes(-1, -2)


def _check_eigenbases(w: np.ndarray, v: np.ndarray) -> None:
    """The checks every eigendecomposition passes, per matrix of a (k, n)
    value stack and a (k, n, n) basis stack: ascending values, then
    ||V* V - I|| <= 1e-10, Frobenius first; the first failing matrix of
    each check raises ConsistencyFault."""
    if np.any(np.diff(w, axis=1) < 0):
        raise ConsistencyFault("eigenvalues are not ascending")
    gram = v.conj().swapaxes(1, 2) @ v - np.eye(w.shape[1])
    for i in _frobenius_misses(gram, 1e-10):
        gram_defect = op_norm(gram[i])
        if gram_defect > 1e-10:
            raise ConsistencyFault(
                f"eigenvector columns not orthonormal: defect {gram_defect:.3e}"
            )


def _eigh_stack(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated eigendecompositions of a validated (k, n, n) Hermitian
    stack by one LAPACK call: ascending values (k, n) and bases (k, n, n),
    each bit for bit those of its matrix alone.

    Each matrix passes the checks of :class:`EigenDecomposition`, and its
    reconstruction residual ||V L V* - H|| is checked against
    1e-10 * (1 + ||H||) so a silently bad factorization cannot leak. A
    Frobenius residual under the floor 1e-10 accepts without ||H||.
    """
    w, v = np.linalg.eigh(s)
    _check_eigenbases(w, v)
    resid_mat = _assemble(v, w[:, None, :]) - s
    for i in _frobenius_misses(resid_mat, 1e-10):
        resid = op_norm(resid_mat[i])
        if resid > 1e-10 * (1.0 + op_norm(s[i])):
            raise ConsistencyFault(
                f"eigendecomposition reconstruction residual {resid:.3e} too large"
            )
    return w, v


def eigh(h: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, ascending order: the
    one-matrix case of ``_eigh_stack``."""
    h = as_hermitian(h)
    w, v = _eigh_stack(h.mat[None])
    return EigenDecomposition._of_valid(w[0], v[0])


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
    ed = as_hermitian(h).eig
    ys = np.array([_eval_scalar(f, lam) for lam in ed.values], dtype=np.float64)
    return HermitianMatrix(ed.assemble(ys))


@dataclass(frozen=True)
class Interval:
    """The closed real interval [lo, hi]; ends may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if np.isnan(lo) or np.isnan(hi):
            raise InputError("interval endpoints must not be NaN")
        if lo > hi:
            raise InputError(f"empty interval: lo {lo} > hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def finite_endpoints(self) -> list[float]:
        return [e for e in (self.lo, self.hi) if np.isfinite(e)]

    def mask(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        return (v >= self.lo) & (v <= self.hi)


def _projection_stack(entries: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The checks every Projection passes, on a (k, n, n) complex stack:
    the Hermitian check, ||P^2 - P|| <= 1e-10 (Frobenius first), every
    eigenvalue within 1e-9 of {0, 1}, and the rounded trace equal to the
    count of eigenvalues above 1/2; each check raises on its first failing
    matrix. Returns the read-only stack of validated matrices and their
    ranks, each bit for bit and rank for rank what the matrix gets alone.
    The eigenvalues come from ``_stack_eigvalsh``, so a stack of diagonal
    projections is checked without LAPACK.
    """
    s = _hermitian_average(entries)
    idem_mat = s @ s - s
    for i in _frobenius_misses(idem_mat, 1e-10):
        idem = op_norm(idem_mat[i])
        if idem > 1e-10:
            raise InputError(f"not idempotent: ||P^2 - P|| = {idem:.3e}")
    w = _stack_eigvalsh(s)
    stray = np.max(np.minimum(np.abs(w), np.abs(w - 1.0)), axis=1)
    bad = np.flatnonzero(stray > 1e-9)
    if bad.size:
        raise InputError(f"projection spectrum strays {stray[bad[0]]:.3e} from {{0,1}}")
    ranks = []
    limit = 1e-8 * (1 + s.shape[1])
    for tr, count in zip(
        np.trace(s, axis1=1, axis2=2).real.tolist(), np.count_nonzero(w > 0.5, axis=1).tolist()
    ):
        r = int(round(tr))
        if r != count or abs(tr - r) > limit:
            raise ConsistencyFault(
                f"projection rank ambiguous: trace {tr!r} vs eigenvalue count {count}"
            )
        ranks.append(r)
    return s, ranks


class Projection(HermitianMatrix):
    """An orthogonal projection: Hermitian, idempotent, spectrum in {0, 1}.

    Stored as a full matrix; construction validates ||P^2 - P|| <= 1e-10 and
    that every eigenvalue is within 1e-9 of {0, 1}. ``rank`` is the rounded
    trace, checked to match the eigenvalue count. The constructor is the
    one-matrix case of ``_projection_stack``.
    """

    __slots__ = ("_rank",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got shape {a.shape}")
        p, (rank,) = _projection_stack(a[None])
        self._mat = p[0]
        self._norm = self._eig = None
        self._rank = rank

    @staticmethod
    def _of_checked(row: np.ndarray, rank: int) -> "Projection":
        """Wrap one row of a stack ``_projection_stack`` checked, with its
        rank, without a second check."""
        p = object.__new__(Projection)
        p._mat = row
        p._norm = p._eig = None
        p._rank = rank
        return p

    @property
    def rank(self) -> int:
        return self._rank

    def __repr__(self) -> str:
        return f"Projection(dim={self.dim}, rank={self.rank})"


def spectral_projection(h: HermitianMatrix, window: Interval) -> Projection:
    """Projection onto the eigenspaces with eigenvalues in ``window``.

    Every finite endpoint of the window must keep a distance greater than
    1e-9 * (1 + ||H||) from the spectrum; otherwise the cut is ill-posed and
    a BoundaryCollisionError reports the offending endpoint and gap.
    """
    h = as_hermitian(h)
    ed = h.eig
    p, (rank,) = _spectral_projections(ed.values[None], ed.vectors[None], [h.norm], window)
    return Projection._of_checked(p[0], rank)


def _spectral_projections(
    w: np.ndarray, v: np.ndarray, norms: Sequence[float], window: Interval
) -> tuple[np.ndarray, list[int]]:
    """The projections onto the eigenspaces with eigenvalues in ``window``
    of k matrices, given by their validated decompositions, values (k, n)
    and bases (k, n, n), and their operator norms: the boundary guard of
    ``spectral_projection`` on each matrix in turn, then each B B* from its
    own basis columns and one ``_projection_stack``. Each projection and
    rank is bit for bit what its matrix gets alone; the first failing
    matrix of each check raises."""
    for wi, norm in zip(w, norms):
        guard = 1e-9 * (1.0 + norm)  # tol_spec
        for e in window.finite_endpoints():
            gap = float(np.min(np.abs(wi - e)))
            if gap <= guard:
                raise BoundaryCollisionError(
                    f"interval endpoint {e:.6g} is {gap:.3e} from the spectrum "
                    f"(needs > {guard:.3e})"
                )
    p = np.empty(v.shape, dtype=np.complex128)
    for i, (wi, vi) in enumerate(zip(w, v)):
        b = vi[:, window.mask(wi)]
        p[i] = b @ b.conj().T
    return _projection_stack(p)


def nonneg_projection(h: HermitianMatrix) -> Projection:
    """Projection onto eigenspaces with eigenvalue >= 0 (no boundary guard).

    Deterministic convention for subdivision junctions where an eigenvalue
    may legitimately sit at 0; callers relying on a stable answer must
    guarantee separation themselves (e.g. the path-endpoint invertibility
    convention). The one-matrix case of ``_nonneg_projections``, which
    sf_pairsum calls on its junctions as stacks.
    """
    p, (rank,) = _nonneg_projections([as_hermitian(h)])
    return Projection._of_checked(p[0], rank)


def _nonneg_projections(mats: Sequence[HermitianMatrix]) -> tuple[np.ndarray, list[int]]:
    """The projections onto the eigenspaces with eigenvalue >= 0 of k
    matrices of one dimension (a chunk of at most ``_chunk_len``), as one
    read-only (k, n, n) stack with their ranks.

    A chunk of real diagonal matrices takes its projections from
    ``_diagonal_nonneg_projections``, without a decomposition and without
    caching one. For any other chunk the decompositions not yet cached
    (``.eig``) are computed by one ``_eigh_stack`` and cached on their
    matrices, and each B B* is formed from its own basis columns. One
    ``_projection_stack`` checks them all. Each projection and rank is bit
    for bit what its matrix gets alone. If a check fails, the matrices are
    taken again one at a time, so the first failing one raises what it
    raises alone.
    """
    try:
        s = np.stack([m.mat for m in mats])
        p = _diagonal_nonneg_projections(s)
        if p is None:
            todo = [i for i, m in enumerate(mats) if m._eig is None]
            if todo:
                w, v = _eigh_stack(s if len(todo) == len(mats) else s[todo])
                for i, wi, vi in zip(todo, w, v):
                    mats[i]._eig = EigenDecomposition._of_valid(wi, vi)
            p = np.empty(s.shape, dtype=np.complex128)
            for i, m in enumerate(mats):
                b = m.eig.vectors[:, m.eig.values >= 0.0]
                p[i] = b @ b.conj().T
        return _projection_stack(p)
    except SpecFlowError:
        if len(mats) == 1:
            raise
        for m in mats:
            _nonneg_projections([m])
        raise


def _diagonal_nonneg_projections(s: np.ndarray) -> np.ndarray | None:
    """The unchecked projections diag(d >= 0) of a validated (k, n, n)
    stack of real diagonal matrices with no -0.0 (``_real_diagonals``) and
    no |d| above ``_UNSCALED_MAX``; else None.

    They are the B B* of the eigh route bit for bit: LAPACK's basis of such
    a matrix is a permutation of the unit vectors, so B B* does not depend
    on the order it gives tied entries (a stable sort orders them
    otherwise, which is why no decomposition is made up and cached). Above
    ``_UNSCALED_MAX`` zheevd scales the matrix down, which can flush a tiny
    negative entry to an eigenvalue of -0.0 that the eigh route counts as
    nonnegative; a -0.0 entry is left to LAPACK too.
    """
    d = _real_diagonals(s)
    if d is None or not np.abs(d).max() <= _UNSCALED_MAX:
        return None
    p = np.zeros(s.shape, dtype=np.complex128)
    i = np.arange(s.shape[1])
    p[:, i, i] = d >= 0.0
    return p


def rank_eps(a) -> int:
    """Numerical rank: number of singular values above 1e-8.

    If any singular value falls within a factor 10 of 1e-8 the rank
    decision is fragile; an IllConditionedRankWarning is issued so callers
    can see the hazard propagate.
    """
    tol = 1e-8
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
