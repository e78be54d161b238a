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

A run counts its routes in the ``Counter`` of ``with _run_stats() as s``, one per ``contextvars``
context: matrices (calls as ``<key>.calls``) by ``path.evaluated``, ``path.factored``, ``eigh``,
``eigvalsh.lapack``/``.diagonal``, ``norm.svd``/``.diagonal``, ``inv.dense``/``.entry``; stacks
by ``hermitian.diagonal``/``.copy``/``.formula``; graded blocks by ``svd.block``.

Conventions
-----------
* dtype is complex128 throughout; values are immutable after construction.
* Validation tolerances scale with (1 + ||H||); absolute floors are 1e-14.
* Functions never mutate their inputs and return fresh objects.
"""

from __future__ import annotations

import warnings
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
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
    require_real,
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
#: zgesdd rescales a matrix whose largest entry modulus is nonzero and
#: outside [sqrt(tiny)/eps, eps/sqrt(tiny)] = [2^-459, 2^459]; the diagonal
#: norm route keeps within [2^-450, 2^450], clear of the rounding of that modulus
_SVD_UNSCALED_MIN = 2.0**-450
_SVD_UNSCALED_MAX = 2.0**450
#: the bit pattern of -0.0 read as an int64
_NEG_ZERO_BITS = np.int64(np.iinfo(np.int64).min)

#: byte budget of one stacked LAPACK call: stacks of complex128 matrices
#: are cut into chunks of ``_chunk_len(dim)`` matrices
_CHUNK_BYTES = 1 << 18

_RECORD: ContextVar[Counter | None] = ContextVar("specflowlab_run_stats", default=None)


@contextmanager
def _run_stats():
    """Yield a fresh run record, open in this context for the block."""
    token = _RECORD.set(Counter())
    try:
        yield _RECORD.get()
    finally:
        _RECORD.reset(token)


def _tally(key: str, rows: int | None = None) -> None:
    """Count ``key`` once, or ``rows`` under it and one under ``key.calls``, in the open record."""
    if (record := _RECORD.get()) is not None:
        record.update({key: 1} if rows is None else {key: rows, key + ".calls": 1})


def _chunk_len(dim: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _complex_array(entries) -> np.ndarray:
    """``entries`` as a complex128 array, the array itself when it is one:
    the one reading of matrix entries. A numeric array takes no pass over
    its entries; bools and strings (``_non_number`` names the first, also
    where numpy read all as strings), ragged rows, ints beyond the float
    range and objects that are not numbers raise InputError."""
    if isinstance(entries, np.ndarray) and entries.dtype.kind in "iufc":
        return entries.astype(np.complex128, copy=False)
    try:
        a = np.asarray(entries)
        bad = _non_number(entries) or ("" if a.dtype.kind in "iufcO" else str(a.dtype))
        if not bad:
            return a.astype(np.complex128, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, ints past the float range
        raise InputError(f"matrix entries must be numbers: {exc}") from None
    raise InputError(f"matrix entries must be numbers, got {bad} entries")


def _non_number(entries) -> str:
    """The type of the first bool or string among nested sequences or in an
    object array, else "": numpy would read True as 1 and "2" as 2."""
    if isinstance(entries, np.ndarray):
        if entries.dtype.kind != "O":
            return "" if entries.dtype.kind in "iufc" else str(entries.dtype)
        entries = list(entries.flat)
    if not isinstance(entries, (list, tuple)):
        return type(entries).__name__ if isinstance(entries, (bool, np.bool_, str, bytes)) else ""
    kinds = set(map(type, entries))  # at C speed: a matrix literal's rows, then their entries
    if kinds == {list}:
        return _non_number(list(chain.from_iterable(entries)))
    numbers = kinds <= {int, float, complex}
    return "" if numbers else next(filter(None, map(_non_number, entries)), "")


def _hermitian_stack(entries) -> np.ndarray:
    """The ``HermitianMatrix`` check on k matrices at once (``_hermitian_rows``):
    the read-only stack of Hermitian averages, a diagonal stack as a
    read-only copy of itself."""
    rows, d = _hermitian_rows(entries)
    if d is not None:
        rows = rows.copy()
        rows.setflags(write=False)
    return rows


def _hermitian_rows(entries) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``HermitianMatrix`` check on k matrices at once, given as a
    (k, n, n) array or a sequence of k equally shaped matrices, read by
    ``_complex_array``; the first failing matrix raises, with the
    constructor's message. Checks, in this order, that every entry is
    finite, that the matrices are square and non-empty, and that each
    matrix has a symmetry defect max|A - A*| within 1e-12 times its own
    largest entry magnitude (floor 1e-14). Returns the stack of Hermitian
    averages (A + A*) / 2, entry by entry the same floats a one-matrix call
    gives, and None; an average that overflows (entries beyond half the
    float range) raises FinitenessError.

    A stack of real diagonal matrices with no -0.0 averages to itself:
    when ``_real_diagonals`` takes it, before any other check, the result
    is the array read itself, not copied and not to be kept, with its
    (k, n) real diagonals, which a caller keeps in its place
    (``_diagonal_matrices`` builds the matrices back with the same bits).

    A stack equal to its adjoint has defect 0, so the defect is not
    computed. For the other stacks equal to their adjoint (real
    combinations of exactly Hermitian matrices, as the trig paths evaluate,
    and sparse ones) ``_exact_average_into`` writes the same bytes without
    the sum unless a -0.0 off the diagonal's imaginary parts, or an entry
    beyond half the float range, leaves them to the formula.
    """
    a = _complex_array(entries)
    if a.ndim != 3:
        raise InputError(f"expected a stack of 2-d matrices, got shape {a.shape}")
    diagonals = _real_diagonals(a)
    if diagonals is not None:
        _tally("hermitian.diagonal")
        return a, diagonals
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
                _tally("hermitian.copy")
                conj.setflags(write=False)
                return conj, None
        else:
            defect = np.max(np.abs(a - ah), axis=(1, 2))
            tol = np.maximum(_HERM_RTOL * np.max(np.abs(a), axis=(1, 2)), _TOL_FLOOR)
            bad = np.flatnonzero(defect > tol)
            if bad.size:
                raise HermiticityError(float(defect[bad[0]]), float(tol[bad[0]]))
        _tally("hermitian.formula")
        h = (a + ah) / 2.0
    if not np.all(np.isfinite(h)):
        raise FinitenessError("Hermitian average overflows: entries exceed half the float range")
    h.setflags(write=False)
    return h, None


def _real_diagonals(s: np.ndarray) -> np.ndarray | None:
    """The real diagonals, as a (k, n) view, of a (k, n, n) complex stack
    that is C-contiguous, non-empty and square, whose every other component
    (the off-diagonal entries and the imaginary parts of the diagonal) is
    +0.0, whose diagonal holds no -0.0, and where each row's largest |d| is
    0 or lies where zheevd does not rescale (``_unscaled``); else None.
    This is the one test of the diagonal routes on a stack, which send any
    other to the general one (a ``paths._DiagonalPath`` tests diagonals by
    the same rule). Such a stack is its own Hermitian average, its sorted
    diagonal is what LAPACK's eigensolver computes for the eigenvalues (its
    sort places a -0.0 differently among the zeros), and a permutation of
    the unit vectors is its basis. A NaN or infinite diagonal lies outside
    the range.

    A dense stack is sent on after one look at the first matrix's
    bottom-left entry. Then one count of the components whose bits are
    nonzero (-0.0 reads as the least int64, a NaN as nonzero) must equal the
    count of nonzero diagonal entries: a -0.0 anywhere, or any other nonzero
    component off the real diagonal, makes the first count the larger."""
    if not (s.flags.c_contiguous and s.size and s.shape[1] == s.shape[2]):
        return None
    n = s.shape[1]
    if n > 1 and s[0, n - 1, 0] != 0:
        return None
    d = s.diagonal(axis1=1, axis2=2).real
    if np.count_nonzero(s.view(np.int64)) != np.count_nonzero(d):
        return None
    return d if _unscaled(d) else None


def _unscaled(d: np.ndarray) -> bool:
    """Whether each row's largest |d| of a (k, n) real array is 0 or where
    zheevd does not rescale (NaN and inf are not): the one reader of the band."""
    return _zero_or_within(np.abs(d).max(axis=1), _UNSCALED_MIN, _UNSCALED_MAX)


def _zero_or_within(x: np.ndarray, lo: float, hi: float) -> bool:
    """Whether every entry of a nonnegative array is 0 or lies in [lo, hi]."""
    return x.max() <= hi and (x.min() >= lo or bool(np.all((x == 0.0) | (x >= lo))))


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
    """Ascending eigenvalues of each matrix of a validated (k, n, n)
    Hermitian stack, bit for bit those of ``np.linalg.eigvalsh(s)``: the
    sorted diagonal of a stack that ``_real_diagonals`` takes, the values
    LAPACK's zheevd computes for it; any other stack goes to LAPACK.
    """
    d = _real_diagonals(s)
    _tally("eigvalsh.lapack" if d is None else "eigvalsh.diagonal", len(s))
    return np.linalg.eigvalsh(s) if d is None else np.sort(d, axis=1)


def _matrix_array(a, square: bool = False) -> np.ndarray:
    """``a`` as a complex128 array, which must be 2-d, and square when
    ``square``: the one coercion of a matrix argument (``_complex_array``)."""
    m = _complex_array(a)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def op_norm(a) -> float:
    """Operator norm (largest singular value) of a matrix or wrapper type."""
    m = _matrix_array(a)
    if m.size == 0:
        return 0.0
    return float(_op_norms(m))


def _op_norms(a: np.ndarray) -> np.ndarray:
    """Operator norm of a non-empty complex matrix, or of each matrix of a
    (k, n, m) stack by one stacked SVD, each bit for bit that of its matrix
    alone; a non-finite entry anywhere raises FinitenessError. A caller that
    holds the diagonals of diagonal matrices takes ``_diagonal_op_norms``
    of them instead."""
    if not np.all(np.isfinite(a)):
        raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
    _tally("norm.svd", len(a) if a.ndim == 3 else 1)
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _diagonal_op_norms(d: np.ndarray) -> np.ndarray:
    """The 2-norms of the complex diagonal matrices diag(d_i) of a finite
    (k, n) stack of diagonals, each bit for bit the SVD's of diag(d_i),
    whatever the signs of its zeros: ``_diagonal_norms(d)`` when n >= 3
    and each norm is 0 or lies in [``_SVD_UNSCALED_MIN``,
    ``_SVD_UNSCALED_MAX``], where they are zgesdd's bits; else the SVD of
    the matrices (``_op_norms`` of ``_diagonal_matrices``)."""
    if d.shape[-1] >= 3:
        norms = _diagonal_norms(d)
        if _zero_or_within(norms, _SVD_UNSCALED_MIN, _SVD_UNSCALED_MAX):
            _tally("norm.diagonal", len(d))
            return norms
    return _op_norms(_diagonal_matrices(d))


def _diagonal_matrices(d: np.ndarray) -> np.ndarray:
    """The (k, n, n) complex stack of the diagonal matrices diag(d_i) of a
    (k, n) stack of diagonals. Every other component is +0.0, so real
    diagonals that ``_real_diagonals`` read give back the bits of the stack
    they were read from."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=np.complex128)
    i = np.arange(d.shape[-1])
    out[:, i, i] = d
    return out


def _diagonal_norms(d: np.ndarray) -> np.ndarray:
    """max_i dlapy3(re d_i, im d_i, 0) over the last axis of a finite stack
    of diagonals, with LAPACK's dlapy3: w sqrt((x/w)^2 + (y/w)^2 + 0) for
    w = max(|x|, |y|), and |x| + |y| when w = 0.

    This is the 2-norm zgesdd computes for diag(d) when n >= 3 and the
    largest modulus is 0 or lies where zgesdd does not rescale the matrix
    (sqrt(tiny)/eps to eps/sqrt(tiny)). zgebrd reduces a diagonal matrix to
    a bidiagonal one with zero superdiagonal: each Householder vector has a
    zero tail, so its diagonal entry becomes -sign(dlapy3(re, im, 0), re)
    (or stays as it is when real) and the zeros stay zeros, whatever their
    signs. dlasq1 then takes absolute values and, since the superdiagonal's
    largest magnitude is 0, returns them sorted, with no dqds iteration; the
    norm is the largest. At n = 2, dlasq1 goes through dlas2, which rounds,
    and the route is not taken. (A modulus that zlarfg rescales is below
    2^-969, never the largest in the range.)"""
    x = np.abs(d.real)
    if not np.iscomplexobj(d):
        return x.max(axis=-1)
    y = np.abs(d.imag)
    w = np.maximum(x, y)
    with np.errstate(invalid="ignore"):
        mod = w * np.sqrt(np.square(x / w) + np.square(y / w))
    return np.where(w == 0.0, 0.0, mod).max(axis=-1)


def _diff_norms(mats) -> np.ndarray:
    """The 2-norms ||mats[k+1] - mats[k]|| of a sequence of (n, n) arrays,
    one stacked ``_op_norms`` per chunk of ``_chunk_len(n)`` differences."""
    size = _chunk_len(len(mats[0]))
    parts = (mats[lo : lo + size + 1] for lo in range(0, len(mats) - 1, size))
    return np.concatenate([_op_norms(np.subtract(p[1:], p[:-1])) for p in parts])


def _norm_over(a: np.ndarray, bound: float, limit: Callable | None = None) -> float | None:
    """The 2-norm of the first matrix of a (k, n, n) stack above its limit,
    or None. The limit is ``bound``, or ``limit(i)`` (at least ``bound``)
    when given.

    One stacked Frobenius norm screens every matrix against ``bound``:
    ||a||_2 <= ||a||_F, and the relative slack absorbs the rounding of both
    norms, so the screen never accepts what the exact test would reject.
    Only a matrix it misses (including NaN, Inf or an overflowing square)
    takes ``op_norm`` and asks ``limit(i)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        fro = np.linalg.norm(a, axis=(1, 2))
    for i in np.flatnonzero(~(fro <= bound * (1.0 - _FRO_SLACK))).tolist():
        norm = op_norm(a[i])
        if norm > (bound if limit is None else limit(i)):
            return norm
    return None


class _Checked:
    """Base of the validated value types: the constructor checks its input
    and ``_store``s the checked fields; ``_of_valid`` stores fields that a
    stacked check already passed, without a second check."""

    __slots__ = ()

    @classmethod
    def _of_valid(cls, *fields):
        obj = object.__new__(cls)
        obj._store(*fields)
        return obj


class HermitianMatrix(_Checked):
    """An immutable square complex matrix validated to be Hermitian.

    The symmetry defect max|H - H*| must not exceed 1e-12 times the largest
    entry magnitude (floor 1e-14); the stored matrix is the Hermitian average
    of the input, so the invariant holds exactly afterwards.
    ``_hermitian_stack`` applies the same check to k matrices at once. It
    defines no arithmetic: matrices combine as arrays (``.mat``).
    """

    __slots__ = ("_mat", "_norm", "_eig")

    def __init__(self, entries):
        self._store(_hermitian_stack(_matrix_array(entries)[None])[0])

    def _store(self, mat: np.ndarray) -> None:
        self._mat = mat
        self._norm: float | None = None
        self._eig: EigenDecomposition | None = None

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
        v = _complex_array(values)
        if v.ndim != 1 or v.size < 1 or np.any(v.imag):
            raise InputError("diag expects a non-empty 1-d sequence of reals")
        return cls(np.diag(v))


def tol_spec(h: HermitianMatrix | np.ndarray) -> float:
    """Spectral-separation tolerance: 1e-9 * (1 + ||H||)."""
    return _tol_of_norm(h.norm if isinstance(h, HermitianMatrix) else op_norm(h))


def _tol_of_norm(norm: float) -> float:
    return 1e-9 * (1.0 + norm)


def as_hermitian(a) -> HermitianMatrix:
    """Coerce an array or wrapper into a validated HermitianMatrix."""
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)


@dataclass(frozen=True)
class EigenDecomposition(_Checked):
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
        self._store(w, v)

    def _store(self, w: np.ndarray, v: np.ndarray) -> None:
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "values", w)
        object.__setattr__(self, "vectors", v)

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
    gram_defect = _norm_over(v.conj().swapaxes(1, 2) @ v - np.eye(w.shape[1]), 1e-10)
    if gram_defect is not None:
        raise ConsistencyFault(f"eigenvector columns not orthonormal: defect {gram_defect:.3e}")


def _eigh_stack(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated eigendecompositions of a validated (k, n, n) Hermitian
    stack by one LAPACK call: ascending values (k, n) and bases (k, n, n),
    each bit for bit those of its matrix alone.

    Each matrix passes the checks of :class:`EigenDecomposition`, and its
    reconstruction residual ||V L V* - H|| is checked against
    1e-10 * (1 + ||H||) so a silently bad factorization cannot leak. A
    Frobenius residual under the floor 1e-10 accepts without ||H||.
    """
    _tally("eigh", len(s))
    w, v = np.linalg.eigh(s)
    _check_eigenbases(w, v)
    resid = _norm_over(
        _assemble(v, w[:, None, :]) - s, 1e-10, lambda i: 1e-10 * (1.0 + op_norm(s[i]))
    )
    if resid is not None:
        raise ConsistencyFault(f"eigendecomposition reconstruction residual {resid:.3e} too large")
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
        lo = require_real(self.lo, "lo", "a number")
        hi = require_real(self.hi, "hi", "a number")
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
    The eigenvalues come from ``_stack_eigvalsh``. A stack that
    ``_hermitian_rows`` reads as real diagonals of exact 0.0s and 1.0s
    passes each check exactly (P^2 = P entry by entry, eigenvalues its
    diagonal, trace a count of ones), so it is returned without them.
    """
    s, d = _hermitian_rows(entries)
    if d is not None:
        s = s.copy()
        s.setflags(write=False)
        if np.all((d == 0.0) | (d == 1.0)):
            return s, np.count_nonzero(d, axis=1).tolist()
    idem = _norm_over(s @ s - s, 1e-10)
    if idem is not None:
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
        p, (rank,) = _projection_stack(_matrix_array(entries)[None])
        self._store(p[0], rank)

    def _store(self, mat: np.ndarray, rank: int) -> None:
        super()._store(mat)
        self._rank = rank

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
    return Projection._of_valid(p[0], rank)


def _spectral_projections(
    w: np.ndarray, v: np.ndarray, norms: Sequence[float], window: Interval
) -> tuple[np.ndarray, list[int]]:
    """The projections onto the eigenspaces with eigenvalues in ``window``
    of k matrices, given by their validated decompositions, values (k, n)
    and bases (k, n, n), and their operator norms: the boundary guard of
    ``spectral_projection`` on each matrix in turn, then each B B* from its
    own basis columns (``_range_projections``) and one
    ``_projection_stack``. Each projection and rank is bit for bit what its
    matrix gets alone; the first failing matrix of each check raises."""
    for wi, norm in zip(w, norms):
        guard = _tol_of_norm(norm)
        for e in window.finite_endpoints():
            gap = float(np.min(np.abs(wi - e)))
            if gap <= guard:
                raise BoundaryCollisionError(
                    f"interval endpoint {e:.6g} is {gap:.3e} from the spectrum "
                    f"(needs > {guard:.3e})"
                )
    return _projection_stack(_range_projections(v, window.mask(w)))


def _range_projections(bases, masks) -> np.ndarray:
    """The (k, n, n) stack of the products B B*, one per basis (n, n) of
    ``bases`` with B its columns where the matching row of the (k, n)
    ``masks`` holds: the one former of the eigh routes' projections, each
    from its own columns."""
    return np.stack([b @ b.conj().T for b in (v[:, m] for v, m in zip(bases, masks))])


def nonneg_projection(h: HermitianMatrix) -> Projection:
    """Projection onto eigenspaces with eigenvalue >= 0 (no boundary guard).

    Deterministic convention for subdivision junctions where an eigenvalue
    may legitimately sit at 0; callers relying on a stable answer must
    guarantee separation themselves (e.g. the path-endpoint invertibility
    convention). The one-matrix case of ``_nonneg_projections``, which
    sf_pairsum calls on its junctions as stacks.
    """
    p, (rank,) = _nonneg_projections([as_hermitian(h)])
    return Projection._of_valid(p[0], rank)


def _nonneg_projections(mats: Sequence[HermitianMatrix]) -> tuple[np.ndarray, list[int]]:
    """The projections onto the eigenspaces with eigenvalue >= 0 of k
    matrices of one dimension (a chunk of at most ``_chunk_len``), as one
    read-only (k, n, n) stack with their ranks.

    A chunk that ``_real_diagonals`` takes has the projections diag(d >= 0),
    without a decomposition and without caching one. They are the B B* of
    the eigh route bit for bit: LAPACK's basis of such a matrix is a
    permutation of the unit vectors, so B B* does not depend on the order it
    gives tied entries (a stable sort orders them otherwise, which is why no
    decomposition is made up and cached). For any other chunk the
    decompositions not yet cached (``.eig``) are computed by one
    ``_eigh_stack`` and cached on their matrices, and each B B* is formed
    from its own basis columns (``_range_projections``). One
    ``_projection_stack`` checks them all (a diagonal chunk's by its exact
    0/1 branch). Each projection and rank is bit for bit what its matrix
    gets alone; each check raises on its first failing matrix.
    """
    s = np.stack([m.mat for m in mats])
    d = _real_diagonals(s)
    if d is not None:
        p = _diagonal_matrices(d >= 0.0)
    else:
        todo = [i for i, m in enumerate(mats) if m._eig is None]
        if todo:
            w, v = _eigh_stack(s if len(todo) == len(mats) else s[todo])
            for i, wi, vi in zip(todo, w, v):
                mats[i]._eig = EigenDecomposition._of_valid(wi, vi)
        eigs = [m.eig for m in mats]
        p = _range_projections([e.vectors for e in eigs], [e.values >= 0.0 for e in eigs])
    return _projection_stack(p)


def rank_eps(a) -> int:
    """Numerical rank: number of singular values above 1e-8.

    If any singular value falls within a factor 10 of 1e-8 the rank
    decision is fragile; an IllConditionedRankWarning is issued so callers
    can see the hazard propagate.
    """
    tol = 1e-8
    m = _matrix_array(a)
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
