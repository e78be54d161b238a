"""Paths of Hermitian matrices: the one owner of a path's stores.

A path is a map t in [0, 1] -> Hermitian matrix, given by a stacked
evaluator and a declared Regularity: a bound on ||H(b) - H(a)|| computed
once, when the path is built. A piecewise-affine path (uniform samples,
straight lines) gives the norm of each piece's slope, a Lipschitz path (the
trig families, the connector) a rate per piece. Endpoints must be
invertible (``_singular``: min |spec| less its rounding slack > 1e-8), so
the flow is an integer. The composites ``path_concat`` and
``path_reverse`` carry the regularity of their parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError, EndpointError, InputError, coerce_field, require_int, require_real,
)
from .matcore import (
    _NEG_ZERO_BITS, EigenDecomposition, HermitianMatrix, _chunk_len, _chunks, _diagonal_matrices,
    _diagonal_op_norms, _diff_norms, _hermitian_rows, _hermitian_stack, _matrix_array,
    _real_diagonals, _stack_eigvalsh, _tally, _unscaled, op_norm,
)

__all__ = [
    "Regularity", "piecewise_affine", "lipschitz", "OperatorPath", "path_concat", "path_reverse",
]

#: the invertibility convention: a matrix is invertible when its least
#: |eigenvalue|, less the rounding slack of its eigenvalues, exceeds this
_ENDPOINT_GAP = 1e-8


def _dim_error(found: int, expected: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"path evaluator returned dim {found}, expected {expected}")


def _declared_dim(path: OperatorPath, declared) -> OperatorPath:
    """``path``, refused unless its dim is ``declared``, read as an int field."""
    if coerce_field(declared, int, "dim") != path.dim:
        raise InputError(f"declared dim {declared} does not match path dim {path.dim}")
    return path


#: the soundness conditions a certificate can rest on, strongest first
_SOUNDNESS = ("piecewise-affine", "lipschitz")


def _gamma(dim: int) -> float:
    """gamma_n = 4 n u (u = 2^-53, the unit roundoff): the rounding slack,
    relative to ||H||, that every declared margin gives up for the backward
    error of eigvalsh and of a path evaluation.

    That it covers both is an assumption, not a bound: the evaluation
    error of a trig_random combination alone was measured at up to 1.39
    gamma_n ||H|| at dim 2, degree 16 (see the README's certificate
    section and ROADMAP item 1)."""
    return 4 * dim * 2.0**-53


def _singular(dim: int, vals) -> tuple[tuple[float, ...], str | None]:
    """The invertibility rule, on each row of a (k, n) array of eigenvalues:
    its gap min |eigenvalue|, less the rounding slack gamma_n * max
    |eigenvalue|, must exceed ``_ENDPOINT_GAP``. Returns the gaps and None
    when every row passes, else the gaps and the tail of the refusal's
    text: empty when a gap itself is at or below the convention, naming the
    gaps less their slack when the slack decided."""
    mags = np.abs(np.asarray(vals))
    gaps = np.min(mags, axis=-1)
    clear = (gaps - _gamma(dim) * np.max(mags, axis=-1)).tolist()
    tail = None
    if min(clear) <= _ENDPOINT_GAP:
        less = "; min |spec| less the rounding slack is (%s)" % ", ".join(f"{c:.3e}" for c in clear)
        tail = "" if gaps.min() <= _ENDPOINT_GAP else less
    return tuple(gaps.tolist()), tail


@dataclass(frozen=True)
class Regularity:
    """A path's declared bound on how far H moves between two parameters.

    ``knots`` are the interior break points, increasing inside (0, 1);
    every sampling grid contains them, so each grid step lies in one piece.
    It gives one rate per piece (``len(knots) + 1``), computed once when
    the path is built, and the step bound is rate * |dt|:

    * ``"piecewise-affine"``: H is affine on each piece with slope B_i, and
      the rate is ||B_i||; the bound is the exact step.
    * ``"lipschitz"``: the rate bounds ||H'|| on the piece.
    """

    soundness: str
    knots: tuple[float, ...] = ()
    rates: tuple[float, ...] = ()

    def __post_init__(self):
        knots = tuple(require_real(k, "knot") for k in self.knots)
        rates = tuple(require_real(r, "rate", "finite and nonnegative") for r in self.rates)
        if self.soundness not in _SOUNDNESS:
            raise InputError(f"soundness must be one of {_SOUNDNESS}, got {self.soundness!r}")
        bounds = (0.0,) + knots + (1.0,)
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise InputError(f"knots must increase strictly inside (0, 1), got {knots}")
        pieces = len(knots) + 1
        if len(rates) != pieces:
            raise InputError(f"{self.soundness} needs {pieces} rates, got {len(rates)}")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rates", rates)

    def step_bounds(self, ts: Sequence[float]) -> np.ndarray:
        """rate * |dt| for each consecutive pair of ``ts``, as a read-only
        float64 array; a step that spans knots takes the largest rate of the
        pieces it meets. With one piece it is rates[0] * |dt|, the same
        floats: max(a, b) - min(a, b) == |b - a|."""
        ts = np.asarray(ts, dtype=np.float64)
        if not self.knots:
            steps = self.rates[0] * np.abs(np.diff(ts))
        else:
            lo = np.minimum(ts[:-1], ts[1:])
            hi = np.maximum(ts[:-1], ts[1:])
            rates = np.asarray(self.rates)
            first = np.searchsorted(self.knots, lo, side="right")
            last = np.searchsorted(self.knots, hi, side="left")
            rate = rates[first]
            for k in np.flatnonzero(last > first).tolist():
                rate[k] = rates[first[k] : last[k] + 1].max()
            steps = rate * (hi - lo)
        steps.setflags(write=False)
        return steps

    def then(self, other: "Regularity") -> "Regularity":
        """The regularity of the concatenation (self, then other), each
        part run at double speed on its half of [0, 1]."""
        knots = (
            [k / 2.0 for k in self.knots] + [0.5] + [0.5 + k / 2.0 for k in other.knots]
        )
        affine = self.soundness == other.soundness == "piecewise-affine"
        return Regularity(
            "piecewise-affine" if affine else "lipschitz",
            knots,
            [2.0 * r for r in self.rates + other.rates],
        )

    def reversed(self) -> "Regularity":
        """The regularity of t -> H(1 - t): the pieces mirrored."""
        return Regularity(
            self.soundness, [1.0 - k for k in self.knots[::-1]], self.rates[::-1]
        )


def piecewise_affine(knots: Sequence[float], rates: Sequence[float]) -> Regularity:
    """H affine on each piece between ``knots``; ``rates[i]`` is the 2-norm
    of the slope of piece i."""
    return Regularity("piecewise-affine", tuple(knots), tuple(rates))


def lipschitz(knots: Sequence[float], rates: Sequence[float]) -> Regularity:
    """``rates[i]`` bounds ||H(b) - H(a)|| / |b - a| on piece i."""
    return Regularity("lipschitz", tuple(knots), tuple(rates))


#: the most bytes a sampling grid may hold (``OperatorPath.grid``), and its
#: charge per point: ``_PEAK_ROWS`` rows of n float64s and ``_POINT_BYTES``.
#: Per sf_phillips sample the traced peak of sf_all_methods grew 281 B at
#: dim 2, 816/1,215 B at dim 16 and 5,458/8,477 B at dim 128 (fuglede_line/
#: trig): at most 512 B and 7.8 rows of 8n bytes, so 8 rows are charged
_GRID_CAP_BYTES, _PEAK_ROWS, _POINT_BYTES = 1 << 30, 8, 512


@lru_cache(maxsize=8)
def _uniform(samples: int) -> tuple[float, ...]:
    """``samples`` uniform points of [0, 1], shared by the paths that ask
    for one of the last 8 sample counts: the flows read two (``samples``
    and ``oracle_samples``), and a process that sweeps counts does not keep
    every grid it built."""
    return tuple(sorted(set(np.linspace(0.0, 1.0, samples).tolist())))


def _eigenvalues(stack: np.ndarray, d: np.ndarray | None, part) -> np.ndarray:
    """The read-only eigenvalues of the rows ``part`` of a validated chunk
    (``OperatorPath._rows``): the sorted real diagonals ``d`` of a diagonal
    chunk, else LAPACK's (``_stack_eigvalsh``). The one place a path
    factors its points, counted as ``path.factored``."""
    w = _stack_eigvalsh(stack[part]) if d is None else np.sort(d[part], axis=1)
    _tally("path.factored", len(w))
    w.setflags(write=False)
    return w


def _check_range(ts: list[float]) -> None:
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise InputError(f"path parameter {t!r} outside [0, 1]")


class OperatorPath:
    """A continuous family of Hermitian matrices over t in [0, 1].

    The evaluator takes a float64 array ``ts`` of shape (k,) and returns the
    k matrices H(ts[0]), ..., H(ts[k-1]) as one complex (k, n, n) stack (any
    array-like of that shape, such as a list of k matrices, will do).
    ``from_callable`` adapts a scalar function t -> matrix to this contract.
    Each stack is validated by one Hermitian check (``_hermitian_rows``).
    ``regularity`` declares how far H moves between two parameters (see
    ``Regularity``); a caller who knows no rate samples the function and
    builds ``from_samples``, whose interpolant is a declared path.

    One routine, ``_sample``, fills the path's stores: it evaluates the
    points not yet held by one evaluator call per chunk of at most
    ``_CHUNK_BYTES`` bytes, takes the eigenvalues they lack from the same
    validated chunk by one batched ``eigvalsh`` (``_eigenvalues``), and
    keeps a matrix only where one is asked for: the ends, the samples of a
    ``from_samples`` path (its knots) and the segment ends that sf_pairsum
    projects. So every kept matrix has its eigenvalues held, and every other sample holds
    only its n eigenvalues; the run record counts ``path.evaluated`` and ``path.factored``.
    A path is the one store of its points: every kept point is a ``HermitianMatrix``, one
    object with one cached ``eig``, and a path built on this one (a deformation row of
    ``homotopy_family``) reads it through ``matrices``.

    A chunk of real diagonal matrices with no -0.0 (``_real_diagonals``,
    one test per chunk) is validated and factored through its real
    diagonals: no validated copy of it is made and its eigenvalues are its
    sorted diagonal, LAPACK's bits. Its kept matrices are built from those
    diagonals (``_diagonal_matrices``), the bits of the stack read. A line
    between real diagonal ends, or through real diagonal samples, is the
    private kind ``_DiagonalPath``: its evaluator gives the diagonals.

    * ``matrix(t)`` and ``matrices(ts)`` return the validated matrices and
      keep them;
    * ``values(ts)`` returns eigenvalues, keeping those of a point it
      evaluates but not its matrix;
    * ``eig(t)`` is the validated full decomposition the matrix at t caches.

    Each point's eigenvalues are computed once per path. A point's matrix
    is evaluated again only when it is asked for after its eigenvalues:
    sf_phillips scores its samples by their eigenvalues alone, so an inner
    segment end is evaluated a second time when sf_pairsum projects it,
    and its held eigenvalues are not computed again. The library's
    evaluators do per matrix the same floating-point operations, in the
    same order, as a one-point call, and a stacked LAPACK call runs the
    same routine on every matrix, so each value is bit-identical to a
    one-at-a-time evaluation and does not depend on which grids were
    sampled before. The end gaps with their rounding slack are measured
    once per path, each sampling grid with its steps is built once per
    sample count (``grid``), and the methods hold what they derive from a
    path, such as the certified subdivision that sf_pairsum reuses from
    sf_phillips, in its one memo (``memo``).

    ``path_concat`` and ``path_reverse`` build composites, which have no
    evaluator and evaluate, check, factor and keep nothing: each point
    belongs to the path it maps to, so ``_rows`` is the one route by which
    any path's matrices are evaluated and checked. An evaluator given here
    is always checked.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        dim: int,
        *,
        regularity: Regularity,
    ):
        require_int(dim, "dim", 1)
        if not isinstance(regularity, Regularity):
            raise InputError(
                f"regularity must be a Regularity, got {regularity!r}; a path with no known "
                "rate is OperatorPath.from_samples([fn(t) for t in grid])"
            )
        self._evaluator = evaluator
        self._dim = dim
        self._regularity = regularity
        self._mats: dict[float, HermitianMatrix] = {}
        self._vals: dict[float, np.ndarray] = {}
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def regularity(self) -> Regularity:
        return self._regularity

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The evaluator's matrices at ``ts``, checked by one Hermitian
        check (``_hermitian_rows``) and for their count and dimension: the
        validated read-only (k, n, n) stack and None, or a diagonal stack,
        not to be kept (None on a ``_DiagonalPath``), and its diagonals."""
        return self._counted(ts, *_hermitian_rows(self._evaluator(ts)))

    def _counted(self, ts: np.ndarray, stack, d) -> tuple:
        """``(stack, d)``, refused unless the stack (else ``d``) holds one
        matrix of the path's dim per point of ``ts`` (``path.evaluated``)."""
        rows = d if stack is None else stack
        if len(rows) != len(ts):
            raise InputError(f"path evaluator returned {len(rows)} matrices for {len(ts)} points")
        if len(rows) and rows.shape[1] != self._dim:
            raise _dim_error(rows.shape[1], self._dim)
        _tally("path.evaluated", len(ts))
        return stack, d

    def _sample(self, ts: Sequence[float], keep: bool, rows=None) -> None:
        """The one routine that fills ``_mats`` and ``_vals``: evaluate the
        distinct points of ``ts`` not yet held (without a kept matrix when
        ``keep``, else without eigenvalues) by one evaluator call per chunk
        (``_rows``), or take them from ``rows``, (chunk, stack, diagonals)
        triples as ``_rows`` gives them; take the eigenvalues not yet held
        from the same chunk, and keep the matrices when ``keep``, a diagonal
        chunk's built from its diagonals (``_diagonal_matrices``), the bits
        of the stack read. So every kept matrix has its eigenvalues."""
        held = self._mats if keep else self._vals
        todo = [t for t in dict.fromkeys(ts) if t not in held]
        if not todo:
            return
        if rows is None:
            _check_range(todo)
            rows = ((c, *self._rows(np.array(c))) for c in _chunks(todo, _chunk_len(self._dim)))
        for chunk, stack, d in rows:
            if keep:
                kept = stack if d is None else _diagonal_matrices(d)
                kept.setflags(write=False)
                self._mats.update(zip(chunk, map(HermitianMatrix._of_valid, kept)))
            need = [i for i, t in enumerate(chunk) if t not in self._vals]
            if need:
                part = slice(None) if len(need) == len(chunk) else need
                self._vals.update(zip([chunk[i] for i in need], _eigenvalues(stack, d, part)))

    def memo(self, key, build: Callable[[], object]):
        """The value held on the path under ``key``: ``build()``, called on
        the first call only; one that raises holds nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def grid(self, samples: int) -> tuple[tuple[float, ...], np.ndarray]:
        """``samples`` uniform points of [0, 1] (``_uniform``) and the
        knots, with the declared step bounds along them, built once per
        sample count. A grid that could take more than 1 GiB at a flow's
        measured peak per point is refused before anything is allocated:
        123,361 samples at dim 128, 480 times the default oracle grid, yet
        a small host runs out of memory, and kills the process, on more."""

        def build():
            need = samples * (8 * _PEAK_ROWS * self._dim + _POINT_BYTES)
            if need > _GRID_CAP_BYTES:
                raise InputError(f"samples {samples} at dim {self._dim} would hold about "
                                 f"{need:.2e} bytes; the grid cap is {_GRID_CAP_BYTES} bytes")
            grid = _uniform(samples)
            if self._regularity.knots:
                grid = tuple(sorted(set(grid).union(self._regularity.knots)))
            return grid, self._regularity.step_bounds(grid)

        return self.memo(("grid", samples), build)

    def matrix(self, t: float) -> HermitianMatrix:
        return self.matrices([t])[0]

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        """The matrices at every t of ``ts``, in order, kept on the path."""
        ts = [float(t) for t in ts]
        self._sample(ts, keep=True)
        return [self._mats[t] for t in ts]

    # No library code calls eig; it stays because the benchmark's tracer
    # wraps it, looked up as specflow.OperatorPath.__dict__["eig"].
    def eig(self, t: float) -> EigenDecomposition:
        return self.matrix(t).eig

    def values(self, t):
        """Eigenvalues only (cheaper than a full, validated ``eig``): one
        array for a single t, a list of arrays for a sequence of t. A point
        not held yet is evaluated and its eigenvalues kept, not its matrix;
        a kept matrix already has its eigenvalues.

        Always the eigvalsh route, even when a full decomposition is
        already cached: the two differ in final bits, and certificates
        must not depend on which methods ran earlier on the same path.
        """
        single = np.ndim(t) == 0
        ts = [float(t)] if single else [float(s) for s in t]
        self._sample(ts, keep=False)
        return self._vals[ts[0]] if single else [self._vals[s] for s in ts]

    def nonneg_count(self, t: float) -> int:
        return int(np.sum(self.values(t) >= 0.0))

    def endpoint_gaps(self) -> tuple[float, float]:
        """min |spec| at t = 0 and t = 1."""
        return self._endpoints[0]

    def endpoint_refusal(self) -> str | None:
        """Why the invertibility rule (``_singular``) refuses the ends, or
        None when both pass."""
        return self._endpoints[1]

    @cached_property
    def _endpoints(self) -> tuple[tuple[float, float], str | None]:
        """The end gaps min |spec| at t = 0 and 1, and the refusal of the
        invertibility rule, measured once per path."""
        # keeps the end matrices: sf_pairsum's outer junctions and
        # path_concat's endpoint check read them
        self.matrices([0.0, 1.0])
        (g0, g1), tail = _singular(self._dim, self.values([0.0, 1.0]))
        refusal = None if tail is None else (
            f"path endpoints must be invertible: min |spec| = ({g0:.3e}, {g1:.3e}), "
            f"convention requires > {_ENDPOINT_GAP:.0e}{tail}"
        )
        return (g0, g1), refusal

    @classmethod
    def from_samples(cls, matrices: Sequence) -> "OperatorPath":
        """Uniformly spaced samples; the path is their linear interpolant,
        piecewise affine with one 2-norm per piece. At least 2 samples of
        one dim; those not yet a ``HermitianMatrix`` take one stacked
        Hermitian check, whose first failing sample raises. Samples that
        ``_real_diagonals`` takes, tested once, make a ``_DiagonalPath`` over
        their diagonals, whose differences give the rates (``_diagonal_op_norms``)."""
        items = list(matrices)
        mats = [m.mat if isinstance(m, HermitianMatrix) else _matrix_array(m) for m in items]
        if len(mats) < 2:
            raise InputError("a sampled path needs at least 2 samples")
        if len({m.shape for m in mats}) > 1:
            for m in mats:
                if m.shape[0] != m.shape[1] or not m.size:
                    HermitianMatrix(m)  # raises its non-square or empty error
            raise DimensionMismatchError("sample dimensions differ")
        arr = np.array(mats)
        raw = [not isinstance(m, HermitianMatrix) for m in items]
        if any(raw):
            arr[raw] = _hermitian_stack(arr[raw])
        arr.setflags(write=False)
        dim, last, d = len(arr[0]), len(mats) - 1, _real_diagonals(arr)
        nodes, kind = (arr, cls) if d is None else (d, _DiagonalPath)

        def evaluate(ts: np.ndarray) -> np.ndarray:
            x = ts * last
            i = np.minimum(np.floor(x).astype(np.intp), last - 1)
            frac = (x - i).reshape((-1,) + (1,) * (nodes.ndim - 1))
            return (1.0 - frac) * nodes[i] + frac * nodes[i + 1]

        rates = last * (_diff_norms(arr) if d is None else _diagonal_op_norms(np.diff(d, axis=0)))
        ts = [i / last for i in range(last + 1)]
        path = kind(evaluate, dim, regularity=piecewise_affine(ts[1:-1], rates))
        # the samples are kept as given, as views of ``arr`` or from their
        # diagonals, not re-evaluated by the interpolant
        size = _chunk_len(dim)
        held = (_chunks(arr, size), repeat(None)) if d is None else (repeat(None), _chunks(d, size))
        path._sample(ts, keep=True, rows=zip(_chunks(ts, size), *held))
        return path

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], HermitianMatrix], dim: int, *, regularity: Regularity
    ) -> "OperatorPath":
        """A path from a scalar function t -> matrix, called once per t."""

        def evaluate(ts: np.ndarray) -> list:
            mats = [fn(t) for t in ts.tolist()]
            for m in mats:
                shape = np.shape(m)
                if shape != (dim, dim):
                    if len(shape) != 2 or shape[0] != shape[1]:
                        HermitianMatrix(m)  # raises its ndim or non-square error
                    raise _dim_error(shape[0], dim)
            return mats

        return cls(evaluate, dim, regularity=regularity)

    def __repr__(self) -> str:
        return f"OperatorPath(dim={self._dim}, soundness={self._regularity.soundness!r})"


def path_concat(f: OperatorPath, g: OperatorPath) -> OperatorPath:
    """Concatenation (f then g), requiring f(1) = g(0) within 1e-10."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dims differ: {f.dim} vs {g.dim}")
    end, start = f.matrix(1.0), g.matrix(0.0)
    # equal ends differ by 0, within any limit: no norm is needed
    if not np.array_equal(end.mat, start.mat):
        mismatch = op_norm(end.mat - start.mat)
        scale = 1.0 + max(end.norm, start.norm)
        if mismatch > 1e-10 * scale:
            raise EndpointError(
                f"concatenation endpoints differ by {mismatch:.3e} (limit {1e-10 * scale:.3e})"
            )

    def pieces(ts: np.ndarray):
        first = ts <= 0.5
        return (f, first, 2.0 * ts[first]), (g, ~first, 2.0 * ts[~first] - 1.0)

    return _Composite(pieces, f.dim, f.regularity.then(g.regularity))


def path_reverse(f: OperatorPath) -> OperatorPath:
    """Time reversal t -> f(1 - t); negates the spectral flow."""

    def pieces(ts: np.ndarray):
        return ((f, slice(None), 1.0 - ts),)

    return _Composite(pieces, f.dim, f.regularity.reversed())


class _Composite(OperatorPath):
    """A path made of points of other paths (``path_concat``,
    ``path_reverse``): ``pieces(ts)`` names, per part, the part, the
    positions of ``ts`` it covers and the part's parameters there.

    A composite is its parts reparametrized: it evaluates, checks, factors
    and keeps nothing. ``values`` and ``matrices`` map their points through
    ``pieces`` and return what the part that owns each point holds, so a
    point is sampled once, on its owner, whichever composites share it, and
    a junction's matrix is one object with one cached ``eig``; it has no
    evaluator (None).
    """

    def __init__(self, pieces, dim: int, regularity: Regularity):
        super().__init__(None, dim, regularity=regularity)
        self._pieces = pieces

    def _mapped(self, ts: list[float], read: Callable) -> list:
        """``read(part, s)`` for each part and its parameters ``s`` at
        ``ts``, in the order of ``ts``."""
        _check_range(ts)
        out = [None] * len(ts)
        for part, where, part_ts in self._pieces(np.array(ts, dtype=np.float64)):
            for i, x in zip(np.arange(len(ts))[where].tolist(), read(part, part_ts.tolist())):
                out[i] = x
        return out

    def values(self, t):
        if np.ndim(t) == 0:
            return self.values([t])[0]
        return self._mapped([float(s) for s in t], lambda part, s: part.values(s))

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        return self._mapped([float(t) for t in ts], lambda part, s: part.matrices(s))


class _DiagonalPath(OperatorPath):
    """A path of real diagonal matrices whose evaluator gives their (k, n)
    float64 diagonals. A chunk with no -0.0 that is ``_unscaled``, the rule
    of ``_real_diagonals``, is taken as ``(None, d)``; any other is the stack
    it stands for (``_diagonal_matrices``) through the Hermitian check."""

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        d = self._evaluator(ts)
        taken = d.view(np.int64).min() != _NEG_ZERO_BITS and _unscaled(d)
        return self._counted(ts, *((None, d) if taken else _hermitian_rows(_diagonal_matrices(d))))
