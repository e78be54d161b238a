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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EndpointError, InputError, require_int, require_real
from .matcore import (
    EigenDecomposition, HermitianMatrix, _chunk_len, _chunks, _diagonal_matrices, _diff_norms,
    _eigvalsh_of, _hermitian_rows, _hermitian_stack, _matrix_array, _stack_eigvalsh,
    _valid_diagonals, op_norm,
)

__all__ = [
    "Regularity", "piecewise_affine", "lipschitz", "OperatorPath", "path_concat", "path_reverse",
]

#: the invertibility convention: a matrix is invertible when its least
#: |eigenvalue|, less the rounding slack of its eigenvalues, exceeds this
_ENDPOINT_GAP = 1e-8


def _dim_error(found: int, expected: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"path evaluator returned dim {found}, expected {expected}")


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


@lru_cache(maxsize=None)
def _uniform(samples: int) -> tuple[float, ...]:
    """``samples`` uniform points of [0, 1], built once per sample count."""
    return tuple(sorted(set(np.linspace(0.0, 1.0, samples).tolist())))


class OperatorPath:
    """A continuous family of Hermitian matrices over t in [0, 1].

    The evaluator takes a float64 array ``ts`` of shape (k,) and returns the
    k matrices H(ts[0]), ..., H(ts[k-1]) as one complex (k, n, n) stack (any
    array-like of that shape, such as a list of k matrices, will do).
    ``from_callable`` adapts a scalar function t -> matrix to this contract.
    Each stack is validated by one Hermitian check (``_hermitian_stack``).
    ``regularity`` declares how far H moves between two parameters (see
    ``Regularity``); a caller who knows no rate samples the function and
    builds ``from_samples``, whose interpolant is a declared path.

    One routine, ``_sample``, fills the path's stores: it evaluates the
    points not yet held by one evaluator call per chunk of at most
    ``_CHUNK_BYTES`` bytes, takes the eigenvalues they lack from the same
    validated chunk by one batched ``eigvalsh``, and keeps a matrix only
    where one is asked for: the ends, the ends of the certified segments
    (which sf_pairsum projects) and the samples of a ``from_samples`` path.
    So every kept matrix has its eigenvalues held.

    A chunk of real diagonal matrices with no -0.0 (``_valid_diagonals``,
    one test per chunk) is validated, factored and kept through its real
    diagonals: no validated copy of it is made, its eigenvalues are its
    sorted diagonal where that gives LAPACK's bits (else LAPACK on the
    chunk), and a kept point holds its n diagonal entries, not n^2 complex
    ones. Its ``HermitianMatrix`` is built only when ``matrix`` or
    ``matrices`` asks for it (the ends, sf_pairsum's junctions), and is
    then kept in the diagonal's place, so a point's matrix is one object
    with one cached ``eig``.

    * ``matrix(t)`` and ``matrices(ts)`` return the validated matrices and
      keep them;
    * ``values(ts)`` returns eigenvalues, keeping those of a point it
      evaluates but not its matrix;
    * ``stack(ts)`` copies the kept matrices (a kept diagonal into a zeroed
      row, the bits of its matrix) and evaluates the others into one fresh
      array, keeping nothing;
    * ``eig(t)`` is the validated full decomposition the matrix at t caches.

    A method that needs a point's matrix asks for it before its
    eigenvalues, so no point is evaluated twice within one call. sf_phillips
    keeps (``keep``) the samples it evaluates for the segments it is still
    subdividing, since any of them may become a segment end, and drops them
    (``drop``) as the segments certify; a sample whose eigenvalues the path
    already holds is not evaluated again. sf_pairsum projects the segment
    ends in stacks. The library's evaluators do per matrix the same
    floating-point operations, in the same order, as a one-point call, and a
    stacked LAPACK call runs the same routine on every matrix, so each value
    is bit-identical to a one-at-a-time evaluation and does not depend on
    which grids were sampled before. The end gaps with their rounding slack
    are measured once per path, each sampling grid with its steps is built
    once per sample count (``grid``), and the methods hold what they derive
    from a path, such as the certified subdivision that sf_pairsum reuses
    from sf_phillips, in its one memo (``memo``).

    ``path_concat`` and ``path_reverse`` build their paths from their
    parts' validated rows without a second Hermitian check, and take the
    eigenvalues a part already holds at the mapped point; an evaluator
    given to this constructor is always checked.
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
        # a kept point's matrix, or the (n,) real diagonal it is built from
        self._mats: dict[float, HermitianMatrix | np.ndarray] = {}
        self._vals: dict[float, np.ndarray] = {}
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def regularity(self) -> Regularity:
        return self._regularity

    def _evaluated(self, ts: list[float]):
        """Evaluate the distinct points ``ts`` by one evaluator call per
        chunk, yielding each chunk with its rows (``_rows``); nothing is
        kept."""
        for t in ts:
            if not 0.0 <= t <= 1.0:
                raise InputError(f"path parameter {t!r} outside [0, 1]")
        for chunk in _chunks(ts, _chunk_len(self._dim)):
            yield (chunk, *self._rows(np.array(chunk)))

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The evaluator's matrices at ``ts``, checked by one Hermitian
        check (``_hermitian_rows``) and for their count and dimension: the
        validated read-only (k, n, n) stack and None, or a diagonal stack,
        which is not to be kept, and its (k, n) real diagonals."""
        stack, d = _hermitian_rows(self._evaluator(ts))
        if len(stack) != len(ts):
            raise InputError(f"path evaluator returned {len(stack)} matrices for {len(ts)} points")
        if len(stack) and stack.shape[1] != self._dim:
            raise _dim_error(stack.shape[1], self._dim)
        return stack, d

    def _unknown(self, ts: Sequence[float]) -> list[float]:
        """The distinct points of ``ts`` whose eigenvalues the path does not
        hold yet."""
        return [t for t in dict.fromkeys(ts) if t not in self._vals]

    def _sample(self, ts: Sequence[float], keep: bool, rows=None) -> None:
        """The one routine that fills ``_mats`` and ``_vals``: evaluate the
        distinct points of ``ts`` not yet held (without a kept matrix when
        ``keep``, else without eigenvalues) chunk by chunk, or take them from
        ``rows``, (chunk, stack, diagonals) triples as ``_rows`` gives them;
        take the eigenvalues that ``_unknown`` reports missing from the same
        chunk, and keep the matrices when ``keep``, a diagonal chunk's as
        copies of its (n,) diagonals. So every kept matrix has its
        eigenvalues."""
        held = self._mats if keep else self._vals
        todo = [t for t in dict.fromkeys(ts) if t not in held]
        if not todo:
            return
        unknown = self._unknown(todo)  # a composite takes its parts' values here
        if not keep:
            todo = unknown
        for chunk, stack, d in self._evaluated(todo) if rows is None else rows:
            if keep:
                if d is None:
                    self._mats.update(zip(chunk, map(HermitianMatrix._of_valid, stack)))
                else:
                    kept = d.copy()
                    kept.setflags(write=False)
                    self._mats.update(zip(chunk, kept))
            need = [i for i, t in enumerate(chunk) if t not in self._vals]
            if need:
                part = slice(None) if len(need) == len(chunk) else need
                sub = stack[part]
                w = _stack_eigvalsh(sub) if d is None else _eigvalsh_of(sub, d[part])
                w.setflags(write=False)
                self._vals.update(zip([chunk[i] for i in need], w))

    def keep(self, ts: Sequence[float]) -> list[float]:
        """Keep the matrices of the points of ``ts`` whose eigenvalues the
        path does not hold yet, and return those points; a point whose
        eigenvalues are held is not evaluated."""
        new = self._unknown(ts)
        self._sample(new, keep=True)
        return new

    def drop(self, ts: Iterable[float]) -> None:
        """Drop the matrices kept at ``ts``; their eigenvalues stay held."""
        for t in ts:
            self._mats.pop(t, None)

    def memo(self, key, build: Callable[[], object]):
        """The value held on the path under ``key``: ``build()``, called on
        the first call only; one that raises holds nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def grid(self, samples: int) -> tuple[tuple[float, ...], np.ndarray]:
        """``samples`` uniform points of [0, 1] (``_uniform``) and the
        knots, with the declared step bounds along them, built once per
        sample count."""

        def build():
            grid = _uniform(samples)
            if self._regularity.knots:
                grid = tuple(sorted(set(grid).union(self._regularity.knots)))
            return grid, self._regularity.step_bounds(grid)

        return self.memo(("grid", samples), build)

    def matrix(self, t: float) -> HermitianMatrix:
        return self.matrices([t])[0]

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        """The matrices at every t of ``ts``, in order, kept on the path; a
        point kept as its diagonal gets its matrix built and kept."""
        ts = [float(t) for t in ts]
        self._sample(ts, keep=True)
        return [self._built(t) for t in ts]

    def _built(self, t: float) -> HermitianMatrix:
        kept = self._mats[t]
        if not isinstance(kept, HermitianMatrix):
            mat = _diagonal_matrices(kept[None])[0]
            mat.setflags(write=False)
            kept = self._mats[t] = HermitianMatrix._of_valid(mat)
        return kept

    def stack(self, ts: np.ndarray) -> np.ndarray:
        """The matrices at ``ts`` as one fresh (k, n, n) array: the sampler
        a path built on this one calls from its own evaluator. Kept rows are
        copied (a kept diagonal is written into a zeroed row), other points
        evaluated once each, and nothing is kept."""
        ts = np.asarray(ts, dtype=np.float64).tolist()
        out = np.empty((len(ts), self._dim, self._dim), dtype=np.complex128)
        first: dict[float, int] = {}
        for i, t in enumerate(ts):
            first.setdefault(t, i)
        for t, i in first.items():
            kept = self._mats.get(t)
            if isinstance(kept, HermitianMatrix):
                out[i] = kept.mat
            elif kept is not None:
                _diagonal_matrices(kept[None], out[i : i + 1])
        for chunk, stack, _ in self._evaluated([t for t in first if t not in self._mats]):
            out[[first[t] for t in chunk]] = stack
        for i, t in enumerate(ts):
            if first[t] != i:
                out[i] = out[first[t]]
        return out

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
        Hermitian check, whose first failing sample raises."""
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
        dim, last = len(arr[0]), len(mats) - 1

        def evaluate(ts: np.ndarray) -> np.ndarray:
            x = ts * last
            i = np.minimum(np.floor(x).astype(np.intp), last - 1)
            frac = (x - i)[:, None, None]
            return (1.0 - frac) * arr[i] + frac * arr[i + 1]

        rates = last * _diff_norms(arr)
        ts = [i / last for i in range(last + 1)]
        path = cls(evaluate, dim, regularity=piecewise_affine(ts[1:-1], rates))
        # the samples are kept as given, not re-evaluated by the interpolant
        size = _chunk_len(dim)
        rows = ((c, s, _valid_diagonals(s)) for c, s in zip(_chunks(ts, size), _chunks(arr, size)))
        path._sample(ts, keep=True, rows=rows)
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

    Its evaluator assembles the parts' validated rows (their ``stack``), so
    its stacks are taken without a second Hermitian check, the bits the
    parts hold; only the diagonal test (``_valid_diagonals``) runs on them.
    A point whose eigenvalues its part already holds takes them, so a
    part's sampled points are not sampled again; a junction whose matrix
    the part did not keep is evaluated again. An evaluator passed to
    ``OperatorPath`` is always checked.
    """

    def __init__(self, pieces, dim: int, regularity: Regularity):
        super().__init__(self._assemble, dim, regularity=regularity)
        self._pieces = pieces

    def _assemble(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, self._dim, self._dim), dtype=np.complex128)
        for part, where, part_ts in self._pieces(ts):
            out[where] = part.stack(part_ts)
        return out

    def _rows(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        stack = self._evaluator(ts)
        stack.setflags(write=False)
        return stack, _valid_diagonals(stack)

    def _unknown(self, ts: Sequence[float]) -> list[float]:
        todo = super()._unknown(ts)
        if todo:
            arr = np.array(todo)
            for part, where, part_ts in self._pieces(arr):
                for t, s in zip(arr[where].tolist(), part_ts.tolist()):
                    w = part._vals.get(s)
                    if w is not None:
                        self._vals[t] = w
        return [t for t in todo if t not in self._vals]
