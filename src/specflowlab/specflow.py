"""Spectral flow of paths of Hermitian matrices, by four methods.

A path is a map t in [0, 1] -> Hermitian matrix, given by a stacked
evaluator and a declared Regularity: a bound on ||H(b) - H(a)|| computed
once, when the path is built. A piecewise-affine path (uniform samples,
straight lines) gives the norm of each piece's slope, a Lipschitz path (the
trig families, the connector) a rate per piece. Endpoints must be
invertible (``_singular``: min |spec| less its rounding slack > 1e-8), so
the flow is an integer.

Methods
-------
* sf_phillips:        certified subdivision; per segment an eigenvalue-free
                      level eps_j is chosen in the largest gap of the sampled
                      magnitude spectrum and Weyl bounds (the declared step
                      bounds plus a rounding slack) certify that no
                      eigenvalue meets +-eps_j inside the segment; the flow
                      is the telescoped count of eigenvalues in [0, eps_j).
* sf_pairsum:         the same subdivision; the flow is the sum over its
                      segments of the pair indices of the nonnegative
                      spectral projections at the segment ends.
* sf_endpoints:       rank difference of the nonnegative spectral projections
                      at t = 1 and t = 0 (finite-dimension shortcut).
* sf_crossing_oracle: signed sign-count bookkeeping on a dense grid, with an
                      aliasing guard; used as oracle. A sample's count is
                      inferred from its evaluated neighbours where their
                      eigenvalues clear the declared step bound plus twice
                      the rounding slack.

All four must agree exactly; they are cross-checked in the test suite and
by the CLI, and a disagreement is an internal consistency fault. They are
not four independent checks: at finite dimension the sf_pairsum total (a
sum of rank differences) and the sf_crossing_oracle total (a sum of count
jumps) both telescope to the sf_endpoints difference, so they agree with
it by algebra. The comparison that can fail is sf_phillips, whose
per-segment levels eps_j do not telescope, against sf_endpoints.
sf_pairsum adds no refusal of its own (its subdivision is sf_phillips's,
already certified); sf_crossing_oracle adds its aliasing guard, not an
independent integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CertificationError,
    ConsistencyFault,
    DimensionMismatchError,
    EndpointError,
    InputError,
    SamplingError,
    require_int,
    require_real,
)
from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    _chunk_len,
    _chunks,
    _diff_norms,
    _hermitian_stack,
    _nonneg_projections,
    _stack_eigvalsh,
    as_hermitian,
    op_norm,
)
from .projpair import _pair_indices

__all__ = [
    "Regularity",
    "piecewise_affine",
    "lipschitz",
    "OperatorPath",
    "SfOptions",
    "SfSegment",
    "SfCertificate",
    "sf_phillips",
    "sf_pairsum",
    "sf_endpoints",
    "sf_crossing_oracle",
    "crossing_oracle_report",
    "sf_all_methods",
    "path_concat",
    "path_reverse",
    "certify_invertible",
]


#: the invertibility convention: a matrix is invertible when its least
#: |eigenvalue|, less the rounding slack of its eigenvalues, exceeds this
_ENDPOINT_GAP = 1e-8


@dataclass(frozen=True)
class SfOptions:
    """Resolution knobs shared by the four methods; ``endpoint_gap`` is the
    fixed convention of ``_singular``, a field so certificates list it."""

    samples: int = 33
    oracle_samples: int = 257
    max_depth: int = 24
    endpoint_gap: float = field(default=_ENDPOINT_GAP, init=False)

    def __post_init__(self):
        require_int(self.samples, "samples", 2)
        require_int(self.oracle_samples, "oracle_samples", 2)
        require_int(self.max_depth, "max_depth", 1)


_DEFAULT_OPTS = SfOptions()

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

    def step_bounds(self, ts: Sequence[float]) -> list[float]:
        """rate * |dt| for each consecutive pair of ``ts``; a step that
        spans knots takes the largest rate of the pieces it meets."""
        ts = np.asarray(ts, dtype=np.float64)
        lo = np.minimum(ts[:-1], ts[1:])
        hi = np.maximum(ts[:-1], ts[1:])
        rates = np.asarray(self.rates)
        first = np.searchsorted(self.knots, lo, side="right")
        last = np.searchsorted(self.knots, hi, side="left")
        rate = rates[first]
        for k in np.flatnonzero(last > first).tolist():
            rate[k] = rates[first[k] : last[k] + 1].max()
        return (rate * (hi - lo)).tolist()

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
    validated chunk by one batched ``eigvalsh`` (a stack of diagonal
    matrices takes its sorted diagonal, the same bits), and keeps a matrix
    only where one is asked for: the ends, the ends of the certified
    segments (which sf_pairsum projects) and the samples of a
    ``from_samples`` path. So every kept matrix has its eigenvalues held.

    * ``matrix(t)`` and ``matrices(ts)`` return the validated matrices and
      keep them;
    * ``values(ts)`` returns eigenvalues, keeping those of a point it
      evaluates but not its matrix;
    * ``stack(ts)`` copies the kept matrices and evaluates the others into
      one fresh array, keeping nothing;
    * ``eig(t)`` is the validated full decomposition the matrix at t caches.

    A method that needs a point's matrix asks for it before its
    eigenvalues, so no point is evaluated twice within one call. sf_phillips
    keeps (``_keep``) the samples it evaluates for the segments it is still
    subdividing, since any of them may become a segment end, and drops them
    as the segments certify; a sample whose eigenvalues the path already
    holds is not evaluated again. sf_pairsum projects the segment ends in
    stacks. The library's evaluators do per matrix the same floating-point
    operations, in the same order, as a one-point call, and a stacked
    LAPACK call runs the same routine on every matrix, so each value is
    bit-identical to a one-at-a-time evaluation and does not depend on
    which grids were sampled before. The certified subdivision is cached
    per ``SfOptions``, so sf_pairsum reuses the one sf_phillips found; the
    end gaps with their rounding slack, and each sampling grid with its
    steps, are computed once per path.

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
        self._mats: dict[float, HermitianMatrix] = {}
        self._vals: dict[float, np.ndarray] = {}
        self._segments: dict[SfOptions, tuple] = {}
        self._grids: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def regularity(self) -> Regularity:
        return self._regularity

    def _evaluated(self, ts: list[float]):
        """Evaluate the distinct points ``ts`` by one evaluator call per
        chunk, yielding each chunk with its validated, read-only (k, n, n)
        stack; nothing is kept."""
        for t in ts:
            if not 0.0 <= t <= 1.0:
                raise InputError(f"path parameter {t!r} outside [0, 1]")
        for chunk in _chunks(ts, _chunk_len(self._dim)):
            yield chunk, self._rows(np.array(chunk))

    def _rows(self, ts: np.ndarray) -> np.ndarray:
        """The evaluator's matrices at ``ts``, checked by one Hermitian
        check and for their count and dimension."""
        stack = _hermitian_stack(self._evaluator(ts))
        if len(stack) != len(ts):
            raise InputError(f"path evaluator returned {len(stack)} matrices for {len(ts)} points")
        if len(stack) and stack.shape[1] != self._dim:
            raise _dim_error(stack.shape[1], self._dim)
        return stack

    def _unknown(self, ts: Sequence[float]) -> list[float]:
        """The distinct points of ``ts`` whose eigenvalues the path does not
        hold yet."""
        return [t for t in dict.fromkeys(ts) if t not in self._vals]

    def _sample(self, ts: Sequence[float], keep: bool, rows=None) -> None:
        """The one routine that fills ``_mats`` and ``_vals``: evaluate the
        distinct points of ``ts`` not yet held (without a kept matrix when
        ``keep``, else without eigenvalues) chunk by chunk, or take them from
        ``rows``, (chunk, validated stack) pairs; take the eigenvalues that
        ``_unknown`` reports missing from the same chunk, and keep the
        matrices when ``keep``. So every kept matrix has its eigenvalues."""
        held = self._mats if keep else self._vals
        todo = [t for t in dict.fromkeys(ts) if t not in held]
        if not todo:
            return
        unknown = self._unknown(todo)  # a composite takes its parts' values here
        if not keep:
            todo = unknown
        for chunk, stack in self._evaluated(todo) if rows is None else rows:
            if keep:
                self._mats.update(zip(chunk, map(HermitianMatrix._of_valid, stack)))
            need = [i for i, t in enumerate(chunk) if t not in self._vals]
            if need:
                w = _stack_eigvalsh(stack if len(need) == len(chunk) else stack[need])
                w.setflags(write=False)
                self._vals.update(zip([chunk[i] for i in need], w))

    def _keep(self, ts: Sequence[float]) -> list[float]:
        """Keep the matrices of the points of ``ts`` whose eigenvalues the
        path does not hold yet, and return those points; a point whose
        eigenvalues are held is not evaluated."""
        new = self._unknown(ts)
        self._sample(new, keep=True)
        return new

    def matrix(self, t: float) -> HermitianMatrix:
        return self.matrices([t])[0]

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        """The matrices at every t of ``ts``, in order, kept on the path."""
        ts = [float(t) for t in ts]
        self._sample(ts, keep=True)
        return [self._mats[t] for t in ts]

    def stack(self, ts: np.ndarray) -> np.ndarray:
        """The matrices at ``ts`` as one fresh (k, n, n) array: the sampler
        a path built on this one calls from its own evaluator. Kept rows are
        copied, other points evaluated once each, and nothing is kept."""
        ts = np.asarray(ts, dtype=np.float64).tolist()
        out = np.empty((len(ts), self._dim, self._dim), dtype=np.complex128)
        first: dict[float, int] = {}
        for i, t in enumerate(ts):
            first.setdefault(t, i)
        for t, i in first.items():
            if t in self._mats:
                out[i] = self._mats[t].mat
        for chunk, stack in self._evaluated([t for t in first if t not in self._mats]):
            out[[first[t] for t in chunk]] = stack
        for i, t in enumerate(ts):
            if first[t] != i:
                out[i] = out[first[t]]
        return out

    # No library code calls eig; it stays because the benchmark's tracer
    # wraps OperatorPath.eig by name.
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

    @cached_property
    def _endpoints(self) -> tuple[tuple[float, float], str | None]:
        """The end gaps min |spec| at t = 0 and 1, and the invertibility
        rule's verdict on them (``_singular``), measured once per path."""
        # keeps the end matrices: sf_pairsum's outer junctions and
        # path_concat's endpoint check read them
        self.matrices([0.0, 1.0])
        return _singular(self._dim, self.values([0.0, 1.0]))

    @classmethod
    def from_samples(cls, matrices: Sequence) -> "OperatorPath":
        """Uniformly spaced samples; the path is their linear interpolant,
        piecewise affine with one 2-norm per piece."""
        mats = [as_hermitian(m) for m in matrices]
        if len(mats) < 2:
            raise InputError("a sampled path needs at least 2 samples")
        dim = mats[0].dim
        for m in mats[1:]:
            if m.dim != dim:
                raise DimensionMismatchError("sample dimensions differ")
        arr = np.stack([m.mat for m in mats])
        arr.setflags(write=False)
        last = len(mats) - 1

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
        path._sample(ts, keep=True, rows=zip(_chunks(ts, size), _chunks(arr, size)))
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


@dataclass(frozen=True)
class SfSegment:
    """One certified subdivision segment.

    ``eps`` is the level avoided by the spectrum throughout the segment;
    ``weyl_margin`` is the worst certified slack: the distance of +-eps to
    the sampled spectrum minus the sample's tolerance (the declared step
    bound to its neighbours, plus a rounding slack). sf_pairsum shares
    sf_phillips's segments and so their margins; the margin is what keeps
    the rank above eps constant on the segment.
    """

    t_left: float
    t_right: float
    eps: float
    rank_left: int
    rank_right: int
    weyl_margin: float


@dataclass(frozen=True)
class SfCertificate:
    """A spectral-flow value plus the subdivision evidence behind it.

    ``soundness`` names the condition the margins rest on: the path's
    declared "piecewise-affine" or "lipschitz" regularity.
    """

    method: str
    total: int
    segments: tuple[SfSegment, ...]
    endpoint_gaps: tuple[float, float]
    soundness: str
    opts: SfOptions = field(default_factory=SfOptions)

    def __post_init__(self):
        if self.soundness not in _SOUNDNESS:
            raise ConsistencyFault(f"unknown soundness {self.soundness!r}")
        if not self.segments:
            raise ConsistencyFault("certificate has no segments")
        tel = sum(s.rank_right - s.rank_left for s in self.segments)
        if tel != self.total:
            raise ConsistencyFault(
                f"certificate total {self.total} != telescoped ranks {tel}"
            )
        prev = 0.0
        for s in self.segments:
            if abs(s.t_left - prev) > 1e-12:
                raise ConsistencyFault("certificate segments are not contiguous")
            if s.t_right <= s.t_left:
                raise ConsistencyFault("certificate segment has nonpositive width")
            if not s.weyl_margin > 0.0:
                raise ConsistencyFault(
                    f"certificate segment has nonpositive margin {s.weyl_margin!r}"
                )
            prev = s.t_right
        if abs(prev - 1.0) > 1e-12:
            raise ConsistencyFault("certificate segments do not reach t = 1")


def _rounding_slack(path: OperatorPath, mags: np.ndarray):
    """gamma_n * ||H(t_k)|| per sample, from the sampled magnitudes
    ``mags``: eigvalsh and the evaluator are backward stable only to about
    that size."""
    return _gamma(path.dim) * np.max(mags, axis=-1)


def _tolerances(path: OperatorPath, steps: Sequence[float], mags: np.ndarray) -> np.ndarray:
    """Per grid sample, the tolerance tau_k its distances to the spectrum
    must beat so that no eigenvalue can reach them between samples.

    Each takes its share (``_step_share``) of the larger step bound to a
    neighbour, plus the rounding slack.
    """
    return _neighbour_steps(steps) * _step_share(path) + _rounding_slack(path, mags)


def _step_share(path: OperatorPath) -> float:
    """The share of a step bound that a sample's distances must beat: all
    of it on an affine path, half on a Lipschitz path, since every t lies
    within half a spacing of a sample."""
    return 0.5 if path.regularity.soundness == "lipschitz" else 1.0


def _check_endpoints(path: OperatorPath) -> tuple[float, float]:
    """The end gaps, once the invertibility rule (``_singular``) holds at
    both ends (checked on every call; the path measures the gaps once)."""
    (g0, g1), tail = path._endpoints
    if tail is not None:
        raise EndpointError(
            f"path endpoints must be invertible: min |spec| = ({g0:.3e}, {g1:.3e}), "
            f"convention requires > {_ENDPOINT_GAP:.0e}{tail}"
        )
    return g0, g1


@lru_cache(maxsize=None)
def _uniform(samples: int) -> tuple[float, ...]:
    """``samples`` uniform points of [0, 1], built once per sample count."""
    return tuple(sorted(set(np.linspace(0.0, 1.0, samples).tolist())))


def _grid(path: OperatorPath, samples: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``samples`` uniform points of [0, 1] (``_uniform``) and the path's
    knots, with the declared step bounds along them, built once per path
    and sample count."""
    memo = path._grids.get(samples)
    if memo is None:
        grid = _uniform(samples)
        if path.regularity.knots:
            grid = tuple(sorted(set(grid).union(path.regularity.knots)))
        memo = path._grids[samples] = grid, tuple(path.regularity.step_bounds(grid))
    return memo


def _neighbour_steps(steps: Sequence[float]) -> np.ndarray:
    """Per grid point, the larger of the steps to its neighbours."""
    padded = np.concatenate(([0.0], steps, [0.0]))
    return np.maximum(padded[:-1], padded[1:])


def _segment_level_and_margin(
    path: OperatorPath, ts: Sequence[float], top_width: float
) -> tuple[float, float]:
    """Pick eps in the widest gap of the sampled magnitude spectrum and
    return (eps, worst Weyl margin); margin <= 0 means not certified.

    Candidate gaps are the intervals between consecutive sampled
    |eigenvalue| levels (0 included), plus the region just above the
    largest level, which enters the contest with the fixed width
    ``top_width``.  That width is tied to the path's own invertibility
    scale, never to the local step sizes, so the margin test stays
    falsifiable: a segment whose steps exceed every gap half-width cannot
    certify at any eps and has to be subdivided instead.
    """
    mags = np.abs(np.array(path.values(ts)))
    levels = np.sort(np.concatenate(([0.0], mags.ravel())))
    # the distinct levels, as np.unique gives them; numpy 2's np.unique
    # imports numpy.ma on its first call, which a flow needs nowhere else
    pool = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]
    lows = pool
    highs = np.append(pool[1:], pool[-1] + top_width)
    widths = highs - lows
    # widest gap wins; argmax ties resolve toward the smaller (local) level
    best = int(np.argmax(widths))
    eps = float((lows[best] + highs[best]) / 2.0)
    dist = np.min(np.abs(mags - eps), axis=1)
    return eps, float(np.min(dist - _tolerances(path, path.regularity.step_bounds(ts), mags)))


def _refine(ts: Sequence[float]) -> list[float]:
    out: list[float] = []
    for k in range(len(ts) - 1):
        out.append(ts[k])
        out.append((ts[k] + ts[k + 1]) / 2.0)
    out.append(ts[-1])
    return out


def _rank_below(path: OperatorPath, t: float, eps: float) -> int:
    v = path.values(t)
    return int(np.sum((v >= 0.0) & (v < eps)))


def _certified_segments(
    path: OperatorPath, opts: SfOptions
) -> tuple[tuple[list[float], float, float], ...]:
    """Recursively subdivide until every segment certifies; returns the
    (sample grid, eps, margin) triples covering [0, 1] in order. The result
    is cached on the path per ``opts``."""
    cached = path._segments.get(opts)
    if cached is not None:
        return cached
    out: list[tuple[list[float], float, float]] = []
    # The above-the-spectrum candidate level gets half the smaller endpoint
    # spectral gap as its headroom, so certifying "eps above everything the
    # segment shows" demands steps finer than the path's invertibility scale.
    top_width = 0.5 * min(path.endpoint_gaps())

    spare: set[float] = set()  # samples kept only in case they become junctions

    def visit(ts: Sequence[float], depth: int) -> None:
        # Any sample may become a junction, whose projection sf_pairsum
        # takes, if its segment splits deep enough. So a sample evaluated
        # here is kept, its eigenvalues taken from the same chunk, and a
        # segment's inner ones are dropped once it certifies.
        spare.update(path._keep(ts))
        eps, margin = _segment_level_and_margin(path, ts, top_width)
        if margin > 0.0:
            for t in spare.intersection(ts[1:-1]):
                spare.discard(t)
                del path._mats[t]
            out.append((ts, eps, margin))
            return
        if depth >= opts.max_depth:
            raise CertificationError(
                f"subdivision exhausted at depth {depth}", window=(ts[0], ts[-1])
            )
        mid = (ts[0] + ts[-1]) / 2.0
        left = [t for t in ts if t < mid] + [mid]
        right = [mid] + [t for t in ts if t > mid]
        visit(_refine(left), depth + 1)
        visit(_refine(right), depth + 1)

    try:
        visit(_grid(path, opts.samples)[0], 0)
    except Exception:
        # no certificate will read them: the path keeps what it held before
        for t in spare:
            path._mats.pop(t, None)
        raise
    path._segments[opts] = tuple(out)
    return path._segments[opts]


def _certificate(
    path: OperatorPath,
    opts: SfOptions,
    method: str,
    rank: Callable[[float, float], int],
    total: Callable[[tuple[SfSegment, ...]], int] | None = None,
) -> SfCertificate:
    """The certificate over the certified segments, with ``rank(t, eps)``
    taken at each segment end. The total is the telescoped sum of the rank
    differences unless ``total`` computes it from the segments."""
    gaps = _check_endpoints(path)
    segs = tuple(
        SfSegment(
            t_left=ts[0],
            t_right=ts[-1],
            eps=eps,
            rank_left=rank(ts[0], eps),
            rank_right=rank(ts[-1], eps),
            weyl_margin=margin,
        )
        for ts, eps, margin in _certified_segments(path, opts)
    )
    return SfCertificate(
        method=method,
        total=sum(s.rank_right - s.rank_left for s in segs) if total is None else total(segs),
        segments=segs,
        endpoint_gaps=gaps,
        soundness=path.regularity.soundness,
        opts=opts,
    )


def sf_phillips(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> SfCertificate:
    """Certified-subdivision spectral flow (the defining formula).

    Per segment j the count of eigenvalues in [0, eps_j) is taken at both
    ends; the sum of the differences is the flow. Certification: at every
    sample of segment j the distance of +-eps_j to the spectrum exceeds the
    sample's tolerance, the declared bound on how far H moves before the
    next sample takes over (a Weyl bound), so no eigenvalue can meet +-eps_j
    anywhere in the segment.
    """
    return _certificate(path, opts, "phillips", partial(_rank_below, path))


def sf_pairsum(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> SfCertificate:
    """Spectral flow as a sum of projection-pair indices over a subdivision.

    Uses the sf_phillips segments: on segment j no eigenvalue meets +-eps_j
    (its Weyl margin certifies that), so the rank of the spectral projection
    above eps_j is constant there, and the segment contributes
    ind(P(t_j), P(t_{j-1})) of the nonnegative spectral projections at its
    ends. The junctions are projected in stacks of ``_chunk_len`` matrices
    (``nonneg_projection`` is the one-matrix case), each validated once,
    all before any pair is counted; the pairs of consecutive junctions are
    counted in stacks (``pair_index`` is the one-pair case). A stacked step
    raises what its first failing check raises, on that check's first
    failing junction or pair.
    """

    def pair_total(segs: tuple[SfSegment, ...]) -> int:
        junctions = [segs[0].t_left] + [s.t_right for s in segs]
        size = _chunk_len(path.dim)
        # each junction's projection row (a view of its chunk) and rank
        projs = [
            row
            for chunk in _chunks(path.matrices(junctions), size)
            for row in zip(*_nonneg_projections(chunk))
        ]
        total = 0
        for pairs in _chunks(list(zip(projs[1:], projs[:-1])), size):
            diffs = np.empty((len(pairs), path.dim, path.dim), dtype=np.complex128)
            for i, ((right, _), (left, _)) in enumerate(pairs):
                np.subtract(right, left, out=diffs[i])
            ranks = [r_right - r_left for (_, r_right), (_, r_left) in pairs]
            total += sum(result.value for result in _pair_indices(diffs, ranks))
        return total

    return _certificate(
        path, opts, "pairsum", lambda t, _eps: path.nonneg_count(t), pair_total
    )


def sf_endpoints(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> int:
    """Rank difference of the nonnegative spectral projections at the ends."""
    _check_endpoints(path)
    return path.nonneg_count(1.0) - path.nonneg_count(0.0)


def _clearance(path: OperatorPath, vals) -> np.ndarray:
    """Per sample, min |eigenvalue| less twice the rounding slack. When it
    exceeds a sample's tolerance, no eigenvalue can reach zero within that
    tolerance, and the count ``eigvalsh`` returns there is the sample's: one
    slack covers the sample's own computed eigenvalues, the other those
    computed at the point reached."""
    mags = np.abs(np.asarray(vals))
    return np.min(mags, axis=-1) - 2.0 * _rounding_slack(path, mags)


def _reach_bound(
    path: OperatorPath, ts: list[float], steps: list[float], idx: list[int], vals
) -> np.ndarray:
    """Per sample of the grid ``ts``, an upper bound on its tolerance from
    the eigenvalues ``vals`` at the grid indices ``idx`` alone (increasing,
    both ends among them), exact at every index of ``idx``.

    The tolerance of sample k needs ||H(t_k)||, computed as its largest
    |eigenvalue|. Between two evaluated indices i < j it is bounded by
    min(||H(t_i)||, ||H(t_j)||) plus the declared step bound of (t_i, t_j),
    times (1 + gamma_n)^2: one factor for the rounding of the norm computed
    at the end, one for that of the norm computed at t_k."""
    tops = np.max(np.abs(np.asarray(vals)), axis=-1)
    norms = tops
    if len(idx) < len(ts):
        moves = np.asarray(path.regularity.step_bounds([ts[k] for k in idx]))
        inside = (np.minimum(tops[:-1], tops[1:]) + moves) * (1.0 + _gamma(path.dim)) ** 2
        norms = np.append(np.repeat(inside, np.diff(idx)), 0.0)
        norms[idx] = tops
    return _tolerances(path, steps, norms[:, None])


def _guard(
    path: OperatorPath, opts: SfOptions, ts: list[float], steps: list[float], gap: float
) -> tuple[list[int], list[np.ndarray]]:
    """The oracle's aliasing guard on the grid ``ts``: the reach, the
    largest sample tolerance, must stay below half the endpoint gap ``gap``.
    Returns the evaluated grid indices and their eigenvalues if it does,
    and raises the oracle's ``SamplingError`` if not.

    It evaluates index sets of the grid in turn: the two ends (held by the
    end check), only when the step floor, the share (``_step_share``) of
    the largest step, reaches half the gap; the seeds, the points of the
    ``opts.samples`` grid; the whole grid.
    Each set brackets the reach. The upper end is the largest per-sample
    bound (``_reach_bound``); the lower end is the larger of the step floor
    (every tolerance adds a nonnegative slack to its share of a neighbour
    step) and the exact tolerance of every evaluated sample. The guard
    passes when the upper end is below half the gap, and refuses when the
    lower end is not and both ends print alike with ``.3e``, which rounds
    correctly, so monotonically: the reach prints the same digits. On the
    whole grid the two ends are equal, so the last set always decides.
    """
    floor = max(steps) * _step_share(path)
    seeds = set(_grid(path, opts.samples)[0])
    sets = [[0, len(ts) - 1]] if floor >= 0.5 * gap else []
    sets += [[k for k, t in enumerate(ts) if t in seeds], list(range(len(ts)))]
    for idx in sets:
        at_idx = path.values([ts[k] for k in idx])
        tol = _reach_bound(path, ts, steps, idx, at_idx)
        top = float(np.max(tol))
        if top < 0.5 * gap:
            return idx, at_idx
        low = max(floor, float(np.max(tol[idx])))
        if low >= 0.5 * gap and f"{low:.3e}" == f"{top:.3e}":
            raise SamplingError(
                f"oracle sample tolerance {low:.3e} is not below half the endpoint gap "
                f"{gap:.3e}; increase oracle_samples"
            )


def _refuse_on_step_bounds(path: OperatorPath, opts: SfOptions, gap: float) -> None:
    """Run the guard (``_guard``), which must then refuse, when the step
    floor on the ``opts.oracle_samples`` grid reaches half the endpoint gap
    ``gap``; otherwise evaluate nothing."""
    ts, steps = _grid(path, opts.oracle_samples)
    if max(steps) * _step_share(path) >= 0.5 * gap:
        _guard(path, opts, ts, steps, gap)


def _false_declaration(c0: int, c1: int, t0: float, t1: float, bound: float) -> InputError:
    """The refusal of a count change that the declared step bound forbids."""
    return InputError(
        f"nonnegative count changes from {c0} to {c1} on [{t0!r}, {t1!r}], where the "
        f"declared step bound {bound:.3e} forbids it: the path moves faster than it declares"
    )


def _ledger(
    path: OperatorPath, opts: SfOptions, ts: list[float], steps: list[float], gap: float
) -> tuple[dict[int, np.ndarray], list[int]]:
    """The oracle's eigenvalues and nonnegative counts on the grid ``ts``.

    The aliasing guard (``_guard``) decides first, against half the
    endpoint gap ``gap``; when it passes, its evaluated indices start the
    ledger: the seeds (under sf_all_methods sf_phillips has evaluated them
    already), or the whole grid when the guard needed it. Between two
    evaluated indices i < j, every index inside takes the count of i when
    the clearance (``_clearance``) at both ends exceeds the share
    (``_step_share``) of the declared step bound of (ts[i], ts[j]);
    otherwise ts[(i + j) // 2] is evaluated and both halves are tried
    again, one ``values`` call per level. So counts change only between
    adjacent evaluated indices, each with the whole grid's values. A count
    change where both ends clear the bound proves the declaration false,
    an ``InputError``.
    """
    idx, at_idx = _guard(path, opts, ts, steps, gap)
    vals = dict(zip(idx, at_idx))
    counts = [0] * len(ts)
    clear: dict[int, float] = {}

    def take(new: list[int]) -> None:
        w = np.array([vals[k] for k in new])
        clear.update(zip(new, _clearance(path, w).tolist()))
        for k, c in zip(new, np.count_nonzero(w >= 0.0, axis=1).tolist()):
            counts[k] = c

    take(idx)
    share = _step_share(path)
    pending = [(i, j) for i, j in zip(idx, idx[1:]) if j - i > 1]
    while pending:
        bounds = path.regularity.step_bounds([ts[k] for pair in pending for k in pair])
        split = []
        for (i, j), bound in zip(pending, bounds[::2]):
            tol = bound * share
            if clear[i] > tol and clear[j] > tol:
                if counts[i] != counts[j]:
                    raise _false_declaration(counts[i], counts[j], ts[i], ts[j], bound)
                counts[i + 1 : j] = [counts[i]] * (j - i - 1)
            else:
                split.append((i, (i + j) // 2, j))
        if not split:
            break
        mids = [m for _, m, _ in split]
        vals.update(zip(mids, path.values([ts[m] for m in mids])))
        take(mids)
        pending = [p for i, m, j in split for p in ((i, m), (m, j)) if p[1] - p[0] > 1]
    return vals, counts


def crossing_oracle_report(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Signed tally of eigenvalue sign changes on a dense grid (the oracle).

    Consecutive samples of the ``opts.oracle_samples`` grid are compared
    by their nonnegative-eigenvalue counts; every sample's tolerance must
    stay below half the endpoint gap (else a SamplingError asks for more
    samples), and every jump must be explained by eigenvalues within one
    step bound plus both samples' rounding slack of zero on both sides
    (else the declaration is false, an InputError). The counts come from
    one ledger (``_ledger``): it evaluates the grid only where a count can
    change, every point where the guard (``_guard``) cannot decide from
    fewer, and gives the report and error texts of the whole grid.
    """
    g0, g1 = _check_endpoints(path)
    ts, steps = _grid(path, opts.oracle_samples)
    vals, counts = _ledger(path, opts, ts, steps, min(g0, g1))
    ups = downs = 0
    for k in np.flatnonzero(np.diff(counts)).tolist():
        jump = counts[k + 1] - counts[k]
        # each eigenvalue that changes sign moves by at most the step bound
        # plus the rounding slack of both samples; the relative slack covers
        # the boundary case |eigenvalue| == step up to rounding
        mags = np.abs(np.array([vals[k], vals[k + 1]]))
        reach = steps[k] * (1.0 + 1e-9) + 1e-12 + float(np.sum(_rounding_slack(path, mags)))
        if abs(jump) > np.count_nonzero(mags <= reach, axis=1).min():
            raise _false_declaration(counts[k], counts[k + 1], ts[k], ts[k + 1], steps[k])
        ups += max(jump, 0)
        downs += max(-jump, 0)
    return {
        "total": ups - downs,
        "up_crossings": ups,
        "down_crossings": downs,
        "samples": len(ts),
        "max_step": max(steps),
    }


def sf_crossing_oracle(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> int:
    return int(crossing_oracle_report(path, opts)["total"])


def sf_all_methods(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Run all four methods and insist on exact agreement.

    Returns a dict with the common value, both certificates and the
    crossing-oracle report; raises ConsistencyFault if any two methods
    differ (that is a bug surface, not a property of the input).

    The end check runs first, so an ``EndpointError`` wins. Then a
    refusal that the path's step floor proves
    (``_refuse_on_step_bounds``) raises, through the oracle's guard, the
    ``SamplingError`` the oracle raises on a fresh path, before phillips
    samples anything and in general from the two ends alone. Otherwise
    phillips, pairsum, endpoints and the oracle run in that order.
    """
    _refuse_on_step_bounds(path, opts, min(_check_endpoints(path)))
    cert_p = sf_phillips(path, opts)
    cert_s = sf_pairsum(path, opts)
    ends = sf_endpoints(path, opts)
    ledger = crossing_oracle_report(path, opts)
    values = {
        "phillips": cert_p.total,
        "pairsum": cert_s.total,
        "endpoints": ends,
        "crossing_oracle": int(ledger["total"]),
    }
    if len(set(values.values())) != 1:
        raise ConsistencyFault(f"spectral-flow methods disagree: {values}")
    return {
        "value": ends,
        "methods": values,
        "phillips_certificate": cert_p,
        "pairsum_certificate": cert_s,
        "crossing_ledger": ledger,
    }


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
    parts hold. A point whose eigenvalues its part already holds takes
    them, so a part's sampled points are not sampled again; a junction
    whose matrix the part did not keep is evaluated again. An evaluator
    passed to ``OperatorPath`` is always checked.
    """

    def __init__(self, pieces, dim: int, regularity: Regularity):
        super().__init__(self._assemble, dim, regularity=regularity)
        self._pieces = pieces

    def _assemble(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, self._dim, self._dim), dtype=np.complex128)
        for part, where, part_ts in self._pieces(ts):
            out[where] = part.stack(part_ts)
        return out

    def _rows(self, ts: np.ndarray) -> np.ndarray:
        stack = self._evaluator(ts)
        stack.setflags(write=False)
        return stack

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


def certify_invertible(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Weyl-certify that a path stays invertible for every t in [0, 1].

    At every grid sample the spectral gap around 0 must exceed the
    sample's tolerance, as in sf_phillips. Returns a report with
    ``certified`` plus the worst margin and the ``soundness`` it rests on.
    It does not raise on failure so sweep drivers can count and refine.
    """
    # keeps the ends, which the flows' junctions read, before the grid's values
    path.endpoint_gaps()
    ts, steps = _grid(path, opts.samples)
    mags = np.abs(np.array(path.values(ts)))
    gaps = np.min(mags, axis=1)
    worst = float(np.min(gaps - _tolerances(path, steps, mags)))
    return {
        "certified": bool(worst > 0.0),
        "margin": worst,
        "min_gap": float(np.min(gaps)),
        "max_step": max(steps),
        "samples": len(ts),
        "soundness": path.regularity.soundness,
    }
