"""Spectral flow of paths of Hermitian matrices, by four methods.

A path is a map t in [0, 1] -> Hermitian matrix, given by a stacked
evaluator and a declared Regularity: a bound on ||H(b) - H(a)|| computed
once, when the path is built. A piecewise-affine path (uniform samples,
straight lines) gives the norm of each piece's slope, a Lipschitz path (the
trig families, the connector) a rate per piece, and an opaque path nothing,
so its steps are sampled 2-norms of differences and its certificates are
labelled "surrogate". Endpoints must be invertible (min |spec| > 1e-8 by
convention), so the flow is an integer.

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
                      the rounding slack (an opaque path evaluates all).

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
from functools import partial
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
)
from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    _chunk_len,
    _chunks,
    _hermitian_stack,
    _nonneg_projections,
    _stack_eigvalsh,
    as_hermitian,
    op_norm,
)
from .projpair import _pair_indices

__all__ = [
    "Regularity",
    "OPAQUE",
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


@dataclass(frozen=True)
class SfOptions:
    """Resolution and tolerance knobs shared by the four methods."""

    samples: int = 33
    oracle_samples: int = 257
    max_depth: int = 24
    endpoint_gap: float = 1e-8

    def __post_init__(self):
        require_int(self.samples, "samples", 2)
        require_int(self.oracle_samples, "oracle_samples", 2)
        require_int(self.max_depth, "max_depth", 1)
        if not (np.isfinite(self.endpoint_gap) and self.endpoint_gap > 0):
            raise InputError("endpoint_gap must be positive and finite")


_DEFAULT_OPTS = SfOptions()

def _dim_error(found: int, expected: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"path evaluator returned dim {found}, expected {expected}")


#: the soundness conditions a certificate can rest on, strongest first
_SOUNDNESS = ("piecewise-affine", "lipschitz", "surrogate")


def _gamma(dim: int) -> float:
    """gamma_n = 4 n u (u = 2^-53, the unit roundoff): the rounding slack,
    relative to ||H||, that every declared margin gives up for the backward
    error of eigvalsh and of a path evaluation.

    That it covers both is an assumption, not a bound: the evaluation
    error of a trig_random combination alone was measured at up to 1.39
    gamma_n ||H|| at dim 2, degree 16 (see the README's certificate
    section and ROADMAP item 1)."""
    return 4 * dim * 2.0**-53


@dataclass(frozen=True)
class Regularity:
    """A path's declared bound on how far H moves between two parameters.

    ``knots`` are the interior break points, increasing inside (0, 1);
    every sampling grid contains them, so each grid step lies in one piece.
    A declared path gives one rate per piece (``len(knots) + 1``), computed
    once when the path is built, and the step bound is rate * |dt|:

    * ``"piecewise-affine"``: H is affine on each piece with slope B_i, and
      the rate is ||B_i||; the bound is the exact step.
    * ``"lipschitz"``: the rate bounds ||H'|| on the piece.
    * ``"surrogate"`` (an opaque path, no rates): nothing is known between
      samples. Steps are the sampled 2-norms ||H(b) - H(a)||, which bound
      only the piecewise-linear interpolant of the samples.
    """

    soundness: str
    knots: tuple[float, ...] = ()
    rates: tuple[float, ...] = ()

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        rates = tuple(float(r) for r in self.rates)
        if self.soundness not in _SOUNDNESS:
            raise InputError(f"soundness must be one of {_SOUNDNESS}, got {self.soundness!r}")
        bounds = (0.0,) + knots + (1.0,)
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise InputError(f"knots must increase strictly inside (0, 1), got {knots}")
        pieces = len(knots) + 1 if self.declared else 0
        if len(rates) != pieces:
            raise InputError(f"{self.soundness} needs {pieces} rates, got {len(rates)}")
        if not all(np.isfinite(r) and r >= 0.0 for r in rates):
            raise InputError(f"rates must be finite and nonnegative, got {rates}")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rates", rates)

    @property
    def declared(self) -> bool:
        return self.soundness != "surrogate"

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
        if not (self.declared and other.declared):
            return Regularity("surrogate", knots)
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


#: the default: nothing declared, steps sampled, certificates "surrogate"
OPAQUE = Regularity("surrogate")


class OperatorPath:
    """A continuous family of Hermitian matrices over t in [0, 1].

    The evaluator takes a float64 array ``ts`` of shape (k,) and returns the
    k matrices H(ts[0]), ..., H(ts[k-1]) as one complex (k, n, n) stack (any
    array-like of that shape, such as a list of k matrices, will do).
    ``from_callable`` adapts a scalar function t -> matrix to this contract.
    Each stack is validated by one Hermitian check, the one
    ``HermitianMatrix.from_stack`` makes. ``regularity`` declares how far H
    moves between two parameters (see ``Regularity``); the default,
    ``OPAQUE``, declares nothing, and certificates of such a path are
    labelled "surrogate".

    Every method samples the path through one grid sampler. It keeps the
    eigenvalues of every sampled point, but a matrix only where one is
    asked for: the ends, the ends of the certified segments (which
    sf_pairsum projects), every sample of an opaque path (its steps are
    sampled norms) and the knots of a ``from_samples`` path.

    * ``matrix(t)`` and ``matrices(ts)`` return the validated matrices and
      keep them, evaluating the ones not yet kept by one evaluator call per
      chunk;
    * ``values(ts)`` returns eigenvalues, computing the ones not yet known
      by one batched ``eigvalsh`` per chunk (a stack of diagonal matrices
      takes its sorted diagonal, the same bits), from the kept matrices or
      from a fresh evaluation whose matrices are not kept;
    * ``stack(ts)`` copies the matrices into one fresh array, keeping none;
    * ``steps(ts)`` returns bounds on the operator-norm steps between
      consecutive grid points: the declared rate * |dt|, or for an opaque
      path the sampled norms, one stacked 2-norm of the differences per
      chunk, cached by (t_a, t_b);
    * ``eig(t)`` is the validated full decomposition the matrix at t caches.

    A method that needs a point's matrix asks for it before its
    eigenvalues, so no point is evaluated twice within one call. sf_phillips
    keeps the samples it evaluates for the segments it is still
    subdividing, since any of them may become a segment end, takes their
    eigenvalues from the same validated chunk, and drops them as the
    segments certify; a sample whose eigenvalues the path already holds is
    not evaluated again. sf_pairsum projects the segment ends in stacks.
    Stacks are cut into chunks of at most ``_CHUNK_BYTES`` bytes. The
    library's evaluators do per matrix the
    same floating-point operations, in the same order, as a one-point call,
    and a stacked LAPACK call runs the same routine on every matrix, so each
    value is bit-identical to a one-at-a-time evaluation and does not
    depend on which grids were sampled before. The certified subdivision is
    cached per ``SfOptions``, so sf_pairsum reuses the one sf_phillips found;
    the end gaps with their rounding slack, and each sampling grid, are
    computed once per path.

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
        regularity: Regularity = OPAQUE,
    ):
        require_int(dim, "dim", 1)
        if not isinstance(regularity, Regularity):
            raise InputError(f"regularity must be a Regularity, got {regularity!r}")
        self._evaluator = evaluator
        self._dim = dim
        self._regularity = regularity
        self._mats: dict[float, HermitianMatrix] = {}
        self._vals: dict[float, np.ndarray] = {}
        self._steps: dict[tuple[float, float], float] = {}
        self._segments: dict[SfOptions, tuple] = {}
        self._grids: dict[int, tuple[float, ...]] = {}
        self._ends: tuple[tuple[float, float], tuple[float, float]] | None = None

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

    def _sampled(self, ts: list[float]):
        """The distinct points ``ts`` chunk by chunk, each with its
        validated (k, n, n) stack: kept matrices from ``_mats``, the others
        from ``_evaluated``."""
        kept = [t for t in ts if t in self._mats]
        for chunk in _chunks(kept, _chunk_len(self._dim)):
            yield chunk, np.stack([self._mats[t].mat for t in chunk])
        yield from self._evaluated([t for t in ts if t not in self._mats])

    def _fill(self, ts: list[float]) -> None:
        """Evaluate and keep the distinct points ``ts`` not yet kept."""
        for chunk, stack in self._evaluated(ts):
            self._mats.update(zip(chunk, map(HermitianMatrix._of_valid, stack)))

    def _put_values(self, ts: list[float], stack: np.ndarray) -> None:
        w = _stack_eigvalsh(stack)
        w.setflags(write=False)
        self._vals.update(zip(ts, w))

    def _unknown(self, ts: Sequence[float]) -> list[float]:
        """The distinct points of ``ts`` whose eigenvalues the path does not
        hold yet."""
        return [t for t in dict.fromkeys(ts) if t not in self._vals]

    def _keep(self, ts: Sequence[float]) -> list[float]:
        """Keep the matrices of the points of ``ts`` whose eigenvalues are
        not known yet, with their eigenvalues taken from the same validated
        chunks (one sampling pass); returns the points newly kept. A point
        whose eigenvalues are known is not evaluated."""
        new = [t for t in self._unknown(ts) if t not in self._mats]
        for chunk, stack in self._evaluated(new):
            self._mats.update(zip(chunk, map(HermitianMatrix._of_valid, stack)))
            self._put_values(chunk, stack)
        return new

    def matrix(self, t: float) -> HermitianMatrix:
        t = float(t)
        m = self._mats.get(t)
        if m is None:
            self._fill([t])
            m = self._mats[t]
        return m

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        """The matrices at every t of ``ts``, in order, kept on the path."""
        ts = [float(t) for t in ts]
        todo = [t for t in dict.fromkeys(ts) if t not in self._mats]
        if todo:
            self._fill(todo)
        return [self._mats[t] for t in ts]

    def stack(self, ts: np.ndarray) -> np.ndarray:
        """The matrices at ``ts`` as one fresh (k, n, n) array: the sampler
        a path built on this one calls from its own evaluator. A repeated t
        is evaluated once, and no evaluated matrix is kept."""
        ts = np.asarray(ts, dtype=np.float64).tolist()
        out = np.empty((len(ts), self._dim, self._dim), dtype=np.complex128)
        first: dict[float, int] = {}
        for i, t in enumerate(ts):
            first.setdefault(t, i)
        for chunk, stack in self._sampled(list(first)):
            out[[first[t] for t in chunk]] = stack
        for i, t in enumerate(ts):
            if first[t] != i:
                out[i] = out[first[t]]
        return out

    def eig(self, t: float) -> EigenDecomposition:
        return self.matrix(t).eig

    def values(self, t):
        """Eigenvalues only (cheaper than a full, validated ``eig``): one
        array for a single t, a list of arrays for a sequence of t. Only the
        eigenvalues of a point not kept by ``matrix``/``matrices`` stay on
        the path, not its matrix.

        Always the eigvalsh route, even when a full decomposition is
        already cached: the two differ in final bits, and certificates
        must not depend on which methods ran earlier on the same path.
        """
        single = np.ndim(t) == 0
        ts = [float(t)] if single else [float(s) for s in t]
        todo = self._unknown(ts)
        if todo:
            for chunk, stack in self._sampled(todo):
                self._put_values(chunk, stack)
        return self._vals[ts[0]] if single else [self._vals[s] for s in ts]

    def steps(self, ts: Sequence[float]) -> list[float]:
        """Bounds on the operator-norm steps ||H(ts[k+1]) - H(ts[k])|| along
        a grid: the declared regularity's rate * |dt|, evaluating nothing.
        An opaque path's steps are the sampled norms themselves, cached by
        (t_a, t_b); the missing ones come from one stacked 2-norm of the
        differences per chunk."""
        if self._regularity.declared:
            return self._regularity.step_bounds(ts)
        pairs = [(float(a), float(b)) for a, b in zip(ts[:-1], ts[1:])]
        todo = list(dict.fromkeys(p for p in pairs if p not in self._steps))
        points = [t for pair in todo for t in pair]
        mats = dict(zip(points, self.matrices(points)))
        # one stacked SVD per chunk: values bit-identical to op_norm calls
        for chunk in _chunks(todo, _chunk_len(self._dim)):
            d = np.empty((len(chunk), self._dim, self._dim), dtype=np.complex128)
            for i, (a, b) in enumerate(chunk):
                np.subtract(mats[b].mat, mats[a].mat, out=d[i])
            self._steps.update(zip(chunk, np.linalg.norm(d, 2, axis=(1, 2)).tolist()))
        return [self._steps[p] for p in pairs]

    def nonneg_count(self, t: float) -> int:
        return int(np.sum(self.values(t) >= 0.0))

    def endpoint_gaps(self) -> tuple[float, float]:
        """min |spec| at t = 0 and t = 1."""
        return self._endpoints()[0]

    def _endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The end gaps min |spec| at t = 0 and 1, and the same gaps less
        their rounding slack, measured once per path."""
        if self._ends is None:
            self._ends = self._measure_ends()
        return self._ends

    def _measure_ends(self) -> tuple[tuple[float, float], tuple[float, float]]:
        # keeps the end matrices it evaluates: sf_pairsum's outer junctions
        # and path_concat's endpoint check read them
        self._keep([0.0, 1.0])
        mags = np.abs(np.array(self.values([0.0, 1.0])))
        gaps = (float(np.min(mags[0])), float(np.min(mags[1])))
        clear = np.array(gaps) - _rounding_slack(self, mags)
        return gaps, tuple(clear.tolist())

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
        last = len(mats) - 1

        def evaluate(ts: np.ndarray) -> np.ndarray:
            x = ts * last
            i = np.minimum(np.floor(x).astype(np.intp), last - 1)
            frac = (x - i)[:, None, None]
            return (1.0 - frac) * arr[i] + frac * arr[i + 1]

        rates = last * np.linalg.norm(np.diff(arr, axis=0), 2, axis=(1, 2))
        knots = [i / last for i in range(1, last)]
        path = cls(evaluate, dim, regularity=piecewise_affine(knots, rates))
        for i, m in enumerate(mats):
            path._mats[i / last] = m
        return path

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], HermitianMatrix], dim: int, *, regularity: Regularity = OPAQUE
    ) -> "OperatorPath":
        """A path from a scalar function t -> matrix, called once per t."""

        def evaluate(ts: np.ndarray) -> list:
            mats = [fn(t) for t in ts.tolist()]
            for m in mats:
                if np.shape(m) != (dim, dim):
                    raise _dim_error(HermitianMatrix(m).dim, dim)
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
    declared "piecewise-affine" or "lipschitz" regularity, or "surrogate"
    for an opaque path, whose margins hold only for the piecewise-linear
    interpolant of its samples.
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
    """gamma_n * ||H(t_k)|| per sample of a declared path (0 for an opaque
    one), from the sampled magnitudes ``mags``: eigvalsh and the evaluator
    are backward stable only to about that size."""
    if not path.regularity.declared:
        return 0.0
    return _gamma(path.dim) * np.max(mags, axis=-1)


def _tolerances(path: OperatorPath, steps: Sequence[float], mags: np.ndarray) -> np.ndarray:
    """Per grid sample, the tolerance tau_k its distances to the spectrum
    must beat so that no eigenvalue can reach them between samples.

    Each takes its share (``_step_share``) of the larger step bound to a
    neighbour; declared paths add the rounding slack.
    """
    return _neighbour_steps(steps) * _step_share(path) + _rounding_slack(path, mags)


def _step_share(path: OperatorPath) -> float:
    """The share of a step bound that a sample's distances must beat: all
    of it on affine and opaque paths, half on a Lipschitz path, since
    every t lies within half a spacing of a sample."""
    return 0.5 if path.regularity.soundness == "lipschitz" else 1.0


def _check_endpoints(path: OperatorPath, opts: SfOptions) -> tuple[float, float]:
    """The end gaps, once each end's gap less its rounding slack is checked
    against ``opts.endpoint_gap`` (on every call; the path computes the
    gaps once)."""
    (g0, g1), clear = path._endpoints()
    if min(clear) <= opts.endpoint_gap:
        raise EndpointError(
            f"path endpoints must be invertible: min |spec| = ({g0:.3e}, {g1:.3e}), "
            f"convention requires > {opts.endpoint_gap:.0e}"
        )
    return g0, g1


def _grid(path: OperatorPath, samples: int) -> tuple[float, ...]:
    """``samples`` uniform points of [0, 1] and the path's knots, built
    once per path and sample count."""
    grid = path._grids.get(samples)
    if grid is None:
        points = set(np.linspace(0.0, 1.0, samples).tolist()) | set(path.regularity.knots)
        grid = path._grids[samples] = tuple(sorted(points))
    return grid


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
    pool = np.unique(np.concatenate(([0.0], mags.ravel())))
    lows = pool
    highs = np.append(pool[1:], pool[-1] + top_width)
    widths = highs - lows
    # widest gap wins; argmax ties resolve toward the smaller (local) level
    best = int(np.argmax(widths))
    eps = float((lows[best] + highs[best]) / 2.0)
    dist = np.min(np.abs(mags - eps), axis=1)
    return eps, float(np.min(dist - _tolerances(path, path.steps(ts), mags)))


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
        # declared path drops a segment's inner ones once it certifies (an
        # opaque path's steps keep every sample).
        new = path._keep(ts)
        if path.regularity.declared:
            spare.update(new)
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
        visit(_grid(path, opts.samples), 0)
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
    gaps = _check_endpoints(path, opts)
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
    all before any pair is counted, so the first failing junction raises
    what a junction-by-junction loop raises; the pairs of consecutive
    junctions are counted in stacks (``pair_index`` is the one-pair case).
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
    _check_endpoints(path, opts)
    return path.nonneg_count(1.0) - path.nonneg_count(0.0)


def _clearance(path: OperatorPath, vals) -> np.ndarray:
    """Per sample of a declared path, min |eigenvalue| less twice the
    rounding slack. When it exceeds a sample's tolerance, no eigenvalue can
    reach zero within that tolerance, and the count ``eigvalsh`` returns
    there is the sample's: one slack covers the sample's own computed
    eigenvalues, the other those computed at the point reached."""
    mags = np.abs(np.asarray(vals))
    return np.min(mags, axis=-1) - 2.0 * _rounding_slack(path, mags)


def _reach_bound(
    path: OperatorPath, ts: list[float], steps: list[float], idx: list[int], vals
) -> float:
    """An upper bound on the oracle's reach, the largest sample tolerance
    over the grid ``ts``, from the eigenvalues ``vals`` at the grid indices
    ``idx`` alone (increasing, both ends among them); the reach itself when
    ``idx`` holds every index.

    The tolerance of sample k needs ||H(t_k)||, computed as its largest
    |eigenvalue|. Between two evaluated indices i < j of a declared path it
    is bounded by min(||H(t_i)||, ||H(t_j)||) plus the declared step bound
    of (t_i, t_j), times (1 + gamma_n)^2: one factor for the rounding of
    the norm computed at the end, one for that of the norm computed at t_k."""
    tops = np.max(np.abs(np.asarray(vals)), axis=-1)
    norms = tops
    if len(idx) < len(ts):
        moves = np.asarray(path.regularity.step_bounds([ts[k] for k in idx]))
        inside = (np.minimum(tops[:-1], tops[1:]) + moves) * (1.0 + _gamma(path.dim)) ** 2
        norms = np.append(np.repeat(inside, np.diff(idx)), 0.0)
        norms[idx] = tops
    return float(np.max(_tolerances(path, steps, norms[:, None])))


def _ledger(
    path: OperatorPath, opts: SfOptions, ts: list[float], steps: list[float], gap: float
) -> tuple[dict[int, np.ndarray], list[int]]:
    """The oracle's eigenvalues and nonnegative counts on the grid ``ts``.

    The seeds are the points of the ``opts.samples`` grid on a declared
    path (the ends, the knots and the points sf_phillips has cached), and
    every grid point on an opaque one. The aliasing guard, the reach
    (``_reach_bound``) below half the endpoint gap ``gap``, is checked on
    the seeds; if it fails, every grid point is evaluated and the exact
    guard decides. Between two evaluated indices i < j, every index inside
    takes the count of i when the clearance (``_clearance``) at both ends
    exceeds the share (``_step_share``) of the declared step bound of
    (ts[i], ts[j]); otherwise ts[(i + j) // 2] is evaluated and both halves
    are tried again, one ``values`` call per level. So counts change only
    between adjacent evaluated indices, each with the whole grid's values.
    """
    seeds = set(_grid(path, opts.samples)) if path.regularity.declared else set(ts)
    idx = [k for k, t in enumerate(ts) if t in seeds]
    reach = _reach_bound(path, ts, steps, idx, path.values([ts[k] for k in idx]))
    if reach >= 0.5 * gap and len(idx) < len(ts):
        idx = list(range(len(ts)))
        reach = _reach_bound(path, ts, steps, idx, path.values(ts))
    if reach >= 0.5 * gap:
        raise SamplingError(
            f"oracle sample tolerance {reach:.3e} is not below half the endpoint gap "
            f"{gap:.3e}; increase oracle_samples"
        )
    vals = dict(zip(idx, path.values([ts[k] for k in idx])))
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
        for (i, j), tol in zip(pending, (np.array(bounds[::2]) * share).tolist()):
            if clear[i] > tol and clear[j] > tol:
                if counts[i] != counts[j]:
                    raise ConsistencyFault(
                        f"nonnegative count changes from {counts[i]} to {counts[j]} on "
                        f"[{ts[i]!r}, {ts[j]!r}], where the declared regularity forbids it"
                    )
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
    by their nonnegative-eigenvalue counts; every nonzero jump must be
    explained by eigenvalues within one step bound of zero on both sides,
    and every sample's tolerance must stay below half the endpoint gap
    (otherwise the sampling is aliased and a SamplingError asks for more
    samples). The counts come from one ledger (``_ledger``): it evaluates
    the grid only where a count can change, every point on an opaque path
    or when the guard's bound from the seeds fails, and gives the report
    and error texts of the whole grid.
    """
    g0, g1 = _check_endpoints(path, opts)
    ts = _grid(path, opts.oracle_samples)
    steps = path.steps(ts)
    vals, counts = _ledger(path, opts, ts, steps, min(g0, g1))
    ups = downs = 0
    for k in np.flatnonzero(np.diff(counts)).tolist():
        jump = counts[k + 1] - counts[k]
        # slack covers the boundary case |eigenvalue| == step up to rounding
        step = steps[k] * (1.0 + 1e-9) + 1e-12
        movers_l = int(np.sum(np.abs(vals[k]) <= step))
        movers_r = int(np.sum(np.abs(vals[k + 1]) <= step))
        if abs(jump) > min(movers_l, movers_r):
            raise SamplingError(
                f"sign-count jump {jump} cannot be explained by eigenvalues "
                f"within one step ({step:.3e}) of zero; aliasing suspected",
                window=(ts[k], ts[k + 1]),
            )
        if jump > 0:
            ups += jump
        else:
            downs -= jump
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
    """
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
    them, so a part's sampled points are not sampled again. An evaluator
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
    ``certified`` plus the worst margin and the ``soundness`` it rests on;
    an opaque path is never ``certified``, whatever its margin. It does not
    raise on failure so sweep drivers can count and refine.
    """
    ts = _grid(path, opts.samples)
    steps = path.steps(ts)
    mags = np.abs(np.array(path.values(ts)))
    gaps = np.min(mags, axis=1)
    worst = float(np.min(gaps - _tolerances(path, steps, mags)))
    return {
        "certified": bool(worst > 0.0) and path.regularity.declared,
        "margin": worst,
        "min_gap": float(np.min(gaps)),
        "max_step": float(max(steps) if steps else 0.0),
        "samples": len(ts),
        "soundness": path.regularity.soundness,
    }
