"""Spectral flow of paths of Hermitian matrices, by four methods.

A path is a map t in [0, 1] -> Hermitian matrix, given either by uniform
samples (piecewise-linear ground truth) or by a closed-form evaluator
measured through a sampled surrogate. Endpoints must be invertible
(min |spec| > 1e-8 by convention), so the flow is an integer.

Methods
-------
* sf_phillips:        certified subdivision; per segment an eigenvalue-free
                      level eps_j is chosen in the largest gap of the sampled
                      magnitude spectrum and Weyl bounds certify that no
                      eigenvalue meets +-eps_j inside the segment; the flow
                      is the telescoped count of eigenvalues in [0, eps_j).
* sf_pairsum:         the same subdivision; the flow is the sum over its
                      segments of the pair indices of the nonnegative
                      spectral projections at the segment ends.
* sf_endpoints:       rank difference of the nonnegative spectral projections
                      at t = 1 and t = 0 (finite-dimension shortcut).
* sf_crossing_oracle: dense sampling with signed sign-count bookkeeping and
                      an aliasing guard; deliberately naive, used as oracle.

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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CertificationError,
    ConsistencyFault,
    DimensionMismatchError,
    EndpointError,
    FinitenessError,
    InputError,
    SamplingError,
)
from .matcore import EigenDecomposition, HermitianMatrix, as_hermitian, eigh, op_norm
from .projpair import Projection, pair_index

__all__ = [
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
        if not isinstance(self.samples, int) or self.samples < 2:
            raise InputError(f"samples must be an int >= 2, got {self.samples!r}")
        if not isinstance(self.oracle_samples, int) or self.oracle_samples < 2:
            raise InputError(
                f"oracle_samples must be an int >= 2, got {self.oracle_samples!r}"
            )
        if not isinstance(self.max_depth, int) or self.max_depth < 1:
            raise InputError(f"max_depth must be an int >= 1, got {self.max_depth!r}")
        if not (np.isfinite(self.endpoint_gap) and self.endpoint_gap > 0):
            raise InputError("endpoint_gap must be positive and finite")


_DEFAULT_OPTS = SfOptions()

#: byte budget of one stacked LAPACK call: stacks of complex128 matrices
#: are cut into chunks of ``_chunk_len(dim)`` matrices
_CHUNK_BYTES = 1 << 18


def _chunk_len(dim: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _dim_error(found: int, expected: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"path evaluator returned dim {found}, expected {expected}")


class OperatorPath:
    """A continuous family of Hermitian matrices over t in [0, 1].

    The evaluator takes a float64 array ``ts`` of shape (k,) and returns the
    k matrices H(ts[0]), ..., H(ts[k-1]) as one complex (k, n, n) stack (any
    array-like of that shape, such as a list of k matrices, will do).
    ``from_callable`` adapts a scalar function t -> matrix to this contract.
    Each stack is validated by one ``HermitianMatrix.from_stack`` check and
    cached per t.

    Every method samples the path through one grid sampler:

    * ``matrix(t)`` and ``matrices(ts)`` return the validated matrices,
      evaluating the ones not yet cached by one evaluator call per chunk;
    * ``values(ts)`` returns eigenvalues, computing the ones not yet cached
      by one batched ``eigvalsh`` over the stacked matrices;
    * ``steps(ts)`` returns the operator-norm steps between consecutive
      grid points, cached by (t_a, t_b); the missing ones come from one
      stacked 2-norm of the differences;
    * ``eig(t)`` is the validated full decomposition, cached per t.

    Stacks are cut into chunks of at most ``_CHUNK_BYTES`` bytes, so memory
    does not grow with the grid. The library's evaluators do per matrix the
    same floating-point operations, in the same order, as a one-point call,
    and a stacked LAPACK call runs the same routine on every matrix, so each
    value is bit-identical to a one-at-a-time evaluation and does not
    depend on which grids were sampled before. The certified subdivision is
    cached per ``SfOptions``, so sf_pairsum reuses the one sf_phillips found.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        dim: int,
        *,
        kind: str = "closed-form",
        knots: Sequence[float] = (),
        meta: dict | None = None,
    ):
        if kind not in ("sampled", "closed-form"):
            raise InputError(f"kind must be 'sampled' or 'closed-form', got {kind!r}")
        if not isinstance(dim, int) or dim < 1:
            raise InputError(f"dim must be a positive int, got {dim!r}")
        self._evaluator = evaluator
        self._dim = dim
        self._kind = kind
        self._knots = tuple(sorted(set(float(k) for k in knots)))
        for k in self._knots:
            if not 0.0 <= k <= 1.0:
                raise InputError(f"knot {k!r} outside [0, 1]")
        self.meta = dict(meta or {})
        self._mats: dict[float, HermitianMatrix] = {}
        self._eigs: dict[float, EigenDecomposition] = {}
        self._vals: dict[float, np.ndarray] = {}
        self._steps: dict[tuple[float, float], float] = {}
        self._segments: dict[SfOptions, tuple] = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def knots(self) -> tuple[float, ...]:
        """Interior break points where a sampled path is non-smooth."""
        return self._knots

    def _fill(self, ts: list[float]) -> None:
        """Evaluate and cache the distinct, uncached points ``ts``."""
        for t in ts:
            if not 0.0 <= t <= 1.0:
                raise InputError(f"path parameter {t!r} outside [0, 1]")
        for chunk in _chunks(ts, _chunk_len(self._dim)):
            mats = HermitianMatrix.from_stack(self._evaluator(np.array(chunk)))
            if len(mats) != len(chunk):
                raise InputError(
                    f"path evaluator returned {len(mats)} matrices for {len(chunk)} points"
                )
            if mats and mats[0].dim != self._dim:
                raise _dim_error(mats[0].dim, self._dim)
            self._mats.update(zip(chunk, mats))

    def matrix(self, t: float) -> HermitianMatrix:
        t = float(t)
        m = self._mats.get(t)
        if m is None:
            self._fill([t])
            m = self._mats[t]
        return m

    def matrices(self, ts: Sequence[float]) -> list[HermitianMatrix]:
        """The matrices at every t of ``ts``, in order."""
        ts = [float(t) for t in ts]
        self._fill([t for t in dict.fromkeys(ts) if t not in self._mats])
        return [self._mats[t] for t in ts]

    def stack(self, ts: np.ndarray) -> np.ndarray:
        """The matrices at ``ts`` as one fresh (k, n, n) array: the sampler
        a path built on this one calls from its own evaluator."""
        mats = self.matrices(np.asarray(ts, dtype=np.float64).tolist())
        out = np.empty((len(mats), self._dim, self._dim), dtype=np.complex128)
        for i, m in enumerate(mats):
            out[i] = m.mat
        return out

    def eig(self, t: float) -> EigenDecomposition:
        t = float(t)
        ed = self._eigs.get(t)
        if ed is None:
            ed = eigh(self.matrix(t))
            self._eigs[t] = ed
        return ed

    def values(self, t):
        """Eigenvalues only (cheaper than a full, validated ``eig``): one
        array for a single t, a list of arrays for a sequence of t.

        Always the eigvalsh route, even when a full decomposition is
        already cached: the two differ in final bits, and certificates
        must not depend on which methods ran earlier on the same path.
        """
        single = np.ndim(t) == 0
        ts = [float(t)] if single else [float(s) for s in t]
        todo = list(dict.fromkeys(s for s in ts if s not in self._vals))
        for chunk in _chunks(todo, _chunk_len(self._dim)):
            w = np.linalg.eigvalsh(self.stack(chunk))
            w.setflags(write=False)
            self._vals.update(zip(chunk, w))
        return self._vals[ts[0]] if single else [self._vals[s] for s in ts]

    def steps(self, ts: Sequence[float]) -> list[float]:
        """Operator-norm steps ||H(ts[k+1]) - H(ts[k])|| along a grid."""
        pairs = [(float(a), float(b)) for a, b in zip(ts[:-1], ts[1:])]
        todo = list(dict.fromkeys(p for p in pairs if p not in self._steps))
        points = [t for pair in todo for t in pair]
        mats = dict(zip(points, self.matrices(points)))
        # one stacked SVD per chunk, with op_norm's finiteness check: values
        # bit-identical to separate op_norm calls
        for chunk in _chunks(todo, _chunk_len(self._dim)):
            d = np.empty((len(chunk), self._dim, self._dim), dtype=np.complex128)
            for i, (a, b) in enumerate(chunk):
                np.subtract(mats[b].mat, mats[a].mat, out=d[i])
            if not np.all(np.isfinite(d)):
                raise FinitenessError("matrix entries must be finite (no NaN/Inf)")
            self._steps.update(zip(chunk, np.linalg.norm(d, 2, axis=(1, 2)).tolist()))
        return [self._steps[p] for p in pairs]

    def nonneg_count(self, t: float) -> int:
        return int(np.sum(self.values(t) >= 0.0))

    def endpoint_gaps(self) -> tuple[float, float]:
        return (
            float(np.min(np.abs(self.values(0.0)))),
            float(np.min(np.abs(self.values(1.0)))),
        )

    @classmethod
    def from_samples(cls, matrices: Sequence, *, meta: dict | None = None) -> "OperatorPath":
        """Uniformly spaced samples; the path is their linear interpolant."""
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

        knots = [i / last for i in range(1, last)]
        path = cls(evaluate, dim, kind="sampled", knots=knots, meta=meta)
        for i, m in enumerate(mats):
            path._mats[i / last] = m
        return path

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[float], HermitianMatrix],
        dim: int,
        *,
        knots: Sequence[float] = (),
        meta: dict | None = None,
    ) -> "OperatorPath":
        """A path from a scalar function t -> matrix, called once per t."""

        def evaluate(ts: np.ndarray) -> list:
            mats = [fn(t) for t in ts.tolist()]
            for m in mats:
                if np.shape(m) != (dim, dim):
                    raise _dim_error(HermitianMatrix(m).dim, dim)
            return mats

        return cls(evaluate, dim, kind="closed-form", knots=knots, meta=meta)

    def resample(self, samples: int) -> "OperatorPath":
        """A sampled snapshot of this path on a uniform grid."""
        if not isinstance(samples, int) or samples < 2:
            raise InputError(f"samples must be an int >= 2, got {samples!r}")
        ts = np.linspace(0.0, 1.0, samples)
        return OperatorPath.from_samples(self.matrices(ts), meta=dict(self.meta))

    def __repr__(self) -> str:
        return f"OperatorPath(kind={self._kind!r}, dim={self._dim})"


@dataclass(frozen=True)
class SfSegment:
    """One certified subdivision segment.

    ``eps`` is the level avoided by the spectrum throughout the segment;
    ``weyl_margin`` is the worst certified slack: the distance of +-eps to
    the sampled spectrum minus the neighboring operator-norm step. sf_pairsum
    shares sf_phillips's segments and so their margins; the margin is what
    keeps the rank above eps constant on the segment.
    """

    t_left: float
    t_right: float
    eps: float
    rank_left: int
    rank_right: int
    weyl_margin: float


@dataclass(frozen=True)
class SfCertificate:
    """A spectral-flow value plus the subdivision evidence behind it."""

    method: str
    total: int
    segments: tuple[SfSegment, ...]
    endpoint_gaps: tuple[float, float]
    opts: SfOptions = field(default_factory=SfOptions)

    def __post_init__(self):
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


def _check_endpoints(path: OperatorPath, opts: SfOptions) -> tuple[float, float]:
    g0, g1 = path.endpoint_gaps()
    if g0 <= opts.endpoint_gap or g1 <= opts.endpoint_gap:
        raise EndpointError(
            f"path endpoints must be invertible: min |spec| = ({g0:.3e}, {g1:.3e}), "
            f"convention requires > {opts.endpoint_gap:.0e}"
        )
    return g0, g1


def _initial_grid(path: OperatorPath, samples: int) -> list[float]:
    ts = set(np.linspace(0.0, 1.0, samples).tolist())
    ts.update(path.knots)
    ts.update((0.0, 1.0))
    return sorted(ts)


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
    steps = path.steps(ts)
    mags = np.abs(np.array(path.values(ts)))
    pool = np.unique(np.concatenate(([0.0], mags.ravel())))
    lows = pool
    highs = np.append(pool[1:], pool[-1] + top_width)
    widths = highs - lows
    # widest gap wins; argmax ties resolve toward the smaller (local) level
    best = int(np.argmax(widths))
    eps = float((lows[best] + highs[best]) / 2.0)
    dist = np.min(np.abs(mags - eps), axis=1)
    return eps, float(np.min(dist - _neighbour_steps(steps)))


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

    def visit(ts: list[float], depth: int) -> None:
        eps, margin = _segment_level_and_margin(path, ts, top_width)
        if margin > 0.0:
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

    visit(_initial_grid(path, opts.samples), 0)
    path._segments[opts] = tuple(out)
    return path._segments[opts]


def sf_phillips(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> SfCertificate:
    """Certified-subdivision spectral flow (the defining formula).

    Per segment j the count of eigenvalues in [0, eps_j) is taken at both
    ends; the sum of the differences is the flow. Certification: at every
    sample of segment j the distance of +-eps_j to the spectrum exceeds the
    operator-norm step to the neighboring samples (a Weyl bound), so no
    eigenvalue can meet +-eps_j anywhere in the segment.
    """
    gaps = _check_endpoints(path, opts)
    segs = []
    for ts, eps, margin in _certified_segments(path, opts):
        segs.append(
            SfSegment(
                t_left=ts[0],
                t_right=ts[-1],
                eps=eps,
                rank_left=_rank_below(path, ts[0], eps),
                rank_right=_rank_below(path, ts[-1], eps),
                weyl_margin=margin,
            )
        )
    total = sum(s.rank_right - s.rank_left for s in segs)
    return SfCertificate(
        method="phillips",
        total=total,
        segments=tuple(segs),
        endpoint_gaps=gaps,
        opts=opts,
    )


def sf_pairsum(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> SfCertificate:
    """Spectral flow as a sum of projection-pair indices over a subdivision.

    Uses the sf_phillips segments: on segment j no eigenvalue meets +-eps_j
    (its Weyl margin certifies that), so the rank of the spectral projection
    above eps_j is constant there, and the segment contributes
    ind(P(t_j), P(t_{j-1})) of the nonnegative spectral projections at its
    ends. Each distinct junction's projection is validated once.
    """
    gaps = _check_endpoints(path, opts)
    segments = _certified_segments(path, opts)
    junctions = [segments[0][0][0]] + [ts[-1] for ts, _eps, _margin in segments]
    projs = {t: Projection(_nonneg_matrix(path, t)) for t in junctions}
    segs = []
    total = 0
    for ts, eps, margin in segments:
        t0, t1 = ts[0], ts[-1]
        total += pair_index(projs[t1], projs[t0]).value
        segs.append(
            SfSegment(
                t_left=t0,
                t_right=t1,
                eps=eps,
                rank_left=path.nonneg_count(t0),
                rank_right=path.nonneg_count(t1),
                weyl_margin=margin,
            )
        )
    return SfCertificate(
        method="pairsum",
        total=total,
        segments=tuple(segs),
        endpoint_gaps=gaps,
        opts=opts,
    )


def _nonneg_matrix(path: OperatorPath, t: float) -> np.ndarray:
    ed = path.eig(t)
    b = ed.vectors[:, ed.values >= 0.0]
    return b @ b.conj().T


def sf_endpoints(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> int:
    """Rank difference of the nonnegative spectral projections at the ends."""
    _check_endpoints(path, opts)
    return path.nonneg_count(1.0) - path.nonneg_count(0.0)


def crossing_oracle_report(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Dense signed tally of eigenvalue sign changes (the brute-force oracle).

    Consecutive samples are compared by their nonnegative-eigenvalue counts;
    every nonzero jump must be explained by eigenvalues within one
    operator-norm step of zero on both sides (otherwise the sampling is
    aliased and a SamplingError asks for more samples).
    """
    g0, g1 = _check_endpoints(path, opts)
    ts = sorted(set(np.linspace(0.0, 1.0, opts.oracle_samples).tolist()) | set(path.knots))
    vals = path.values(ts)
    counts = np.count_nonzero(np.array(vals) >= 0.0, axis=1).tolist()
    steps = path.steps(ts)
    max_step = max(steps) if steps else 0.0
    if max_step >= 0.5 * min(g0, g1):
        raise SamplingError(
            f"oracle step {max_step:.3e} is not below half the endpoint gap "
            f"{min(g0, g1):.3e}; increase oracle_samples"
        )
    ups = 0
    downs = 0
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
        "max_step": max_step,
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
    mismatch = op_norm(f.matrix(1.0).mat - g.matrix(0.0).mat)
    scale = 1.0 + max(f.matrix(1.0).norm, g.matrix(0.0).norm)
    if mismatch > 1e-10 * scale:
        raise EndpointError(
            f"concatenation endpoints differ by {mismatch:.3e} (limit {1e-10 * scale:.3e})"
        )

    def evaluate(ts: np.ndarray) -> np.ndarray:
        first = ts <= 0.5
        out = np.empty((ts.size, f.dim, f.dim), dtype=np.complex128)
        out[first] = f.stack(2.0 * ts[first])
        out[~first] = g.stack(2.0 * ts[~first] - 1.0)
        return out

    knots = [k / 2.0 for k in f.knots] + [0.5] + [0.5 + k / 2.0 for k in g.knots]
    return OperatorPath(
        evaluate,
        f.dim,
        kind="closed-form",
        knots=knots,
        meta={"concat": [f.meta, g.meta]},
    )


def path_reverse(f: OperatorPath) -> OperatorPath:
    """Time reversal t -> f(1 - t); negates the spectral flow."""

    def evaluate(ts: np.ndarray) -> np.ndarray:
        return f.stack(1.0 - ts)

    knots = [1.0 - k for k in f.knots]
    return OperatorPath(
        evaluate, f.dim, kind="closed-form", knots=knots, meta={"reverse": f.meta}
    )


def certify_invertible(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Weyl-certify that a path stays invertible for every t in [0, 1].

    At every grid sample the spectral gap around 0 must exceed the
    operator-norm step to the neighboring samples. Returns a report with
    ``certified`` plus the worst margin; it does not raise on failure so
    sweep drivers can count and refine.
    """
    ts = _initial_grid(path, opts.samples)
    steps = path.steps(ts)
    gaps = np.min(np.abs(np.array(path.values(ts))), axis=1)
    worst = float(np.min(gaps - _neighbour_steps(steps)))
    return {
        "certified": bool(worst > 0.0),
        "margin": worst,
        "min_gap": float(np.min(gaps)),
        "max_step": float(max(steps) if steps else 0.0),
        "samples": len(ts),
    }
