"""Spectral flow of paths of Hermitian matrices, by four methods.

The path, its declared regularity and its composites are ``paths``'s;
the methods read a path through its public interface only.

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
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CertificationError,
    ConsistencyFault,
    EndpointError,
    InputError,
    SamplingError,
    require_int,
)
from .matcore import _chunk_len, _chunks, _nonneg_projections
from .paths import (  # the path names stay importable from here
    _ENDPOINT_GAP, _SOUNDNESS, OperatorPath, Regularity, _gamma, lipschitz, path_concat,
    path_reverse, piecewise_affine,
)
from .projpair import _pair_indices

__all__ = [
    "SfOptions", "SfSegment", "SfCertificate", "sf_phillips", "sf_pairsum", "sf_endpoints",
    "sf_crossing_oracle", "crossing_oracle_report", "sf_all_methods", "certify_invertible",
]


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


def _tolerances(path: OperatorPath, steps: np.ndarray, mags: np.ndarray) -> np.ndarray:
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
    """The end gaps, once the invertibility rule holds at both ends
    (checked on every call; the path measures the gaps once)."""
    refusal = path.endpoint_refusal()
    if refusal is not None:
        raise EndpointError(refusal)
    return path.endpoint_gaps()


def _neighbour_steps(steps: np.ndarray) -> np.ndarray:
    """Per grid point, the larger of the steps to its neighbours."""
    padded = np.concatenate(([0.0], steps, [0.0]))
    return np.maximum(padded[:-1], padded[1:])


def _segment_level_and_margin(
    path: OperatorPath, ts: Sequence[float], steps: np.ndarray, top_width: float
) -> tuple[float, float]:
    """Pick eps in the widest gap of the sampled magnitude spectrum and
    return (eps, worst Weyl margin), given the step bounds ``steps`` along
    ``ts``; margin <= 0 means not certified.

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
    return eps, float(np.min(dist - _tolerances(path, steps, mags)))


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
    (sample grid, eps, margin) triples covering [0, 1] in order. The
    certificates hold the result on the path per ``opts``, so sf_pairsum
    reuses the one sf_phillips found."""
    out: list[tuple[list[float], float, float]] = []
    # The above-the-spectrum candidate level gets half the smaller endpoint
    # spectral gap as its headroom, so certifying "eps above everything the
    # segment shows" demands steps finer than the path's invertibility scale.
    top_width = 0.5 * min(path.endpoint_gaps())

    spare: set[float] = set()  # samples kept only in case they become junctions

    def visit(ts: Sequence[float], depth: int, steps: np.ndarray | None = None) -> None:
        # Any sample may become a junction, whose projection sf_pairsum
        # takes, if its segment splits deep enough. So a sample evaluated
        # here is kept, its eigenvalues taken from the same chunk, and a
        # segment's inner ones are dropped once it certifies.
        spare.update(path.keep(ts))
        if steps is None:
            steps = path.regularity.step_bounds(ts)
        eps, margin = _segment_level_and_margin(path, ts, steps, top_width)
        if margin > 0.0:
            done = spare.intersection(ts[1:-1])
            spare.difference_update(done)
            path.drop(done)
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
        grid, steps = path.grid(opts.samples)  # the top segment's steps are the grid's
        visit(grid, 0, steps)
    except Exception:
        # no certificate will read them: the path keeps what it held before
        path.drop(spare)
        raise
    return tuple(out)


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
    certified = path.memo(("segments", opts), partial(_certified_segments, path, opts))
    segs = tuple(
        SfSegment(
            t_left=ts[0],
            t_right=ts[-1],
            eps=eps,
            rank_left=rank(ts[0], eps),
            rank_right=rank(ts[-1], eps),
            weyl_margin=margin,
        )
        for ts, eps, margin in certified
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
    path: OperatorPath, ts: list[float], steps: np.ndarray, idx: list[int], vals
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
        moves = path.regularity.step_bounds([ts[k] for k in idx])
        inside = (np.minimum(tops[:-1], tops[1:]) + moves) * (1.0 + _gamma(path.dim)) ** 2
        norms = np.append(np.repeat(inside, np.diff(idx)), 0.0)
        norms[idx] = tops
    return _tolerances(path, steps, norms[:, None])


def _guard(
    path: OperatorPath, opts: SfOptions, ts: list[float], steps: np.ndarray, gap: float
) -> tuple[list[int], list[np.ndarray]]:
    """The oracle's aliasing guard on the ``opts.oracle_samples`` grid
    ``ts``: the reach, the largest sample tolerance, must stay below half
    the endpoint gap ``gap``. Returns the evaluated grid indices and their
    eigenvalues if it does, and raises the oracle's ``SamplingError`` if
    not.

    It evaluates index sets of the grid in turn: the two ends (held by the
    end check), only when the step floor, the share (``_step_share``) of
    the largest step, reaches half the gap; the seeds, the points of the
    ``opts.samples`` grid, found once per path and pair of grids; the whole
    grid. Each set brackets the reach. The upper end is the largest per-sample
    bound (``_reach_bound``); the lower end is the larger of the step floor
    (every tolerance adds a nonnegative slack to its share of a neighbour
    step) and the exact tolerance of every evaluated sample. The guard
    passes when the upper end is below half the gap, and refuses when the
    lower end is not and both ends print alike with ``.3e``, which rounds
    correctly, so monotonically: the reach prints the same digits. On the
    whole grid the two ends are equal, so the last set always decides.
    """
    floor = float(np.max(steps)) * _step_share(path)

    def find_seeds() -> list[int]:
        points = set(path.grid(opts.samples)[0])
        return [k for k, t in enumerate(ts) if t in points]

    seeds = path.memo(("seeds", opts.samples, opts.oracle_samples), find_seeds)
    sets = [[0, len(ts) - 1]] if floor >= 0.5 * gap else []
    sets += [seeds, list(range(len(ts)))]
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
    ts, steps = path.grid(opts.oracle_samples)
    if float(np.max(steps)) * _step_share(path) >= 0.5 * gap:
        _guard(path, opts, ts, steps, gap)


def _false_declaration(c0: int, c1: int, t0: float, t1: float, bound: float) -> InputError:
    """The refusal of a count change that the declared step bound forbids."""
    return InputError(
        f"nonnegative count changes from {c0} to {c1} on [{t0!r}, {t1!r}], where the "
        f"declared step bound {bound:.3e} forbids it: the path moves faster than it declares"
    )


def _ledger(
    path: OperatorPath, opts: SfOptions, ts: list[float], steps: np.ndarray, gap: float
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

    ``up_crossings`` and ``down_crossings`` count the grid's sign changes,
    lower bounds on the path's: the guard tests the largest sample tolerance
    against half the end gap, and nothing between adjacent grid points.
    """
    g0, g1 = _check_endpoints(path)
    ts, steps = path.grid(opts.oracle_samples)
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
        "max_step": float(np.max(steps)),
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


def certify_invertible(path: OperatorPath, opts: SfOptions = _DEFAULT_OPTS) -> dict:
    """Weyl-certify that a path stays invertible for every t in [0, 1].

    At every grid sample the spectral gap around 0 must exceed the
    sample's tolerance, as in sf_phillips. Returns a report with
    ``certified`` plus the worst margin and the ``soundness`` it rests on.
    It does not raise on failure so sweep drivers can count and refine.
    """
    # keeps the ends, which the flows' junctions read, before the grid's values
    path.endpoint_gaps()
    ts, steps = path.grid(opts.samples)
    mags = np.abs(np.array(path.values(ts)))
    gaps = np.min(mags, axis=1)
    worst = float(np.min(gaps - _tolerances(path, steps, mags)))
    return {
        "certified": bool(worst > 0.0),
        "margin": worst,
        "min_gap": float(np.min(gaps)),
        "max_step": float(np.max(steps)),
        "samples": len(ts),
        "soundness": path.regularity.soundness,
    }
