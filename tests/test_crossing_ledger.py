"""The crossing oracle's ledger: counts inferred between evaluated samples
of a declared path, the two safety margins that make the inference exact,
and equality with a whole-grid tally, written here, on every family.
"""

import numpy as np
import pytest

from conftest import narrow_dip, random_hermitian
from specflowlab import specflow
from specflowlab.axioms import connect_invertibles
from specflowlab.errors import ConsistencyFault, SamplingError
from specflowlab.generators import (
    concat_compatible_pair,
    family_path,
    homotopy_family,
    invertible_trig_path,
    normalization_path,
    random_invertible_hermitian,
    random_unitary,
    trig_path,
)
from specflowlab.matcore import HermitianMatrix
from specflowlab.specflow import (
    OperatorPath,
    SfOptions,
    crossing_oracle_report,
    lipschitz,
    path_concat,
    path_reverse,
    sf_all_methods,
)


def _outcome(path, opts):
    try:
        return crossing_oracle_report(path, opts)
    except Exception as exc:  # the error class, text and window must match too
        return type(exc).__name__, str(exc), getattr(exc, "window", None)


def _refused(message, window=None):
    exc = SamplingError(message, window=window)
    return type(exc).__name__, str(exc), exc.window


def _whole_grid(path, opts):
    """The oracle's report (or refusal) tallied from every point of its
    grid: the exact aliasing guard, then each count jump checked against
    the eigenvalues within one step of zero on both sides."""
    grid = np.linspace(0.0, 1.0, opts.oracle_samples).tolist()
    ts = sorted(set(grid) | set(path.regularity.knots))
    steps = path.steps(ts)
    vals = np.array(path.values(ts))
    mags = np.abs(vals)
    gap = min(mags[0].min(), mags[-1].min())
    padded = np.concatenate(([0.0], steps, [0.0]))
    tau = np.maximum(padded[:-1], padded[1:])
    if path.regularity.soundness == "lipschitz":
        tau *= 0.5  # every t lies within half a spacing of a sample
    if path.regularity.declared:
        tau += 4 * path.dim * 2.0**-53 * mags.max(axis=1)  # gamma_n ||H(t_k)||
    reach = float(tau.max())
    if reach >= 0.5 * gap:
        return _refused(
            f"oracle sample tolerance {reach:.3e} is not below half the endpoint gap "
            f"{gap:.3e}; increase oracle_samples"
        )
    counts = (vals >= 0.0).sum(axis=1)
    ups = downs = 0
    for k in np.flatnonzero(np.diff(counts)).tolist():
        jump = int(counts[k + 1] - counts[k])
        step = steps[k] * (1.0 + 1e-9) + 1e-12
        movers = min(np.sum(mags[k] <= step), np.sum(mags[k + 1] <= step))
        if abs(jump) > movers:
            return _refused(
                f"sign-count jump {jump} cannot be explained by eigenvalues "
                f"within one step ({step:.3e}) of zero; aliasing suspected",
                (ts[k], ts[k + 1]),
            )
        ups += max(jump, 0)
        downs += max(-jump, 0)
    return {
        "total": ups - downs,
        "up_crossings": ups,
        "down_crossings": downs,
        "samples": len(ts),
        "max_step": max(steps),
    }


def _both_routes(make, opts=SfOptions()):
    """The oracle's report (or error), then the whole-grid tally, each on
    a fresh path."""
    return _outcome(make(), opts), _whole_grid(make(), opts)


def _sampled(dim, count):
    rng = np.random.default_rng(300 + dim)
    return OperatorPath.from_samples([random_hermitian(rng, dim) for _ in range(count)])


def _there_and_back(f):
    """f then f backwards: knots at f's, halved and mirrored, and at 1/2."""
    return path_concat(f, path_reverse(f))


def _connector(dim):
    rng = np.random.default_rng(dim)
    t1 = random_invertible_hermitian(rng, dim)
    w = random_unitary(rng, dim).mat
    return connect_invertibles(t1, HermitianMatrix(2.0 * w @ t1.mat @ w.conj().T))


def _homotopy_row(seed, dim):
    h_of, _s_grid, _label, regularity = homotopy_family(seed, dim)
    return OperatorPath(lambda ts: h_of(0.6, ts), dim, regularity=regularity)


def _trig(seed, dim, **kwargs):
    return lambda: trig_path(seed, dim, **kwargs)


CORPUS = {
    **{f"trig_d{d}_s{s}": _trig(s, d) for d in (2, 5, 16, 64) for s in (1, 2)},
    **{f"trig_gap_d{d}": _trig(3, d, gap=0.5) for d in (48, 64, 128)},
    **{f"trig_deg8_d{d}_s{s}": _trig(s, d, degree=8, scale=4.0) for d in (2, 4, 8) for s in (0, 2)},
    **{f"concat_d{d}": (lambda d=d: path_concat(*concat_compatible_pair(4, d))) for d in (2, 6, 48)},
    "concat_partner_d7": lambda: concat_compatible_pair(2, 7)[1],
    "concat_affine_d5": lambda: _there_and_back(_sampled(5, 5)),
    "concat_thirds_d6": lambda: _there_and_back(_sampled(6, 4)),
    "sampled_d3": lambda: _sampled(3, 9),
    "reverse_concat_d4": lambda: path_reverse(path_concat(*concat_compatible_pair(5, 4))),
    **{f"normalization_d{d}": (lambda d=d: normalization_path(3, d)) for d in (2, 8)},
    **{f"invertible_drift_d{d}": (lambda d=d: invertible_trig_path(3, d)) for d in (3, 64)},
    "linear_interp_d4": lambda: family_path(
        "linear_interp",
        {"a": random_invertible_hermitian(np.random.default_rng(1), 4),
         "b": random_invertible_hermitian(np.random.default_rng(2), 4)},
    ),
    "connector_d5": lambda: _connector(5),
    "homotopy_row_d4": lambda: _homotopy_row(2, 4),
    "homotopy_row_d5": lambda: _homotopy_row(3, 5),
    "fuglede_N8": lambda: family_path("fuglede_line", {"N": 8, "n": 3}),
    "fuglede_N32_signed": lambda: family_path("fuglede_line", {"N": 32, "n": 3, "law": "signed"}),
    "fuglede_N128": lambda: family_path("fuglede_line", {"N": 128, "n": 5}),
    "toeplitz_m4_power3": lambda: family_path("toeplitz_line", {"m": 4, "power": 3}),
    "toeplitz_m31": lambda: family_path("toeplitz_line", {"m": 31}),
    "toeplitz_m32": lambda: family_path("toeplitz_line", {"m": 32}),
    "narrow_dip_declared": lambda: OperatorPath.from_callable(
        narrow_dip, 2, regularity=lipschitz((), [1.29e5])
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_inferred_ledger_equals_the_whole_grid(name):
    inferred, whole = _both_routes(CORPUS[name])
    assert inferred == whole


def test_the_corpus_keeps_its_refusals():
    """toeplitz_line m = 31 passes the guard and m = 32 does not; the
    declared narrow dip is refused by its guard."""
    assert isinstance(_outcome(CORPUS["toeplitz_m31"](), SfOptions()), dict)
    for name in ("toeplitz_m32", "narrow_dip_declared"):
        kind, text, _window = _outcome(CORPUS[name](), SfOptions())
        assert kind == "SamplingError" and text.startswith("oracle sample tolerance")


@pytest.mark.parametrize(
    "opts",
    [SfOptions(samples=10), SfOptions(samples=65, oracle_samples=129), SfOptions(oracle_samples=9)],
    ids=["seeds_off_the_grid", "seeds_dense", "oracle_coarser"],
)
def test_inferred_ledger_with_other_grids(opts):
    for make in (_trig(1, 8), _trig(2, 6, degree=8, scale=4.0), CORPUS["concat_thirds_d6"]):
        inferred, whole = _both_routes(make, opts)
        assert inferred == whole


def _counted(path):
    """Count the points the path's evaluator is asked for."""
    evaluate = path._evaluator
    asked = []

    def counting(ts):
        asked.extend(ts.tolist())
        return evaluate(ts)

    path._evaluator = counting
    return asked


@pytest.mark.parametrize("seed", [1, 3])
def test_oracle_evaluates_few_points_of_a_dim64_trig_path(seed, monkeypatch):
    def make():
        return family_path("trig_random", {"gap": 0.5}, seed=seed, dim=64)

    path = make()
    asked = _counted(path)
    before = []
    oracle = specflow.crossing_oracle_report

    def recorded(p, opts):
        before.append(len(asked))
        return oracle(p, opts)

    monkeypatch.setattr(specflow, "crossing_oracle_report", recorded)
    ledger = sf_all_methods(path)["crossing_ledger"]
    new = len(asked) - before[0]
    assert len(set(asked)) == len(asked)
    assert 0 < new <= 80  # of the 224 oracle points phillips did not sample

    # the ledger of the whole grid, tallied here from numpy's eigvalsh
    grid = np.linspace(0.0, 1.0, 257)
    fresh = make()
    counts = (np.linalg.eigvalsh(fresh.stack(grid)) >= 0.0).sum(axis=1)
    jumps = np.diff(counts)
    assert ledger == {
        "total": int(counts[-1] - counts[0]),
        "up_crossings": int(jumps[jumps > 0].sum()),
        "down_crossings": int(-jumps[jumps < 0].sum()),
        "samples": 257,
        "max_step": max(fresh.regularity.step_bounds(grid)),
    }
    # whether or not phillips sampled the path first
    assert crossing_oracle_report(make()) == ledger


def test_opaque_paths_evaluate_the_whole_grid():
    path = OperatorPath(lambda ts: [np.diag([2.0 - 3.0 * t, 1.0]) for t in ts], 2)
    asked = _counted(path)
    report = crossing_oracle_report(path)
    assert report["total"] == -1
    assert sorted(asked) == np.linspace(0.0, 1.0, 257).tolist()


def _declared(evaluate, rate):
    """A dim-2 path from a scalar function, declared Lipschitz at ``rate``."""
    return OperatorPath.from_callable(evaluate, 2, regularity=lipschitz((), [rate]))


def test_clearance_gives_up_twice_the_rounding_slack():
    """A count is inferred only when min |eigenvalue| beats the tolerance
    by two rounding slacks: the sample's own and the inferred point's."""
    path = _declared(np.diag, 1.0)
    # gamma_2 = 8u = 2^-50, so ||H|| = 2^40 gives the slack 2^-10 exactly
    big, slack, tol = 2.0**40, 2.0**-10, 1.0

    def clearance(x):
        return float(specflow._clearance(path, np.array([[x, big]]))[0])

    assert clearance(tol + 2.0 * slack) == tol  # not above it: no inference
    assert clearance(np.nextafter(tol + 2.0 * slack, np.inf)) > tol
    assert clearance(tol + 1.5 * slack) < tol
    assert clearance(-(tol + 1.5 * slack)) < tol


def _norm_peak(a):
    """diag(a, B + c (1 - cos 64 pi t)) with B = 2^50: the norm peaks at
    the odd multiples of 1/64, halfway between the seeds, where it is about
    2c above every seed's norm; 64 pi c is the declared rate."""
    big, rate = 2.0**50, 8192.0
    c = rate / (64.0 * np.pi)

    def evaluate(ts):
        out = np.zeros((ts.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = a
        out[:, 1, 1] = big + c * (1.0 - np.cos(64.0 * np.pi * ts))
        return out

    return OperatorPath(evaluate, 2, regularity=lipschitz((), [rate]))


def test_reach_bound_covers_the_norms_between_seeds():
    """The guard's rounding slack grows with ||H(t_k)||. Here the largest
    tolerance lies at an unevaluated sample, beyond every seed's, so only
    the norm bound keeps the pre-check from passing a grid the whole-grid
    guard refuses."""
    probe = _norm_peak(1.0)
    ts = list(specflow._grid(probe, 257))
    steps = probe.steps(ts)
    vals = probe.values(ts)
    tau = specflow._tolerances(probe, steps, np.abs(np.array(vals)))
    reach = float(np.max(tau))
    seeds = list(range(0, 257, 8))
    assert np.max(tau[seeds]) < reach
    bound = specflow._reach_bound(probe, ts, steps, seeds, [vals[k] for k in seeds])
    assert reach <= bound <= reach * (1.0 + 1e-12)
    # from every index the bound is the reach itself
    assert specflow._reach_bound(probe, ts, steps, list(range(257)), vals) == reach

    # the guard's limit a few ulps below the exact reach: the oracle and
    # the whole-grid tally both refuse
    half = reach
    for _ in range(4):
        half = np.nextafter(half, 0.0)
    inferred, whole = _both_routes(lambda: _norm_peak(2.0 * half))
    assert inferred == whole
    assert inferred[0] == "SamplingError"

    # a few ulps above the reach, below the bound: the bounded guard fails,
    # so every grid point is evaluated, and the exact guard passes
    half = reach
    for _ in range(4):
        half = np.nextafter(half, np.inf)
    assert half < bound
    inferred, whole = _both_routes(lambda: _norm_peak(2.0 * half))
    assert inferred == whole
    assert inferred["samples"] == 257
    path = _norm_peak(2.0 * half)
    asked = _counted(path)
    crossing_oracle_report(path)
    assert sorted(asked) == ts


def test_a_count_change_the_declaration_forbids_is_a_fault():
    """A path declared far slower than it moves: two seeds differ in count
    across an interval whose ends both clear the declared step bound."""
    path = _declared(lambda t: np.diag([1.0 if t < 0.52 else -1.0, 2.0]), 1e-3)
    with pytest.raises(ConsistencyFault, match="declared regularity forbids"):
        crossing_oracle_report(path)
