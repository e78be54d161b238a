"""The crossing oracle's ledger: counts inferred between evaluated samples
of a declared path, the two safety margins that make the inference exact,
and equality with a whole-grid tally, written here, on every family.
"""

import random
from functools import partial

import numpy as np
import pytest

from corpus import CORPUS
from specflowlab import specflow
from specflowlab.errors import InputError, SamplingError
from specflowlab.generators import family_path, random_unitary, trig_path
from specflowlab.specflow import (
    OperatorPath,
    SfOptions,
    crossing_oracle_report,
    lipschitz,
    piecewise_affine,
    sf_all_methods,
)


def _run(call, path, opts=SfOptions()):
    try:
        return call(path, opts)
    except Exception as exc:  # the error class, text and window must match too
        return type(exc).__name__, str(exc), getattr(exc, "window", None)


def _outcome(path, opts):
    return _run(crossing_oracle_report, path, opts)


def _step_refusal(path, opts):
    """The refusal the declared step bounds alone prove, as ``_run`` gives
    it, or None."""
    return _run(
        lambda p, o: specflow._refuse_on_step_bounds(p, o, min(p.endpoint_gaps())), path, opts
    )


def _refused(message, window=None):
    exc = SamplingError(message, window=window)
    return type(exc).__name__, str(exc), exc.window


def _whole_grid(path, opts):
    """The oracle's report (or refusal) tallied from every point of its
    grid: the exact aliasing guard, then each count jump checked against
    the eigenvalues within one step, plus both samples' rounding slack, of
    zero on both sides."""
    grid = np.linspace(0.0, 1.0, opts.oracle_samples).tolist()
    ts = sorted(set(grid) | set(path.regularity.knots))
    steps = path.regularity.step_bounds(ts)
    vals = np.array(path.values(ts))
    mags = np.abs(vals)
    gap = min(mags[0].min(), mags[-1].min())
    padded = np.concatenate(([0.0], steps, [0.0]))
    tau = np.maximum(padded[:-1], padded[1:])
    if path.regularity.soundness == "lipschitz":
        tau *= 0.5  # every t lies within half a spacing of a sample
    slack = 4 * path.dim * 2.0**-53 * mags.max(axis=1)  # gamma_n ||H(t_k)||
    tau += slack
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
        step = steps[k] * (1.0 + 1e-9) + 1e-12 + slack[k] + slack[k + 1]
        movers = min(np.sum(mags[k] <= step), np.sum(mags[k + 1] <= step))
        if abs(jump) > movers:
            return (
                "InputError",
                f"nonnegative count changes from {counts[k]} to {counts[k + 1]} on "
                f"[{ts[k]!r}, {ts[k + 1]!r}], where the declared step bound {steps[k]:.3e} "
                "forbids it: the path moves faster than it declares",
                None,
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_inferred_ledger_equals_the_whole_grid(name):
    inferred, whole = _both_routes(CORPUS[name])
    assert inferred == whole
    # the step floor, the share of the largest step, is bit for bit the
    # largest share of a neighbour step that the tolerances add to
    path = CORPUS[name]()
    steps = path.grid(SfOptions().oracle_samples)[1]
    tau = specflow._neighbour_steps(steps) * specflow._step_share(path)
    assert max(steps) * specflow._step_share(path) == float(np.max(tau))


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
    for make in (partial(trig_path, 1, 8), partial(trig_path, 2, 6, degree=8, scale=4.0),
                 CORPUS["concat_thirds_d6"]):
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
    ts = list(probe.grid(257)[0])
    steps = probe.regularity.step_bounds(ts)
    vals = probe.values(ts)
    tau = specflow._tolerances(probe, steps, np.abs(np.array(vals)))
    reach = float(np.max(tau))
    seeds = list(range(0, 257, 8))
    assert np.max(tau[seeds]) < reach
    per_sample = specflow._reach_bound(probe, ts, steps, seeds, [vals[k] for k in seeds])
    assert np.all(tau <= per_sample) and np.array_equal(per_sample[seeds], tau[seeds])
    bound = float(np.max(per_sample))
    assert reach <= bound <= reach * (1.0 + 1e-12)
    # from every index the bound is the tolerances themselves
    assert np.array_equal(specflow._reach_bound(probe, ts, steps, list(range(257)), vals), tau)

    # the guard's limit a few ulps below the exact reach: the oracle and
    # the whole-grid tally both refuse
    half = reach
    for _ in range(4):
        half = np.nextafter(half, 0.0)
    inferred, whole = _both_routes(lambda: _norm_peak(2.0 * half))
    assert inferred == whole
    assert inferred[0] == "SamplingError"
    # no seed's tolerance reaches the limit, so only the whole grid decides
    path = _norm_peak(2.0 * half)
    asked = _counted(path)
    assert _outcome(path, SfOptions()) == whole
    assert sorted(asked) == ts

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


def _fast_cosine(t):
    """U diag(cos(40 pi t), 0.7) U*: it moves at a rate of about 126."""
    u = random_unitary(np.random.default_rng(27), 2).mat
    return u @ np.diag([np.cos(40.0 * np.pi * t), 0.7]) @ u.conj().T


def _drop_at_half(t):
    """diag(lambda(t), 2): lambda falls linearly from 0.5 to 1e-5 on
    [0, 1/2] and is -0.5 after, a jump no rate bounds."""
    return np.diag([0.5 - (0.5 - 1e-5) * 2.0 * t if t <= 0.5 else -0.5, 2.0])


@pytest.mark.parametrize(
    "make, call, window, bound",
    [
        (
            lambda: _declared(lambda t: np.diag([1.0 if t < 0.52 else -1.0, 2.0]), 1e-3),
            crossing_oracle_report,
            "[0.5, 0.53125]",
            "3.125e-05",
        ),
        (lambda: _declared(_fast_cosine, 50.0), sf_all_methods, "[0.03125, 0.046875]", "7.812e-01"),
        (lambda: _declared(_drop_at_half, 1.0), sf_all_methods, "[0.5, 0.50390625]", "3.906e-03"),
    ],
    ids=["step", "fast_cosine", "adjacent"],
)
def test_a_count_change_the_declaration_forbids_is_an_input_error(make, call, window, bound):
    """A path declared slower than it moves: two evaluated points differ in
    count across an interval whose ends both clear the declared step bound.
    The declaration, an input, is false, so the refusal is an InputError
    (exit 1) naming the window and the declared step bound. On the
    adjacent case the change falls between two neighbouring oracle points,
    where no eigenvalue within the step bound and the rounding slack of
    zero can explain it (this was once a SamplingError, exit 2)."""
    with pytest.raises(InputError) as err:
        call(make())
    assert f" on {window}, where the declared step bound {bound} forbids it" in str(err.value)


#: the corpus paths the oracle's guard refuses at the default options
REFUSED = ("concat_thirds_d6", "narrow_dip_declared", "sampled_d3", "toeplitz_m32")


@pytest.mark.parametrize("name", REFUSED)
def test_all_methods_refuses_as_the_oracle_does(name):
    """sf_all_methods raises exactly the oracle's refusal on a fresh path:
    the same class, text (the exact reach of the whole grid) and window."""
    refused = _run(sf_all_methods, CORPUS[name]())
    assert refused == _outcome(CORPUS[name](), SfOptions())
    assert refused[0] == "SamplingError" and refused[1].startswith("oracle sample tolerance")


def test_an_aliased_line_is_refused_before_phillips_samples_it():
    """On toeplitz_line m = 32 the guard refuses on the declared step bounds
    alone, and the reach's bracket from the ends prints one number, so only
    t = 0 and 1 reach the evaluator, each once."""
    path = CORPUS["toeplitz_m32"]()
    asked = _counted(path)
    assert _run(sf_all_methods, path) == _whole_grid(CORPUS["toeplitz_m32"](), SfOptions())
    assert sorted(asked) == [0.0, 1.0]


def _straddling_line():
    """diag(3/2 - 256 F t, 2^34), declared affine at rate 256 F: every
    oracle step is F, just below the rounding boundary 1.0005, and the
    rounding slack gamma_2 * 2^34 = 2^-16 lifts the reach above it."""
    floor = 1.0005 - 1e-6
    big = 2.0**34

    def evaluate(ts):
        out = np.zeros((ts.size, 2, 2), dtype=np.complex128)
        out[:, 0, 0] = 1.5 - 256.0 * floor * ts
        out[:, 1, 1] = big
        return out

    return OperatorPath(evaluate, 2, regularity=piecewise_affine((), [256.0 * floor]))


def test_an_exact_end_tolerance_closes_a_bracket_the_floor_straddles():
    """The step floor prints 1.000e+00 and the reach 1.001e+00. The exact
    tolerance at each end adds the slack of the constant norm 2^34, which
    lifts the bracket's lower end to the reach's digits, so the refusal is
    decided from t = 0 and 1 alone, with the whole-grid tally's text."""
    probe = _straddling_line()
    steps = probe.grid(SfOptions().oracle_samples)[1]
    assert f"{max(steps) * specflow._step_share(probe):.3e}" == "1.000e+00"
    assert _step_refusal(probe, SfOptions()) == _whole_grid(_straddling_line(), SfOptions())
    path = _straddling_line()
    asked = _counted(path)
    refused = _run(sf_all_methods, path)
    assert refused == _whole_grid(_straddling_line(), SfOptions())
    assert "tolerance 1.001e+00 " in refused[1]
    assert sorted(asked) == [0.0, 1.0]


def _zigzag(seed):
    """A zigzag input as the CLI benchmark draws it: one eigenvalue flips
    between +1 and -1 at each of 41 samples, conjugated by a random
    unitary, while the rest stay put, at a dimension of 4 to 8."""
    draw = random.Random(seed)
    rng = np.random.default_rng(draw.randrange(2**63))
    draw.randrange(2**31)  # the seed a graded op would take
    dim = draw.randint(4, 8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rest = rng.uniform(0.5, 1.5, dim - 1) * rng.choice([-1.0, 1.0], dim - 1)
    samples = []
    for k in range(41):
        m = (u * np.concatenate([[1.0 if k % 2 == 0 else -1.0], rest])) @ u.conj().T
        samples.append((m + m.conj().T) / 2.0)
    return OperatorPath.from_samples(samples)


SWEEP = {
    **{f"zigzag_{s}": partial(_zigzag, s) for s in range(40)},
    **{
        f"toeplitz_m{m}": partial(family_path, "toeplitz_line", {"m": m})
        for m in (*range(31, 41), 64)
    },
}


def test_a_refusal_from_the_ends_is_the_whole_grid_refusal():
    """Wherever the step test fires, sf_all_methods on a fresh path refuses
    with the whole-grid tally's class, text and window."""
    opts = SfOptions(max_depth=2)  # the zigzag inputs' CLI setting
    fired = []
    for name, make in SWEEP.items():
        path = make()
        if _step_refusal(path, opts) is not None:
            fired.append(name)
            assert _run(sf_all_methods, make(), opts) == _whole_grid(path, opts), name
    assert "toeplitz_m32" in fired and "toeplitz_m31" not in fired
    assert any(name.startswith("zigzag") for name in fired)


@pytest.mark.parametrize("m", range(31, 41))
def test_toeplitz_lines_are_refused_from_their_ends(m):
    """m = 31 passes the guard; every m from 32 to 40 is refused from t = 0
    and 1 alone, m = 36 included, whose step floor alone prints a digit
    below its reach."""
    path = SWEEP[f"toeplitz_m{m}"]()
    asked = _counted(path)
    result = _run(sf_all_methods, path)
    if m == 31:
        assert isinstance(result, dict)
    else:
        assert result == _whole_grid(SWEEP[f"toeplitz_m{m}"](), SfOptions())
        assert sorted(asked) == [0.0, 1.0]


@pytest.mark.parametrize(
    "opts", [SfOptions(), SfOptions(oracle_samples=9)], ids=["default", "oracle_coarser"]
)
def test_every_guard_outcome_is_the_whole_grids(opts):
    """On every path of the corpus and the sweep, the oracle gives the
    whole-grid tally's report or refusal (class, text and window), and so
    does sf_all_methods wherever the step floor decides a refusal first."""
    for name, make in sorted({**CORPUS, **SWEEP}.items()):
        whole = _whole_grid(make(), opts)
        assert _outcome(make(), opts) == whole, name
        if _step_refusal(make(), opts) is not None:
            assert _run(sf_all_methods, make(), opts) == whole, name


@pytest.mark.parametrize(
    "opts", [SfOptions(), SfOptions(oracle_samples=9)], ids=["default", "oracle_coarser"]
)
def test_the_step_test_fires_only_where_the_oracle_refuses(opts):
    fired = []
    for name in sorted(CORPUS):
        refused = _step_refusal(CORPUS[name](), opts)
        if refused is not None:
            fired.append(name)
            assert refused == _outcome(CORPUS[name](), opts), name
            assert refused[1].startswith("oracle sample tolerance"), name
    assert "toeplitz_m32" in fired


def _in_order(path):
    """phillips, pairsum, endpoints, then the oracle, each run in turn."""
    return {
        "phillips_certificate": specflow.sf_phillips(path),
        "pairsum_certificate": specflow.sf_pairsum(path),
        "value": specflow.sf_endpoints(path),
        "crossing_ledger": crossing_oracle_report(path),
    }


@pytest.mark.parametrize("name", sorted(set(CORPUS) - set(REFUSED)))
def test_all_methods_equal_the_methods_run_in_order(name):
    """Where the guard passes, the step test changes nothing: the
    certificates, value and ledger are those of the four methods run in
    turn on a fresh path."""
    result = _run(sf_all_methods, CORPUS[name]())
    want = _in_order(CORPUS[name]())
    assert isinstance(result, dict), result
    assert {key: result[key] for key in want} == want


def test_the_tallies_count_the_grids_sign_changes_not_the_paths():
    """The guard tests the largest sample tolerance against half the end
    gap, and nothing between adjacent grid points, so the tallies are lower
    bounds on the path's crossings. This dim-1 path falls from 1 to 0.1 at
    t = 100/256, dips to -0.1 between the knots 100/256 and 101/256 and is
    back at 0.1 on the next grid point, then rises to 1: it crosses zero
    twice, down and up. Its rates are declared a relative 1e-7 above the
    true ones; the largest tolerance, 0.2, passes against half the end gap,
    0.5, and the grid sees no sign change. The value 0 is right; the
    tallies (0, 0) are not the path's (1, 1)."""
    knots = (100 / 256, 101 / 256)
    xs = [0.0, knots[0], 100.5 / 256, knots[1], 1.0]
    hs = [1.0, 0.1, -0.1, 0.1, 1.0]
    rates = [0.9 / knots[0], 0.2 / (0.5 / 256), 0.9 / (1.0 - knots[1])]

    def evaluate(ts):
        return np.interp(ts, xs, hs).astype(complex)[:, None, None]

    path = OperatorPath(
        evaluate, 1, regularity=lipschitz(knots, [r * (1.0 + 1e-7) for r in rates])
    )
    out = sf_all_methods(path)
    ledger = out["crossing_ledger"]
    assert out["value"] == 0
    assert (ledger["up_crossings"], ledger["down_crossings"]) == (0, 0)
    assert np.sign(evaluate(np.array(xs[1:4])).real.ravel()).tolist() == [1.0, -1.0, 1.0]
