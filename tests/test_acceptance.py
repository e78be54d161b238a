"""Top-level acceptance suite: ten criteria, one test (and one printed
pass line) each. Tolerances appear verbatim in the assertions. Every
criterion that evaluates the graph distance (1, 6, 9 and 10) checks its
own evaluations against the dual-route bound, so each criterion passes or
fails the same when run alone."""

import math
import time

import numpy as np
import pytest

from specflowlab import (
    DiagonalModel,
    GradedOperator,
    HermitianMatrix,
    Interval,
    SfOptions,
    apply_function,
    clamp_spectrum_away_from_zero,
    cyclic_shift_sweep,
    d_G_detail,
    d_R,
    eigenpair_cancellation_check,
    graded_window_dim,
    index_stability_check,
    metric_separation_report,
    norm_graph_equivalence_check,
    random_hermitian,
    random_unitary,
    run_all_checks,
    sf_all_methods,
    spectral_projection,
    spawn_rngs,
    trig_path,
    truncate_fn,
    truncation_riesz_bound,
    verify_toeplitz_theorem,
)
from specflowlab.errors import CertificationError

from conftest import random_spd
from reference import check_a1, contour_projection, inv_sqrt_integral

OPTS = SfOptions()

TABLE_TOL = 1e-12          # criterion 1, per cell
TABLE_BUDGET_S = 10.0      # criterion 1
SUITE_BUDGET_S = 60.0      # criterion 2
NORM_GRAPH_SLACK = 1e-10   # criterion 6
TRUNCATION_SLACK = 1e-12   # criterion 7
INV_SQRT_TOL = 1e-6        # criterion 8
CONTOUR_TOL = 1e-8         # criterion 8
DUAL_GAP_TOL = 1e-11       # criteria 1, 6, 9 and 10


def _worst_dual_gap(details) -> float:
    """The two graph-distance routes agree within 1e-11 on every recorded
    evaluation, and at least one was made; returns the worst discrepancy."""
    assert details, "no graph-distance evaluation was made"
    worst = max(detail.delta for detail in details)
    assert worst <= DUAL_GAP_TOL
    return worst


@pytest.fixture(scope="module")
def trig_suite():
    """The 200 seeded paths shared by criteria 2 and 3."""
    dims = list(range(2, 13))
    paths = []
    results = []
    cert_failures = []
    t0 = time.monotonic()
    for k, rng in enumerate(spawn_rngs(20260825, 200)):
        path = trig_path(rng, dims[k % len(dims)])
        try:
            results.append(sf_all_methods(path, OPTS))
        except CertificationError as exc:
            cert_failures.append((k, str(exc)))
            results.append(None)
        paths.append(path)
    elapsed = time.monotonic() - t0
    return {
        "paths": paths,
        "results": results,
        "failures": cert_failures,
        "elapsed": elapsed,
    }


def test_criterion_01_separation_table(graph_distance_details):
    """Closed-form distance table, linear law, N = 64, n = 1..32:
    residual <= 1e-12 per cell, runtime < 10 s, dual d_G routes within
    1e-11 on every row."""
    t0 = time.monotonic()
    rows = metric_separation_report(
        DiagonalModel(64, "linear"), ["rank_one", "lambda", "fuglede"], range(1, 33)
    )
    elapsed = time.monotonic() - t0
    assert len(rows) == 96
    worst = 0.0
    for row in rows:
        for res in (row.res_N, row.res_W, row.res_R, row.res_G):
            assert res is not None
            assert res <= TABLE_TOL, (row.family, row.n, res)
            worst = max(worst, res)
        n = row.n
        if row.family == "rank_one":
            assert row.d_N == 1.0
            assert abs(row.d_W - (1.0 + n * n) ** -0.5) <= TABLE_TOL
        elif row.family == "lambda":
            assert abs(row.d_W - n / math.sqrt(1.0 + n * n)) <= TABLE_TOL
            assert (
                abs(
                    row.d_R
                    - abs(
                        2.0 * n / math.sqrt(1.0 + 4.0 * n * n)
                        - n / math.sqrt(1.0 + n * n)
                    )
                )
                <= TABLE_TOL
            )
        else:  # fuglede
            assert abs(row.d_W - 2.0 * n / math.sqrt(1.0 + n * n)) <= TABLE_TOL
            assert abs(row.d_G - 2.0 * n / (1.0 + n * n)) <= TABLE_TOL
    assert elapsed < TABLE_BUDGET_S
    dual = _worst_dual_gap(graph_distance_details)
    print(
        f"criterion 1: PASS - 96 rows, max residual {worst:.3e}, {elapsed:.2f} s, "
        f"dual-route gap {dual:.2e}"
    )


def test_criterion_02_four_way_agreement(trig_suite):
    """200 seeded trig paths, dims 2..12: the four methods agree exactly,
    zero certification failures, runtime < 60 s."""
    assert trig_suite["failures"] == []
    disagreements = 0
    for res in trig_suite["results"]:
        values = set(res["methods"].values())
        if len(values) != 1:
            disagreements += 1
    assert disagreements == 0
    assert trig_suite["elapsed"] < SUITE_BUDGET_S
    flows = [res["value"] for res in trig_suite["results"]]
    print(
        "criterion 2: PASS - 200 paths, flows in "
        f"[{min(flows)}, {max(flows)}], {trig_suite['elapsed']:.1f} s"
    )


def test_criterion_03_endpoint_and_pairsum_identity(trig_suite):
    """On every criterion-2 path the flow equals the nonnegative-rank
    difference of the endpoints and equals the pair-index sum; exact."""
    for path, res in zip(trig_suite["paths"], trig_suite["results"]):
        rank_diff = path.nonneg_count(1.0) - path.nonneg_count(0.0)
        assert res["value"] == rank_diff
        assert res["methods"]["pairsum"] == rank_diff
        assert res["methods"]["endpoints"] == rank_diff
    print("criterion 3: PASS - endpoint rank difference = pair-index sum on all 200")


def test_criterion_04_axiom_suite():
    """Concatenation (200 pairs), homotopy (50 grids, all certified),
    normalization (50), vanishing (200) - per method, zero violations."""
    reports = run_all_checks(seed=0, trials=200, opts=OPTS)
    assert len(reports) == 16
    for rep in reports:
        assert rep["ok"], (rep["check"], rep["method"], rep["failures"])
    uncertified = sum(
        rep["inconclusive"] for rep in reports if rep["check"] == "homotopy"
    )
    assert uncertified == 0
    vanish_skipped = sum(
        rep["inconclusive"]
        for rep in reports
        if rep["check"] == "invertible_vanishing"
    )
    assert vanish_skipped == 0
    print("criterion 4: PASS - 16/16 law reports clean, every family certified")


def test_criterion_05_toeplitz_identity():
    """Cyclic shifts m = 1..20 plus 100 random (D, W): compression index
    equals the conjugation flow, ledger cancellation every time."""
    for entry in cyclic_shift_sweep(range(1, 21), OPTS):
        assert entry["equal"], entry
        assert entry["cancellation"]
        assert (
            entry["up_crossings"]
            == entry["down_crossings"]
            == entry["expected_crossings_per_side"]
            == 1
        )
        assert entry["wrap_travel_levels"] == 2 * entry["m"]
    dims = list(range(2, 9))
    for k, rng in enumerate(spawn_rngs(5550825, 100)):
        dim = dims[k % len(dims)]
        d = clamp_spectrum_away_from_zero(random_hermitian(rng, dim, 2.0), 0.3)
        w = random_unitary(rng, dim)
        rep = verify_toeplitz_theorem(d, w, OPTS)
        assert rep["equal"], (k, rep)
        assert rep["cancellation"]
    print("criterion 5: PASS - 20 shift radii + 100 random pairs, all four routes equal")


def test_criterion_06_norm_graph_inequalities(graph_distance_details):
    """1000 pairs with ||T|| <= 2, dims <= 16: both implications hold with
    1e-10 slack whenever their hypotheses do; dual d_G routes within 1e-11."""
    active_graph = active_norm = 0
    for k, rng in enumerate(spawn_rngs(660825, 1000)):
        dim = int(rng.integers(2, 17))
        h = random_hermitian(rng, dim, 1.0)
        target = 2.0 * rng.uniform(0.1, 1.0)
        t = HermitianMatrix(h.mat * (target / max(h.norm, 1e-300)))
        size = 10.0 ** rng.uniform(-3.0, -0.2)
        t_tilde = HermitianMatrix(t.mat + size * random_hermitian(rng, dim, 1.0).mat)
        rep = norm_graph_equivalence_check(t, t_tilde, 2.0)
        assert rep.ok, (k, rep)
        assert rep.slack == NORM_GRAPH_SLACK
        active_graph += rep.hyp_graph_small
        active_norm += rep.hyp_norm_small
    assert active_graph > 100 and active_norm > 100  # not vacuous
    dual = _worst_dual_gap(graph_distance_details)
    print(
        "criterion 6: PASS - 1000 pairs, hypotheses active "
        f"{active_graph}/{active_norm} (graph/norm), dual-route gap {dual:.2e}"
    )


def test_criterion_07_truncation_density():
    """100 random T with spectra in [-50, 50]: the Riesz distance to the
    clamped matrix stays below |n/sqrt(1+n^2) - 1| + 1e-12 for each n."""
    levels = (1.0, 2.0, 5.0, 10.0, 20.0)
    for rng in spawn_rngs(770825, 100):
        dim = int(rng.integers(2, 33))
        u = random_unitary(rng, dim).mat
        lam = rng.uniform(-50.0, 50.0, dim)
        t = HermitianMatrix((u * lam) @ u.conj().T)
        for n in levels:
            bound = truncation_riesz_bound(n) + TRUNCATION_SLACK
            assert d_R(t, truncate_fn(t, n)) <= bound
    print("criterion 7: PASS - 500 clamp distances under the density bound")


def test_criterion_08_integral_representations():
    """inv_sqrt_integral vs eigh <= 1e-6 on 100 SPD draws; conjugation-norm
    identities on 1000 draws; contour vs spectral projection <= 1e-8 on 500."""
    worst_sqrt = 0.0
    for rng in spawn_rngs(880825, 100):
        dim = int(rng.integers(2, 9))
        h = random_spd(rng, dim, 0.1, 10.0)
        direct = apply_function(h, lambda x: 1.0 / math.sqrt(x))
        gap = float(np.linalg.norm(inv_sqrt_integral(h).mat - direct.mat, 2))
        worst_sqrt = max(worst_sqrt, gap)
        assert gap <= INV_SQRT_TOL
    for rng in spawn_rngs(880826, 1000):
        dim = int(rng.integers(2, 9))
        t = random_spd(rng, dim, 0.2, 5.0)
        b = random_hermitian(rng, dim, 1.0)
        assert check_a1(t, b).ok
    worst_proj = 0.0
    for rng in spawn_rngs(880827, 500):
        dim = int(rng.integers(4, 10))
        h = random_hermitian(rng, dim, 2.0)
        vals = np.linalg.eigvalsh(h.mat)
        gaps = np.diff(vals)
        cut = int(np.argmax(gaps)) + 1  # split at the widest spectral gap
        lo, hi = vals[0], vals[cut - 1]
        pad = 0.4 * gaps[cut - 1]
        p_c = contour_projection(h, 0.5 * (lo + hi), 0.5 * (hi - lo) + pad)
        p_s = spectral_projection(h, Interval.closed(lo - pad, hi + pad))
        gap = float(np.linalg.norm(p_c.mat - p_s.mat, 2))
        worst_proj = max(worst_proj, gap)
        assert gap <= CONTOUR_TOL
    print(
        "criterion 8: PASS - inv-sqrt gap <= "
        f"{worst_sqrt:.2e}, projection gap <= {worst_proj:.2e}"
    )


def test_criterion_09_graded_suite(graph_distance_details):
    """500 random blocks: window dimension equals the kernel index below
    the gap and nonzero levels pair off; stability holds on 50 gapped
    instances at 100 trials each. Exact integers throughout; dual d_G
    routes within 1e-11 on every stability trial."""
    for rng in spawn_rngs(990825, 500):
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        block = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
        g = GradedOperator(p, q, block)
        gap = g.spectral_gap()
        assert gap > 0.0
        assert graded_window_dim(g, 0.5 * gap) == g.kernel_index() == p - q
        assert eigenpair_cancellation_check(g)["ok"]
    stable = 0
    for k, rng in enumerate(spawn_rngs(990826, 50)):
        p = int(rng.integers(2, 6))
        q = int(rng.integers(2, 6))
        while True:
            block = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
            g = GradedOperator(p, q, block)
            if g.spectral_gap() > 0.05:
                break
        rep = index_stability_check(g, trials=100, seed=k)
        assert rep["ok"], (k, rep["failures"])
        stable += 1
    assert stable == 50
    dual = _worst_dual_gap(graph_distance_details)
    print(
        "criterion 9: PASS - 500 window/kernel matches, 50 x 100 stability trials, "
        f"dual-route gap {dual:.2e}"
    )


def test_criterion_10_dual_graph_distance_routes():
    """On 500 draws, the two graph-distance formulas agree within 1e-11
    between each draw and a second draw of the same dimension and scale."""
    details = []
    for rng in spawn_rngs(10100825, 500):
        dim = int(rng.integers(2, 13))
        scale = float(rng.uniform(0.3, 4.0))
        t = random_hermitian(rng, dim, scale)
        details.append(d_G_detail(t, random_hermitian(rng, dim, scale)))
    dual = _worst_dual_gap(details)
    assert dual > 0.0  # the two routes really are different computations
    print(f"criterion 10: PASS - 500 pairs, dual-route gap {dual:.2e}")
