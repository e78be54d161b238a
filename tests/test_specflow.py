"""Spectral flow: the four methods, certificates, path algebra, guards.

The brute-force oracle for small hand-built paths is a dense sign count
done right here in the test, independent of the library's own oracle.
"""

import contextlib
import dataclasses
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import counted_points, random_hermitian, random_invertible_hermitian
from corpus import _there_and_back
from specflowlab.axioms import connect_invertibles
from specflowlab.errors import (
    CertificationError,
    DimensionMismatchError,
    EndpointError,
    FinitenessError,
    HermiticityError,
    InputError,
    SamplingError,
    SpecFlowError,
)
from specflowlab.matcore import HermitianMatrix, _run_stats, op_norm
from specflowlab.paths import OperatorPath, lipschitz, path_concat, path_reverse, piecewise_affine
from specflowlab.specflow import (
    SfOptions,
    certify_invertible,
    crossing_oracle_report,
    sf_all_methods,
    sf_crossing_oracle,
    sf_endpoints,
    sf_pairsum,
    sf_phillips,
)
from specflowlab.generators import (
    concat_compatible_pair,
    cyclic_shift,
    family_path,
    half_integer_diagonal,
    homotopy_family,
    invertible_trig_path,
    normalization_path,
    random_unitary,
    trig_path,
)
from specflowlab.toeplitz import conjugation_path
from specflowlab import matcore, paths, specflow


def dense_sign_count_oracle(path, samples=4001):
    """Independent brute force: track the nonnegative-eigenvalue count on a
    very fine grid and sum its jumps."""
    ts = np.linspace(0.0, 1.0, samples)
    counts = [int(np.sum(np.linalg.eigvalsh(path.matrix(t).mat) >= 0)) for t in ts]
    return counts[-1] - counts[0]


def pivot_path(width=0.4):
    """diag(t - 1/2, +/-2): exactly one up-crossing at t = 1/2."""

    def evaluate(t):
        return HermitianMatrix(np.diag([t - 0.5, 2.0, -2.0]))

    return OperatorPath.from_callable(evaluate, 3, regularity=piecewise_affine((), [1.0]))


def test_pivot_path_all_methods():
    path = pivot_path()
    assert dense_sign_count_oracle(path) == 1
    assert sf_phillips(path).total == 1
    assert sf_pairsum(path).total == 1
    assert sf_endpoints(path) == 1
    assert sf_crossing_oracle(path) == 1


def test_two_crossings_cancel():
    # one eigenvalue goes up through 0, another comes down: net 0
    def evaluate(t):
        return HermitianMatrix(np.diag([t - 0.25, 0.75 - t]))

    path = OperatorPath.from_callable(evaluate, 2, regularity=piecewise_affine((), [1.0]))
    assert dense_sign_count_oracle(path) == 0
    result = sf_all_methods(path)
    assert result["value"] == 0
    ledger = crossing_oracle_report(path)
    assert ledger["up_crossings"] == 1 and ledger["down_crossings"] == 1


def test_seeded_paths_four_way_agreement():
    for seed in range(12):
        path = trig_path(seed, 2 + seed % 5)
        result = sf_all_methods(path)
        values = set(result["methods"].values())
        assert values == {result["value"]}


def test_certificate_structure():
    cert = sf_phillips(trig_path(3, 5))
    assert cert.method == "phillips"
    segs = cert.segments
    assert segs[0].t_left == 0.0 and segs[-1].t_right == 1.0
    for a, b in zip(segs, segs[1:]):
        assert a.t_right == b.t_left
    assert all(s.weyl_margin > 0.0 for s in segs)
    assert cert.total == sum(s.rank_right - s.rank_left for s in segs)
    assert min(cert.endpoint_gaps) > 1e-8


def test_certificate_rederivable_without_search():
    """The stored (t, eps) pairs alone reproduce the counts and the total."""
    path = trig_path(7, 4)
    cert = sf_phillips(path)
    total = 0
    for seg in cert.segments:
        vals_l = np.linalg.eigvalsh(path.matrix(seg.t_left).mat)
        vals_r = np.linalg.eigvalsh(path.matrix(seg.t_right).mat)
        rank_l = int(np.sum((vals_l >= 0.0) & (vals_l < seg.eps)))
        rank_r = int(np.sum((vals_r >= 0.0) & (vals_r < seg.eps)))
        assert rank_l == seg.rank_left and rank_r == seg.rank_right
        total += rank_r - rank_l
    assert total == cert.total


def test_reversal_negates():
    for seed in (0, 4, 9):
        path = trig_path(seed, 4)
        assert sf_phillips(path_reverse(path)).total == -sf_phillips(path).total


def test_concat_adds_and_checks_endpoints():
    f, g = concat_compatible_pair(11, 5)
    joined = path_concat(f, g)
    assert sf_phillips(joined).total == sf_phillips(f).total + sf_phillips(g).total
    with pytest.raises(EndpointError):
        path_concat(f, trig_path(99, 5))  # same dim, different junction values


def test_normalization_and_vanishing():
    for seed in range(6):
        assert sf_all_methods(normalization_path(seed, 4))["value"] == 1
        inv = invertible_trig_path(seed, 4)
        assert certify_invertible(inv)["certified"]
        assert sf_all_methods(inv)["value"] == 0


def test_normalization_under_crossing_oracle_boundary_regression():
    # the pivot sits exactly on a grid sample with |eigenvalue| == step;
    # the movers check must tolerate that boundary case
    for seed in range(8):
        assert sf_crossing_oracle(normalization_path(seed, 3)) == 1


def test_endpoint_invertibility_guard():
    def evaluate(t):
        return HermitianMatrix(np.diag([t, 1.0]))  # singular at t = 0

    path = OperatorPath.from_callable(evaluate, 2, regularity=piecewise_affine((), [1.0]))
    with pytest.raises(EndpointError):
        sf_phillips(path)
    with pytest.raises(EndpointError):
        sf_endpoints(path)


def test_oracle_step_guard_on_tiny_endpoint_gap():
    def evaluate(t):
        return HermitianMatrix(np.diag([1e-5 + t * (1.0 - 1e-5)]))

    path = OperatorPath.from_callable(evaluate, 1, regularity=piecewise_affine((), [1.0 - 1e-5]))
    with pytest.raises(SamplingError):
        sf_crossing_oracle(path)


def test_unbounded_oscillation_exhausts_certification():
    # crosses zero infinitely often near t = 1/2; subdivision cannot shrink
    # the sample-to-sample steps, so the depth budget must run out. No rate
    # bounds this path; the large one declared here makes the test pin only
    # the depth refusal and its window.
    def evaluate(t):
        x = t - 0.5
        lam = 0.7 * np.sin(1.0 / x) if x != 0.0 else 0.0
        return HermitianMatrix(np.array([[lam]]))

    path = OperatorPath.from_callable(evaluate, 1, regularity=lipschitz((), [1e6]))
    with pytest.raises(CertificationError) as err:
        sf_phillips(path, SfOptions(max_depth=10))
    lo, hi = err.value.window
    assert 0.0 <= lo < hi <= 1.0


def test_failed_certification_keeps_no_spare_sample():
    """sf_phillips scores its samples by their eigenvalues alone, so a path
    keeps a matrix only at its ends, a sampled path's knots and the
    junctions sf_pairsum projects: after multi-segment flows, and after a
    subdivision that runs out of depth, which once kept every sample it
    had scored (129 matrices here) for as long as the path lived."""
    sampled = OperatorPath.from_samples(_diagonal_samples(5))
    for path, knots in ((family_path("toeplitz_line", {"m": 3}), ()),
                        (family_path("fuglede_line", {"N": 32, "n": 9}), ()),
                        (sampled, sampled.regularity.knots)):
        segments = sf_all_methods(path)["pairsum_certificate"].segments
        assert len(segments) > 1 or knots
        junctions = {s.t_right for s in segments}
        assert set(path._mats) == {0.0, 1.0}.union(knots, junctions)
    path = OperatorPath.from_callable(
        lambda t: np.diag([1.0 + t, -1.0]), 2, regularity=lipschitz((), [1e5])
    )
    path.endpoint_gaps()
    assert len(path._mats) == 2
    with pytest.raises(CertificationError):
        sf_phillips(path, SfOptions(max_depth=6))
    assert sorted(path._mats) == [0.0, 1.0]


def test_a_one_segment_flow_holds_no_sample_matrix():
    """A one-segment dim-96 flow reads no matrix but the ends': its traced
    peak stays within 16 matrices of 16 n^2 bytes (11.3 of them measured;
    35.3 when sf_phillips kept every sample in case it became a junction)."""
    path = family_path("trig_random", {"gap": 0.5}, seed=1, dim=96)
    tracemalloc.start()
    try:
        result = sf_all_methods(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result["phillips_certificate"].segments) == 1
    assert peak <= 16 * (16 * 96**2)


def test_from_samples():
    mats = [HermitianMatrix(np.diag([v, 2.0])) for v in (-1.0, -0.2, 0.4, 1.0)]
    path = OperatorPath.from_samples(mats)
    assert path.regularity.soundness == "piecewise-affine"
    assert path.regularity.knots == (1.0 / 3.0, 2.0 / 3.0)
    np.testing.assert_allclose(path.regularity.rates, [2.4, 1.8, 1.8], rtol=1e-15)
    assert sf_all_methods(path)["value"] == 1
    np.testing.assert_allclose(path.matrix(0.5).mat, np.diag([0.1, 2.0]), atol=1e-15)
    with pytest.raises(InputError):
        OperatorPath.from_samples(mats[:1])
    with pytest.raises(InputError):
        OperatorPath.from_samples([mats[0], HermitianMatrix(np.diag([1.0, 2.0, 3.0]))])


def _subdivision(cert):
    return [(s.t_left, s.t_right, s.eps, s.weyl_margin) for s in cert.segments]


def test_pairsum_certificate_label_and_total():
    for path in (trig_path(15, 6), family_path("toeplitz_line", {"m": 4})):
        cert = sf_pairsum(path)
        assert cert.method == "pairsum"
        phillips = sf_phillips(path)
        assert cert.total == phillips.total
        assert _subdivision(cert) == _subdivision(phillips)


def test_pairsum_validates_one_projection_per_junction(monkeypatch):
    """Every junction's projection passes the stacked projection check
    once: the matrices of all the checked stacks add up to the junctions."""
    checked = []
    check = matcore._projection_stack

    def counting_check(entries):
        checked.append(len(entries))
        return check(entries)

    monkeypatch.setattr(matcore, "_projection_stack", counting_check)
    cert = sf_pairsum(family_path("toeplitz_line", {"m": 4}))
    assert len(cert.segments) == 3
    assert sum(checked) == len(cert.segments) + 1


def test_kinked_path_agreement():
    a = HermitianMatrix(np.diag([-1.0, 2.0]))
    b = HermitianMatrix(np.diag([0.7, -0.4]))
    c = HermitianMatrix(np.diag([1.3, 0.9]))
    path = OperatorPath.from_samples([a, b, c])
    result = sf_all_methods(path)
    assert result["value"] == dense_sign_count_oracle(path)
    assert set(result["methods"].values()) == {result["value"]}


def test_sf_options_validation():
    with pytest.raises(InputError):
        SfOptions(samples=1)
    with pytest.raises(InputError):
        SfOptions(max_depth=0)


@pytest.mark.parametrize("field", ["samples", "oracle_samples", "max_depth"])
def test_sf_options_refuse_a_bool(field):
    """``SfOptions(max_depth=True)`` was once accepted, and certificates
    printed ``"max_depth": true``."""
    with pytest.raises(InputError, match=f"{field} must be an int >="):
        SfOptions(**{field: True})


@pytest.mark.parametrize("flag", [True, False, np.True_, "1e-3", None, [1e-3]])
def test_sf_options_refuse_a_bool_endpoint_gap(flag):
    """``SfOptions(endpoint_gap=True)`` was once accepted, and certificates
    printed ``"endpoint_gap": true``. The gap is now the fixed invertibility
    convention, which no value sets."""
    with pytest.raises(TypeError, match="endpoint_gap"):
        SfOptions(endpoint_gap=flag)


def test_sf_options_store_the_endpoint_gap_as_a_float():
    """The fixed convention stays a field, so a certificate's options still
    list ``"endpoint_gap": 1e-08``."""
    opts = SfOptions()
    assert type(opts.endpoint_gap) is float and opts.endpoint_gap == 1e-8
    assert [f.name for f in dataclasses.fields(SfOptions)] == [
        "samples", "oracle_samples", "max_depth", "endpoint_gap"
    ]


@pytest.mark.parametrize(
    "evaluate, error, message",
    [
        (lambda ts: np.ones((len(ts) + 1, 2, 2)), InputError, "returned 2 matrices for 1 points$"),
        (lambda ts: np.ones((len(ts), 3, 3)), DimensionMismatchError, "returned dim 3, expected 2$"),
    ],
    ids=["count", "dimension"],
)
def test_a_raw_evaluator_of_the_wrong_count_or_dimension_is_refused(evaluate, error, message):
    path = OperatorPath(evaluate, 2, regularity=lipschitz((), [1.0]))
    with pytest.raises(error, match=message):
        path.matrix(0.0)


def test_operator_path_refuses_a_bool_dim():
    with pytest.raises(InputError, match="dim must be an int >= 1, got True"):
        OperatorPath(lambda ts: np.ones((len(ts), 1, 1)), True, regularity=lipschitz((), [1.0]))


def test_double_reverse_identity():
    path = trig_path(2, 3)
    back = path_reverse(path_reverse(path))
    for t in (0.0, 0.3, 0.77, 1.0):
        np.testing.assert_allclose(back.matrix(t).mat, path.matrix(t).mat, atol=1e-15)


# Dimensions 2-8, plus 48, where a stack of the grids below spans chunks.
SAMPLER_CASES = [(0, 2), (1, 3), (2, 5), (3, 8), (4, 48)]


@pytest.mark.parametrize("seed, dim", SAMPLER_CASES)
def test_sampler_is_bit_identical_to_single_calls(seed, dim):
    path = trig_path(seed, dim)
    ts = np.linspace(0.0, 1.0, 61).tolist()
    assert dim < 48 or len(ts) > specflow._chunk_len(dim)
    for t, v in zip(ts, path.values(ts)):
        assert np.array_equal(v, np.linalg.eigvalsh(path.matrix(t).mat))
        assert path.values(t) is v
    # a declared step bounds the sampled one
    for a, b, step in zip(ts, ts[1:], path.regularity.step_bounds(ts)):
        assert step >= op_norm(path.matrix(b).mat - path.matrix(a).mat)


@pytest.mark.parametrize(
    "name, params",
    [
        ("toeplitz_line", {"m": 5}),
        ("toeplitz_line", {"m": 4, "power": 3}),
        ("toeplitz_line", {"m": 32}),
        ("fuglede_line", {"N": 32, "n": 3, "law": "signed"}),
        ("fuglede_line", {"N": 8, "n": 7, "law": "shifted"}),
    ],
)
def test_diagonal_paths_sample_values_without_lapack(name, params):
    """The conjugation line of a cyclic shift and the rank-one perturbed
    diagonal model are diagonal at every t: the sampler sorts the diagonal,
    bit for bit what a one-matrix LAPACK call returns. At dims 65 (m = 32)
    and 32 the grid spans several chunks."""
    path = family_path(name, params)
    ts = np.linspace(0.0, 1.0, 41).tolist()
    with _run_stats() as stats:
        values = path.values(ts)
    assert stats["path.factored"] == len(ts) and stats["eigvalsh.lapack"] == 0
    chunks = -(-len(ts) // specflow._chunk_len(path.dim))  # one evaluator call per chunk
    assert stats["path.evaluated.calls"] == stats["path.factored.calls"] == chunks
    for t, v in zip(ts, values):
        lapack = np.linalg.eigvalsh(path.matrix(t).mat)
        assert np.array_equal(v.view(np.int64), lapack.view(np.int64))


def _filled_backwards(seed, dim):
    """A path whose sampler caches were filled one point at a time, from
    t = 1 down, on the grids the methods sample first."""
    path = trig_path(seed, dim)
    opts = SfOptions()
    for ts in (
        np.linspace(0.0, 1.0, opts.oracle_samples).tolist(),
        np.linspace(0.0, 1.0, 2 * opts.samples - 1).tolist(),
    ):
        for k in reversed(range(len(ts))):
            path.values(ts[k])
    return path


@pytest.mark.parametrize("seed, dim", SAMPLER_CASES)
def test_results_do_not_depend_on_sampling_order(seed, dim):
    for fn in (sf_all_methods, crossing_oracle_report, certify_invertible):
        assert fn(trig_path(seed, dim)) == fn(_filled_backwards(seed, dim))


def test_pairsum_reuses_the_phillips_subdivision():
    path = trig_path(5, 4)
    sf_phillips(path)
    segments = path.memo(("segments", SfOptions()), lambda: pytest.fail("not held"))
    sf_pairsum(path)
    assert path.memo(("segments", SfOptions()), lambda: pytest.fail("not held")) is segments


def test_evaluation_refuses_entries_whose_steps_could_overflow():
    """A sampled path validates every sample, and a validated matrix keeps
    its entries within half the float range, so no piece rate (a 2-norm of
    the difference of two samples) can overflow: samples of +-1e308 are
    refused when the path is built, before any difference is taken."""
    with pytest.raises(FinitenessError, match="Hermitian average overflows"):
        OperatorPath.from_samples([np.diag([-1e308, 1.0]), np.diag([1e308, 1.0])])


def _homotopy_row(label, dim):
    """Row s = 0.4 of the first seeded homotopy family with this label."""
    for seed in range(64):
        row, _s_grid, got = homotopy_family(seed, dim)
        if got == label:
            return row(0.4)
    raise AssertionError(f"no seed gives {label}")


def _connector(dim):
    rng = np.random.default_rng(dim)
    t1 = random_invertible_hermitian(rng, dim)
    w = random_unitary(rng, dim).mat
    return connect_invertibles(t1, HermitianMatrix(2.0 * w @ t1.mat @ w.conj().T))


def _conjugation(dim):
    d = half_integer_diagonal(dim // 2)
    return conjugation_path(d, cyclic_shift(d.dim, 2))


def _endpoints(dim):
    rng = np.random.default_rng(100 + dim)
    return [HermitianMatrix(random_hermitian(rng, dim)) for _ in range(4)]


def _linear_interp(dim):
    a, b = _endpoints(dim)[:2]
    return family_path("linear_interp", {"a": a, "b": b})


def _diagonal_samples(dim):
    """9 real diagonal samples of dimension ``dim`` whose first entry
    crosses zero once, between the fourth and fifth."""
    rest = [(-1.0) ** k * (k + 1.0) for k in range(1, dim)]
    return [HermitianMatrix.diag([t - 0.45] + rest) for t in np.linspace(0.0, 1.0, 9)]


def _diagonal_concat(dim):
    """Two diagonal lines joined at the middle sample."""
    s = _diagonal_samples(dim)
    first, second = ({"a": s[i], "b": s[i + 4]} for i in (0, 4))
    return path_concat(family_path("linear_interp", first), family_path("linear_interp", second))


def _scalar_callable(dim):
    a, b, c = _endpoints(dim)[:3]
    return OperatorPath.from_callable(
        lambda t: HermitianMatrix((1.0 - t) * a.mat + t * b.mat + np.sin(5.0 * t) * c.mat),
        dim,
        regularity=lipschitz((), [op_norm(b.mat - a.mat) + 5.0 * op_norm(c.mat)]),
    )


# Every path family the library builds, each as a factory of a fresh path.
PATH_FAMILIES = {
    "trig": lambda dim: trig_path(7, dim),
    "concat_partner": lambda dim: concat_compatible_pair(7, dim)[1],
    "invertible_drift": lambda dim: invertible_trig_path(7, dim),
    "normalization": lambda dim: normalization_path(7, dim),
    "linear_interp": _linear_interp,
    "fuglede_line": lambda dim: family_path("fuglede_line", {"n": 3, "N": dim}),
    "toeplitz_line": lambda dim: family_path("toeplitz_line", {"m": dim // 2, "power": 2}),
    "from_callable": _scalar_callable,
    "from_samples": lambda dim: OperatorPath.from_samples(_endpoints(dim)),
    "from_samples_diagonal": lambda dim: OperatorPath.from_samples(_diagonal_samples(dim)),
    "concat": lambda dim: path_concat(*concat_compatible_pair(7, dim)),
    "concat_diagonal": _diagonal_concat,
    "reverse": lambda dim: path_reverse(path_concat(*concat_compatible_pair(7, dim))),
    "conjugation_path": _conjugation,
    "homotopy_drift_row": lambda dim: _homotopy_row("additive_drift", dim),
    "homotopy_conjugation_row": lambda dim: _homotopy_row("unitary_conjugation", dim),
    "connector": _connector,
}


@pytest.mark.parametrize("dim", [5, 48])
@pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
def test_batched_evaluation_is_bit_identical(family, dim):
    """Point by point, one grid, the same grid backwards: the same matrices.
    At dim 48 the grid spans several chunks."""
    make = PATH_FAMILIES[family]
    grid = sorted(set(np.linspace(0.0, 1.0, 33).tolist()) | {0.1234567, 1.0 / 3.0, 0.5123})
    assert dim < 48 or len(grid) > 3 * specflow._chunk_len(dim)
    one = make(dim)
    single = [one.matrix(t).mat for t in grid]
    batched = [m.mat for m in make(dim).matrices(grid)]
    backwards = [m.mat for m in make(dim).matrices(grid[::-1])][::-1]
    for k in range(len(grid)):
        assert np.array_equal(single[k], batched[k])
        assert np.array_equal(single[k], backwards[k])


@pytest.mark.parametrize("family", ["trig", "concat"])
def test_batched_evaluation_is_bit_identical_one_matrix_per_chunk(family):
    """At dim 128 a chunk holds one matrix, so every grid point is its own
    evaluator call."""
    assert specflow._chunk_len(128) == 1
    test_batched_evaluation_is_bit_identical(family, 128)


@pytest.mark.parametrize(
    "make",
    [
        lambda dim: trig_path(3, dim),
        lambda dim: trig_path(3, dim, degree=8, scale=4.0),
        lambda dim: concat_compatible_pair(3, dim)[1],
    ],
    ids=["trig", "trig_deg8", "concat_partner"],
)
def test_trig_families_evaluate_exactly_hermitian(make):
    """Real combinations of exactly Hermitian coefficients: every sample
    equals its adjoint bit for bit, before any validation."""
    for dim in (1, 4, 48):
        path = make(dim)
        stack = np.asarray(path._evaluator(np.linspace(0.0, 1.0, 21)))
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))


def test_evaluator_gets_one_call_per_chunk():
    calls = []
    path = trig_path(3, 48)
    evaluate = path._evaluator

    def counting(ts):
        assert ts.dtype == np.float64 and ts.ndim == 1
        calls.append(ts.size)
        return evaluate(ts)

    path._evaluator = counting
    grid = np.linspace(0.0, 1.0, 50).tolist()
    path.matrices(grid)
    path.values(grid)
    size = specflow._chunk_len(48)
    assert calls == [size] * (50 // size) + [50 % size]
    # eigenvalues of a declared path keep no matrix
    fresh = trig_path(3, 48)
    fresh.values(grid)
    assert fresh._mats == {}


def _sampled_path():
    mats = [HermitianMatrix(np.diag([v, 2.0])) for v in (-1.0, -0.2, 0.4, 1.0)]
    return OperatorPath.from_samples(mats)


# Paths whose kept matrices come from each route: the ends and segment ends
# (families, composites and a scalar callable), and the knots (sampled
# paths); the diagonal ones factor their chunks through their diagonals.
EVALUATE_ONCE_PATHS = {
    "fuglede_line": lambda: family_path("fuglede_line", {"N": 32, "n": 3}),
    "toeplitz_line": lambda: family_path("toeplitz_line", {"m": 3}),
    "concat": lambda: path_concat(*concat_compatible_pair(7, 4)),
    "concat_diagonal": lambda: _diagonal_concat(5),
    "from_samples_diagonal": lambda: OperatorPath.from_samples(_diagonal_samples(5)),
    "reverse": lambda: path_reverse(path_concat(*concat_compatible_pair(7, 4))),
    "reverse_of_reverse": lambda: path_reverse(
        path_reverse(path_concat(*concat_compatible_pair(7, 4)))
    ),
    "there_and_back": lambda: _there_and_back(trig_path(7, 4)),
    "from_callable": pivot_path,
    "from_samples": _sampled_path,
}


def _parts(path) -> list:
    """The paths a composite is made of; none for any other path."""
    if not isinstance(path, paths._Composite):
        return []
    return [part for part, _, _ in path._pieces(np.array([0.25, 0.75]))]


def _leaves(path) -> list:
    """The paths that own the points of ``path``, each once: the path
    itself, or the leaves of a composite's parts."""
    if not _parts(path):
        return [path]
    return list({id(leaf): leaf for part in _parts(path) for leaf in _leaves(part)}.values())


def _owners(path, ts) -> set:
    """The (leaf path, parameter) pairs that own the points ``ts`` of
    ``path``: a composite's point maps through ``pieces`` to its part's."""
    if not isinstance(path, paths._Composite):
        return {(path, t) for t in ts}
    owners = set()
    for part, _, part_ts in path._pieces(np.array(list(ts), dtype=np.float64)):
        owners |= _owners(part, part_ts.tolist())
    return owners


def _held_points(path) -> set:
    """The owning points of the eigenvalue rows held on ``path`` and on
    the paths it is made of."""
    held = _owners(path, path._vals)
    for part in _parts(path):
        held |= _held_points(part)
    return held


@pytest.mark.parametrize("family", sorted(EVALUATE_ONCE_PATHS))
def test_methods_evaluate_each_point_once(family):
    """No point's eigenvalues are computed twice: the rows the paths factor
    (the run record's ``path.factored``, LAPACK's or a diagonal chunk's
    sorted diagonals) are as many as the distinct points that own them, a
    composite's point owned by the (leaf path, parameter) it maps to, so a
    point two composites share is factored once. A leaf's evaluator sees a
    point again only as an inner junction: sf_phillips scores its samples
    by their eigenvalues alone, so the inner segment ends that sf_pairsum
    projects are evaluated a second time (t = 0.5 on toeplitz_line), their
    eigenvalues not computed again. That holds whether certify_invertible,
    which keeps the ends the flows' junctions read, runs before the flows
    or after them. The record's ``path.evaluated`` counts each point the
    leaves' evaluators are asked for."""
    for certify_first in (False, True):
        path = EVALUATE_ONCE_PATHS[family]()
        before = _held_points(path)
        asked = {leaf: counted_points(leaf) for leaf in _leaves(path)}
        with _run_stats() as stats:
            if certify_first:
                certify_invertible(path)
            segments = sf_all_methods(path)["pairsum_certificate"].segments
            certify_invertible(path)
        assert any(asked.values()) and stats["path.factored"]
        assert stats["path.factored"] == len(_held_points(path) - before), certify_first
        assert stats["path.evaluated"] == sum(map(len, asked.values())), certify_first
        repeats = {(leaf, t) for leaf, ts in asked.items()
                   for t, n in Counter(ts).items() if n > 1}
        assert repeats <= _owners(path, [s.t_right for s in segments[:-1]]), certify_first


def _assert_kept_matrices_have_values(*paths):
    for path in paths:
        assert set(path._mats) <= set(path._vals)


@pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
def test_every_kept_matrix_has_its_eigenvalues(family):
    """Whatever the path is asked, and whichever path built on it is, a
    matrix the path keeps has its eigenvalues held next to it, also after
    a flow or certification that raised."""
    path = PATH_FAMILIES[family](5)
    _assert_kept_matrices_have_values(path)
    path.matrix(0.3)
    path.matrices([0.1, 0.3, 0.6])
    path.values([0.2, 0.3])
    _assert_kept_matrices_have_values(path)
    joined = path_concat(path, path_reverse(path))
    _assert_kept_matrices_have_values(path, joined)
    for call in (certify_invertible, sf_all_methods):
        for target in (path, joined):
            with contextlib.suppress(SpecFlowError):
                call(target)
            _assert_kept_matrices_have_values(path, joined)


@pytest.mark.parametrize("family", sorted(PATH_FAMILIES))
def test_every_kept_point_is_a_hermitian_matrix(family):
    """A path keeps each point in one form, its ``HermitianMatrix``: after
    the flows, after the invertibility certificate and after its knots are
    asked for, on the path and on the paths it is made of."""
    path = PATH_FAMILIES[family](5)
    for call in (sf_all_methods, certify_invertible,
                 lambda p: p.matrices(p.regularity.knots)):
        call(path)
        kept = [m for leaf in _leaves(path) for m in leaf._mats.values()]
        assert kept and all(isinstance(m, HermitianMatrix) for m in kept)


def test_kept_matrices_have_values_after_partial_use():
    """A one-point matrix, the parts of a concatenation, and a path whose
    certification failed."""
    path = trig_path(3, 4)
    path.matrix(0.3)
    _assert_kept_matrices_have_values(path)
    f, g = concat_compatible_pair(7, 4)
    path_concat(f, g)
    _assert_kept_matrices_have_values(f, g)
    failing = OperatorPath.from_callable(
        lambda t: np.diag([1.0 + t, -1.0]), 2, regularity=lipschitz((), [1e5])
    )
    with pytest.raises(CertificationError):
        sf_phillips(failing, SfOptions(max_depth=6))
    _assert_kept_matrices_have_values(failing)


@pytest.mark.parametrize(
    "make",
    [
        lambda: trig_path(7, 6),
        lambda: family_path("trig_random", {"gap": 0.5}, seed=3, dim=48),
        lambda: normalization_path(7, 5),
        lambda: invertible_trig_path(7, 5),
        lambda: family_path("toeplitz_line", {"m": 5}),
        lambda: family_path("fuglede_line", {"N": 16, "n": 5}),
        lambda: path_concat(*concat_compatible_pair(7, 5)),
    ],
    ids=["trig", "trig_gap_dim48", "normalization", "invertible_drift", "toeplitz_line",
         "fuglede_line", "concat"],
)
def test_declared_paths_keep_only_the_segment_ends(make):
    """The matrices kept are those of the segment ends, on the paths that
    own them: a concatenation's parts keep its junctions and their own
    ends, which path_concat compares."""
    path = make()
    segments = sf_all_methods(path)["phillips_certificate"].segments
    junctions = [segments[0].t_left] + [s.t_right for s in segments]
    leaves = _leaves(path)
    kept = {(leaf, t) for leaf in leaves for t in leaf._mats}
    assert kept == _owners(path, junctions) | {(leaf, t) for leaf in leaves for t in (0.0, 1.0)}
    assert len(path._mats) == (0 if _parts(path) else len(segments) + 1)


def test_large_diagonal_path_holds_few_matrices():
    """A dim-128 path whose oracle evaluates about 200 points keeps their
    eigenvalues, not 256 KB per matrix; sf_phillips scores its samples by
    their eigenvalues alone and a diagonal chunk is validated without a
    copy, so the traced peak stays below 8 MiB (about 21 MB when each
    sample sf_phillips subdivided was kept as a dense matrix)."""
    path = family_path("fuglede_line", {"N": 128, "n": 40})
    tracemalloc.start()
    try:
        result = sf_all_methods(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path._vals) > 100
    assert peak < 8 * 2**20
    assert len(path._mats) == len(result["phillips_certificate"].segments) + 1


@pytest.mark.parametrize("family", ["fuglede_line", "toeplitz_line", "concat_diagonal",
                                    "from_samples_diagonal"])
def test_a_diagonal_chunk_takes_one_diagonal_test(family, monkeypatch):
    """The sampling engine tests each evaluated chunk once for a diagonal
    stack (``_real_diagonals``, one count over the chunk), or, on a
    diagonal path, its diagonals by the band (``_unscaled``): that test
    gives the eigenvalues and the kept matrices too, also for points whose
    eigenvalues were held before their matrices. A composite evaluates and
    tests nothing; its parts' chunks are each tested once."""
    path = PATH_FAMILIES[family](6)
    chunks = []
    for p in _leaves(path):
        evaluate = p._evaluator
        p._evaluator = lambda ts, evaluate=evaluate: chunks.append(len(ts)) or evaluate(ts)
    tests = []
    for module, name in ((matcore, "_real_diagonals"), (paths, "_unscaled")):
        test = getattr(module, name)
        monkeypatch.setattr(module, name, lambda s, test=test: tests.append(len(s)) or test(s))
    grid = np.linspace(0.0, 1.0, 65)
    path.values(grid[::2])
    path.matrices(grid[1::4])
    path.matrices(grid[::8])
    assert chunks and len(tests) == len(chunks)


def test_stacked_evaluator_errors_match_the_scalar_ones():
    def bad_stack(kind):
        def evaluate(ts):
            out = np.array([np.diag([t + 1.0, 2.0, 3.0]) for t in ts], dtype=complex)
            if kind == "nan":
                out[len(ts) // 2, 1, 1] = np.nan
            else:
                out[len(ts) // 2, 0, 1] = 1e-6
            return out

        return OperatorPath(evaluate, 3, regularity=lipschitz((), [1.0]))

    grid = np.linspace(0.0, 1.0, 9).tolist()
    with pytest.raises(FinitenessError, match="finite"):
        bad_stack("nan").values(grid)
    single = np.diag([1.0, 2.0, 3.0]).astype(complex)
    single[0, 1] = 1e-6
    with pytest.raises(HermiticityError) as scalar:
        HermitianMatrix(single)
    with pytest.raises(HermiticityError) as stacked:
        bad_stack("asymmetric").values(grid)
    assert str(stacked.value) == str(scalar.value)


@pytest.mark.parametrize(
    "bad", [np.eye(2), np.zeros((3, 4)), np.ones(3), np.array([[1.0, 2.0], [0.0, 1.0]])]
)
def test_scalar_callable_of_the_wrong_shape(bad):
    """A wrong-shape matrix in the middle of a grid raises what a one-point
    evaluation raises. A square matrix of the wrong size names its size,
    even when it is not Hermitian."""

    def evaluate(t):
        return bad if t == 0.5 else np.eye(3)

    with pytest.raises(InputError) as single:
        OperatorPath.from_callable(evaluate, 3, regularity=lipschitz((), [1.0])).matrix(0.5)
    if bad.shape == (2, 2):
        assert str(single.value) == "path evaluator returned dim 2, expected 3"
    path = OperatorPath.from_callable(evaluate, 3, regularity=lipschitz((), [1.0]))
    path.values([0.0, 0.25])
    with pytest.raises(type(single.value)) as stacked:
        path.values(np.linspace(0.0, 1.0, 5))
    assert str(stacked.value) == str(single.value)
    with pytest.raises(InputError, match="outside"):
        path.matrices([0.0, 1.5])


def test_endpoints_are_measured_once_per_path(monkeypatch):
    """The end gaps and their rounding slack are measured once per path
    across every method and certify_invertible, and each grid is built
    once per sample count; the end check still raises on every call."""
    measured = []
    rule = paths._singular
    monkeypatch.setattr(paths, "_singular", lambda dim, vals: measured.append(dim) or rule(dim, vals))
    path = trig_path(7, 6)
    sf_all_methods(path)
    certify_invertible(path)
    sf_all_methods(path, SfOptions(samples=17))
    assert measured == [6]
    assert path.grid(33) is path.grid(33)
    # 1.5e-8 less its rounding slack fails the rule at t = 0
    singular = OperatorPath.from_samples([np.diag([1.5e-8, 1e8, -3.0]), np.diag([2.0, 1e8, -3.0])])
    for _ in range(2):
        with pytest.raises(EndpointError, match="must be invertible"):
            sf_endpoints(singular)
    assert measured == [6, 3]


@pytest.mark.parametrize(
    "compose",
    [path_concat, lambda f, g: path_reverse(path_concat(f, g)), lambda f, g: path_reverse(f)],
    ids=["concat", "reverse_of_concat", "reverse"],
)
def test_composites_validate_each_evaluated_point_once(compose):
    """A composite checks nothing itself: the rows checked while its flow
    and invertibility certificate run are the points its parts evaluate."""
    f, g = concat_compatible_pair(5, 4)
    path = compose(f, g)
    asked = [counted_points(f), counted_points(g)]
    with _run_stats() as stats:
        sf_all_methods(path)
        certify_invertible(path)
    evaluated = sum(len(points) for points in asked)
    assert evaluated and stats["path.evaluated"] == evaluated


@pytest.mark.parametrize("seed, dim", [(0, 2), (1, 3), (2, 4), (3, 6), (4, 8)])
def test_composite_reads_what_its_parts_sampled(seed, dim):
    """After the flows of f and g, the flow of f then g takes the parts'
    eigenvalues at the mapped points (2t, 2t - 1) and their kept matrices:
    a point a part sampled reaches its evaluator again only as a junction
    of the composite whose matrix the part did not keep (one point, g at
    0.5, for seed 1 at dim 3). The result is a fresh composite's."""
    f, g = concat_compatible_pair(seed, dim)
    sf_all_methods(f)
    sf_all_methods(g)
    parts = {"f": f, "g": g}
    sampled = {name: set(p._vals) for name, p in parts.items()}
    kept = {name: set(p._mats) for name, p in parts.items()}
    asked = {name: counted_points(p) for name, p in parts.items()}
    result = sf_all_methods(path_concat(f, g))
    assert repr(result) == repr(sf_all_methods(path_concat(*concat_compatible_pair(seed, dim))))
    cert = result["pairsum_certificate"]
    junctions = {"f": set(), "g": set()}
    for t in [cert.segments[0].t_left] + [s.t_right for s in cert.segments]:
        if t <= 0.5:
            junctions["f"].add(2.0 * t)
        else:
            junctions["g"].add(2.0 * t - 1.0)
    for name in parts:
        again = sampled[name].intersection(asked[name])
        assert again <= junctions[name] - kept[name], name


@pytest.mark.parametrize(
    "compose",
    [path_concat, lambda f, g: path_reverse(path_concat(f, g)),
     lambda f, g: _there_and_back(f)],
    ids=["concat", "reverse", "there_and_back"],
)
def test_a_composite_evaluates_and_holds_nothing(compose):
    """A composite has no evaluator, and after its flows and invertibility
    certificate it, and any composite it is made of, holds no eigenvalues
    and no matrix: t = 0.5 of each is f at 1.0, the very objects f holds."""
    f, g = concat_compatible_pair(5, 4)
    path = compose(f, g)
    sf_all_methods(path)
    certify_invertible(path)
    composites, todo = [], [path]
    while todo:
        composites += [p for p in todo if _parts(p)]
        todo = [part for p in todo for part in _parts(p)]
    assert composites
    for c in composites:
        assert c._evaluator is None and c._vals == {} and c._mats == {}
    assert path.matrix(0.5) is f.matrix(1.0)
    assert path.values(0.5) is f.values(1.0)
    # a reversal maps -1e-20 to 1.0, so the composite checks its own t
    for ask in (path.values, path.matrices):
        with pytest.raises(InputError, match=r"^path parameter -1e-20 outside \[0, 1\]$"):
            ask(np.array([0.5, -1e-20]))


def test_a_composite_projects_no_junction_its_parts_projected():
    """After sf_pairsum of f and of g, sf_pairsum of f then g computes a
    validated eigh (``matcore._eigh_stack``) only for the junctions whose
    matrices f and g have not projected: a junction's matrix is its
    owner's, with the decomposition cached on it."""
    f, g = concat_compatible_pair(5, 4)
    sf_pairsum(f)
    sf_pairsum(g)
    projected = {(p, t) for p in (f, g) for t, m in p._mats.items()
                 if m._eig is not None}
    path = path_concat(f, g)
    with _run_stats() as stats:
        segments = sf_pairsum(path).segments
    owners = _owners(path, [segments[0].t_left] + [s.t_right for s in segments])
    assert owners & projected
    assert stats["eigh"] == len(owners - projected)


def test_concat_of_equal_ends_takes_no_norm():
    """Bit-identical ends differ by 0, within any limit, so path_concat
    takes no 2-norm (each an SVD); ends that differ still take three (the
    mismatch and both ends, for the limit 1e-10 * (1 + max |end|)), and a
    mismatch beyond the limit is refused with both figures."""
    f, g = concat_compatible_pair(3, 5)
    a = HermitianMatrix(np.diag([1.0, -2.0]))
    b = HermitianMatrix(np.diag([3.0, -1.0]))
    line = OperatorPath.from_samples([a, b])
    close = OperatorPath.from_samples([HermitianMatrix(np.diag([3.0 + 1e-12, -1.0])), a])
    far = OperatorPath.from_samples([HermitianMatrix(np.diag([3.0 + 1e-3, -1.0])), a])
    with _run_stats() as stats:
        path_concat(f, g)
    assert stats["norm.svd"] == stats["norm.diagonal"] == 0
    with _run_stats() as stats:
        path_concat(line, close)
    assert stats["norm.svd"] == 3
    with pytest.raises(EndpointError) as err:
        path_concat(line, far)
    assert str(err.value) == "concatenation endpoints differ by 1.000e-03 (limit 4.001e-10)"


@pytest.mark.parametrize("samples", [2, 9, 33, 257])
def test_grids_are_the_uniform_points_and_the_knots(samples):
    """The uniform points are built once per sample count and shared by
    knotless paths; a path with knots merges them, with the same bits."""
    uniform = sorted(set(np.linspace(0.0, 1.0, samples).tolist()))
    plain = [family_path("toeplitz_line", {"m": m}) for m in (1, 2)]
    assert plain[0].grid(samples)[0] is plain[1].grid(samples)[0]
    assert list(plain[0].grid(samples)[0]) == uniform
    knotted = path_concat(*concat_compatible_pair(4, 3))
    assert knotted.regularity.knots
    assert list(knotted.grid(samples)[0]) == sorted(
        set(uniform) | set(knotted.regularity.knots)
    )


def test_the_grid_cache_forgets_old_sample_counts():
    """The uniform grids are shared through a cache of the last few sample
    counts: a 200,000-point grid (about 6 MB traced) is freed once grids at
    10 other counts were built and its paths deleted. The cache once kept
    every count's grid for the life of the process."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        path = family_path("toeplitz_line", {"m": 1})
        path.grid(200_003)
        built = tracemalloc.get_traced_memory()[0] - start
        del path
        for samples in range(1_001, 1_011):
            family_path("toeplitz_line", {"m": 1}).grid(samples)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert built > 5 * 2**20
    assert held < 2**20


@pytest.mark.parametrize("dim", [2, 128])
def test_a_grid_beyond_the_cap_is_refused_before_it_is_built(dim):
    """A grid whose points could hold more than ``_GRID_CAP_BYTES`` is an
    input error, raised before anything is allocated: 10^8 samples at dim 2
    once got the process killed. A point is charged the measured peak of a
    flow's sample, 8 rows of n eigenvalues and 512 bytes, not a matrix. At
    dim 128 the largest grid under the cap is built."""
    most = paths._GRID_CAP_BYTES // (8 * paths._PEAK_ROWS * dim + paths._POINT_BYTES)
    if dim == 2:
        path = OperatorPath.from_samples(
            [HermitianMatrix(np.diag([v, 2.0])) for v in (-1.0, 0.2, 1.0)]
        )
    else:
        path = family_path("fuglede_line", {"N": 128, "n": 40})
    assert path.dim == dim
    with pytest.raises(InputError, match=f"^samples {most + 1} at dim {dim} would hold"):
        path.grid(most + 1)
    if dim == 128:
        assert len(path.grid(most)[0]) == most
    tracemalloc.start()
    try:
        for opts in (SfOptions(samples=10**8), SfOptions(oracle_samples=10**8)):
            with pytest.raises(InputError) as err:
                sf_all_methods(path, opts)
            assert str(err.value) == (
                f"samples 100000000 at dim {dim} would hold about "
                f"{10**8 * (64 * dim + 512):.2e} bytes; "
                "the grid cap is 1073741824 bytes"
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21
