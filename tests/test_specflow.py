"""Spectral flow: the four methods, certificates, path algebra, guards.

The brute-force oracle for small hand-built paths is a dense sign count
done right here in the test, independent of the library's own oracle.
"""

from functools import partial

import numpy as np
import pytest

from conftest import random_hermitian
from specflowlab.axioms import connect_invertibles
from specflowlab.errors import (
    CertificationError,
    ConsistencyFault,
    DimensionMismatchError,
    EndpointError,
    FinitenessError,
    HermiticityError,
    InputError,
    SamplingError,
)
from specflowlab.matcore import HermitianMatrix, Projection, op_norm
from specflowlab.specflow import (
    OperatorPath,
    SfOptions,
    certify_invertible,
    crossing_oracle_report,
    path_concat,
    path_reverse,
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
    random_invertible_hermitian,
    random_unitary,
    trig_path,
)
from specflowlab.toeplitz import conjugation_path
from specflowlab import specflow


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

    return OperatorPath.from_callable(evaluate, 3)


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

    path = OperatorPath.from_callable(evaluate, 2)
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

    path = OperatorPath.from_callable(evaluate, 2)
    with pytest.raises(EndpointError):
        sf_phillips(path)
    with pytest.raises(EndpointError):
        sf_endpoints(path)


def test_oracle_step_guard_on_tiny_endpoint_gap():
    def evaluate(t):
        return HermitianMatrix(np.diag([1e-5 + t * (1.0 - 1e-5)]))

    path = OperatorPath.from_callable(evaluate, 1)
    with pytest.raises(SamplingError):
        sf_crossing_oracle(path)


def test_unbounded_oscillation_exhausts_certification():
    # crosses zero infinitely often near t = 1/2; subdivision cannot shrink
    # the sample-to-sample steps, so the depth budget must run out
    def evaluate(t):
        x = t - 0.5
        lam = 0.7 * np.sin(1.0 / x) if x != 0.0 else 0.0
        return HermitianMatrix(np.array([[lam]]))

    path = OperatorPath.from_callable(evaluate, 1)
    with pytest.raises(CertificationError) as err:
        sf_phillips(path, SfOptions(max_depth=10))
    lo, hi = err.value.window
    assert 0.0 <= lo < hi <= 1.0


def test_from_samples_and_resample():
    mats = [HermitianMatrix(np.diag([v, 2.0])) for v in (-1.0, -0.2, 0.4, 1.0)]
    path = OperatorPath.from_samples(mats)
    assert path.kind == "sampled"
    assert sf_all_methods(path)["value"] == 1
    snap = path.resample(9)
    np.testing.assert_allclose(snap.matrix(0.5).mat, path.matrix(0.5).mat, atol=1e-15)
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
    built = []

    def counting_projection(entries):
        built.append(entries)
        return Projection(entries)

    monkeypatch.setattr(specflow, "Projection", counting_projection)
    cert = sf_pairsum(family_path("toeplitz_line", {"m": 4}))
    assert len(cert.segments) == 3
    assert len(built) == len(cert.segments) + 1


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
    with pytest.raises(InputError):
        SfOptions(endpoint_gap=-1.0)


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
    for a, b, step in zip(ts, ts[1:], path.steps(ts)):
        assert step == op_norm(path.matrix(b).mat - path.matrix(a).mat)


def _filled_backwards(seed, dim):
    """A path whose sampler caches were filled one point and one step at a
    time, from t = 1 down, on the grids the methods sample first."""
    path = trig_path(seed, dim)
    opts = SfOptions()
    for ts in (
        np.linspace(0.0, 1.0, opts.oracle_samples).tolist(),
        np.linspace(0.0, 1.0, 2 * opts.samples - 1).tolist(),
    ):
        for k in reversed(range(len(ts))):
            path.values(ts[k])
            path.steps(ts[k - 1 : k + 1])
    return path


@pytest.mark.parametrize("seed, dim", SAMPLER_CASES)
def test_results_do_not_depend_on_sampling_order(seed, dim):
    for fn in (sf_all_methods, crossing_oracle_report, certify_invertible):
        assert fn(trig_path(seed, dim)) == fn(_filled_backwards(seed, dim))


def test_pairsum_reuses_the_phillips_subdivision():
    path = trig_path(5, 4)
    sf_phillips(path)
    (segments,) = path._segments.values()
    sf_pairsum(path)
    assert path._segments[SfOptions()] is segments


def test_steps_reject_a_non_finite_difference():
    class Unvalidated(HermitianMatrix):
        """Skips validation: a HermitianMatrix's entries stay within half
        the float range, so their differences cannot overflow otherwise."""

        __slots__ = ()

        def __init__(self, entries):
            self._mat = np.asarray(entries, dtype=np.complex128)
            self._norm = None

    def evaluate(t):
        return Unvalidated(np.diag([1e308 if t > 0.5 else -1e308, 1.0]))

    path = OperatorPath.from_callable(evaluate, 2)
    with np.errstate(over="ignore"), pytest.raises(FinitenessError):
        path.steps([0.0, 1.0])


def _homotopy_row(label, dim):
    """Row s = 0.4 of the first seeded homotopy family with this label."""
    for seed in range(64):
        h_of, _s_grid, got = homotopy_family(seed, dim)
        if got == label:
            return OperatorPath(partial(h_of, 0.4), dim)
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


def _scalar_callable(dim):
    a, b, c = _endpoints(dim)[:3]
    return OperatorPath.from_callable(
        lambda t: HermitianMatrix((1.0 - t) * a.mat + t * b.mat + np.sin(5.0 * t) * c.mat),
        dim,
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
    "concat": lambda dim: path_concat(*concat_compatible_pair(7, dim)),
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
    stacked = make(dim).stack(np.array(grid))
    assert stacked.shape == (len(grid), one.dim, one.dim)
    for k in range(len(grid)):
        assert np.array_equal(single[k], batched[k])
        assert np.array_equal(single[k], backwards[k])
        assert np.array_equal(single[k], stacked[k])


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
    path.values(grid)
    path.steps(grid)
    path.matrices(grid)
    size = specflow._chunk_len(48)
    assert calls == [size] * (50 // size) + [50 % size]


def test_stacked_evaluator_errors_match_the_scalar_ones():
    def bad_stack(kind):
        def evaluate(ts):
            out = np.array([np.diag([t + 1.0, 2.0, 3.0]) for t in ts], dtype=complex)
            if kind == "nan":
                out[len(ts) // 2, 1, 1] = np.nan
            else:
                out[len(ts) // 2, 0, 1] = 1e-6
            return out

        return OperatorPath(evaluate, 3)

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


@pytest.mark.parametrize("bad", [np.eye(2), np.zeros((3, 4)), np.ones(3)])
def test_scalar_callable_of_the_wrong_shape(bad):
    """A wrong-shape matrix in the middle of a grid raises what a one-point
    evaluation raises."""

    def evaluate(t):
        return bad if t == 0.5 else np.eye(3)

    with pytest.raises(InputError) as single:
        OperatorPath.from_callable(evaluate, 3).matrix(0.5)
    if bad.shape == (2, 2):
        assert str(single.value) == "path evaluator returned dim 2, expected 3"
    path = OperatorPath.from_callable(evaluate, 3)
    path.values([0.0, 0.25])
    with pytest.raises(type(single.value)) as stacked:
        path.values(np.linspace(0.0, 1.0, 5))
    assert str(stacked.value) == str(single.value)
    with pytest.raises(InputError, match="outside"):
        path.matrices([0.0, 1.5])
