"""Spectral flow: the four methods, certificates, path algebra, guards.

The brute-force oracle for small hand-built paths is a dense sign count
done right here in the test, independent of the library's own oracle.
"""

import numpy as np
import pytest

from specflowlab.errors import (
    CertificationError,
    ConsistencyFault,
    EndpointError,
    FinitenessError,
    InputError,
    SamplingError,
)
from specflowlab.matcore import HermitianMatrix, op_norm
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
    invertible_trig_path,
    normalization_path,
    trig_path,
)
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


def test_pairsum_certificate_label_and_total():
    path = trig_path(15, 6)
    cert = sf_pairsum(path)
    assert cert.method == "pairsum"
    assert cert.total == sf_phillips(path).total


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
