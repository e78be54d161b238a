"""Law checks for the path-to-integer maps, and the converse connector."""

import numpy as np
import pytest

from specflowlab import (
    InputError,
    SfOptions,
    builtin_functionals,
    certify_invertible,
    check_concatenation,
    check_homotopy,
    check_invertible_vanishing,
    check_normalization,
    clamp_spectrum_away_from_zero,
    component_label,
    connect_invertibles,
    normalization_path,
    random_hermitian,
    random_invertible_hermitian,
    run_all_checks,
    sf_all_methods,
    sf_endpoints,
)

OPTS = SfOptions()
METHOD_NAMES = ("phillips", "pairsum", "endpoints", "crossing_oracle")


def test_builtin_functional_names_and_values():
    funs = builtin_functionals(OPTS)
    assert tuple(f.name for f in funs) == METHOD_NAMES
    pivot = normalization_path(0, 3)
    assert [f(pivot) for f in funs] == [1, 1, 1, 1]


@pytest.mark.parametrize("method_idx", range(4))
def test_concatenation_law_small(method_idx):
    fun = builtin_functionals(OPTS)[method_idx]
    rep = check_concatenation(fun, trials=8, seed=11)
    assert rep["ok"], rep["failures"]
    assert rep["method"] == METHOD_NAMES[method_idx]


def test_homotopy_law_small():
    fun = builtin_functionals(OPTS)[0]
    rep = check_homotopy(fun, trials=5, seed=1)
    assert rep["ok"], rep["failures"]
    # inconclusive rows are allowed but should not be the whole run
    assert rep["inconclusive"] < rep["trials"]


def test_normalization_law_small():
    for fun in builtin_functionals(OPTS):
        rep = check_normalization(fun, trials=6, seed=2)
        assert rep["ok"], rep["failures"]


def test_vanishing_law_small():
    fun = builtin_functionals(OPTS)[2]
    rep = check_invertible_vanishing(fun, trials=8, seed=3, opts=OPTS)
    assert rep["ok"], rep["failures"]


def test_run_all_checks_shape():
    reports = run_all_checks(
        seed=0,
        concat_trials=3,
        homotopy_trials=2,
        normalization_trials=3,
        vanishing_trials=3,
        opts=OPTS,
    )
    assert len(reports) == 16
    assert all(r["ok"] for r in reports)
    checks = {r["check"] for r in reports}
    assert checks == {
        "concatenation",
        "homotopy",
        "normalization",
        "invertible_vanishing",
    }
    methods = {r["method"] for r in reports}
    assert methods == set(METHOD_NAMES)


def test_component_label_counts_nonneg_space():
    assert component_label(np.diag([3.0, -1.0, 2.0])) == 2
    assert component_label(np.diag([-1.0, -2.0])) == 0
    with pytest.raises(InputError):
        component_label(np.diag([0.0, 1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_connector_joins_same_label(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    t1 = clamp_spectrum_away_from_zero(random_hermitian(rng, dim, 2.0), 0.4)
    # build t2 with the same label by shuffling within a fresh draw until it matches
    while True:
        t2 = clamp_spectrum_away_from_zero(random_hermitian(rng, dim, 2.0), 0.4)
        if component_label(t2) == component_label(t1):
            break
    path = connect_invertibles(t1, t2)
    np.testing.assert_allclose(path.matrix(0.0).mat, t1.mat, atol=1e-12)
    np.testing.assert_allclose(path.matrix(1.0).mat, t2.mat, atol=1e-12)
    cert = certify_invertible(path, OPTS)
    assert cert["certified"], cert
    assert sf_endpoints(path, OPTS) == 0
    assert sf_all_methods(path, OPTS)["value"] == 0
    assert path.meta["label"] == component_label(t1)


def test_connector_to_the_negative_of_a_label_3_matrix():
    """The rotation between the eigenbases has a repeated eigenvalue at -1,
    whose angles straddle -pi and +pi."""
    rng = np.random.default_rng(6000)
    for _ in range(2):
        random_invertible_hermitian(rng, 6)
    for _ in range(5):
        random_hermitian(rng, 6)
    t1 = random_invertible_hermitian(rng, 6)
    assert component_label(t1) == 3
    path = connect_invertibles(t1, -t1)
    np.testing.assert_allclose(path.matrix(0.0).mat, t1.mat, atol=1e-12)
    np.testing.assert_allclose(path.matrix(1.0).mat, -t1.mat, atol=1e-12)
    assert certify_invertible(path, OPTS)["certified"]
    assert sf_all_methods(path, OPTS)["value"] == 0


def test_connector_rejects_label_mismatch():
    t1 = np.diag([1.0, 1.0, -1.0])
    t2 = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(InputError):
        connect_invertibles(t1, t2)
    with pytest.raises(InputError):
        connect_invertibles(np.diag([1.0, -1.0]), np.diag([1.0, -1.0, 1.0]))
