"""Law checks for the path-to-integer maps, and the converse connector."""

import numpy as np
import pytest

from conftest import random_invertible_hermitian
from specflowlab import (
    HermitianMatrix,
    InputError,
    SfFunctional,
    SfOptions,
    axioms,
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
    (rep,) = check_concatenation([fun], trials=8, seed=11)
    assert rep["ok"], rep["failures"]
    assert rep["method"] == METHOD_NAMES[method_idx]


def test_homotopy_law_small():
    fun = builtin_functionals(OPTS)[0]
    (rep,) = check_homotopy([fun], trials=5, seed=1)
    assert rep["ok"], rep["failures"]
    # inconclusive rows are allowed but should not be the whole run
    assert rep["inconclusive"] < rep["trials"]


def test_normalization_law_small():
    reports = check_normalization(builtin_functionals(OPTS), trials=6, seed=2)
    assert [rep["method"] for rep in reports] == list(METHOD_NAMES)
    for rep in reports:
        assert rep["ok"], rep["failures"]


def test_vanishing_law_small():
    fun = builtin_functionals(OPTS)[2]
    (rep,) = check_invertible_vanishing([fun], trials=8, seed=3, opts=OPTS)
    assert rep["ok"], rep["failures"]


def _violating(law):
    """A functional that breaks ``law`` on every conclusive trial."""
    if law == "homotopy":
        return SfFunctional("broken", lambda p: round(1e6 * float(p.matrix(0.0).mat[0, 0].real)))
    wrong = 0 if law == "normalization" else 1  # concatenation: 1 + 1 != 1
    return SfFunctional("broken", lambda path: wrong)


@pytest.mark.parametrize(
    "law, check, kwargs",
    [
        ("concatenation", check_concatenation, {"trials": 4, "seed": 11}),
        ("homotopy", check_homotopy, {"trials": 3, "seed": 1}),
        ("normalization", check_normalization, {"trials": 4, "seed": 2}),
        (
            "invertible_vanishing",
            check_invertible_vanishing,
            {"trials": 4, "seed": 3, "opts": OPTS},
        ),
    ],
)
def test_each_law_reports_per_functional_as_alone(law, check, kwargs):
    """Running several functionals over one set of seeded paths gives each
    the report it gets when checked alone, failures included."""
    funs = builtin_functionals(OPTS) + (_violating(law),)
    together = check(funs, **kwargs)
    alone = [check([fun], **kwargs)[0] for fun in funs]
    assert together == alone
    assert [rep["method"] for rep in together] == [*METHOD_NAMES, "broken"]
    assert all(rep["check"] == law for rep in together)
    assert all(rep["ok"] for rep in together[:4])
    assert together[4]["failures"] and not together[4]["ok"]


def test_run_all_checks_builds_each_seeded_path_once(monkeypatch):
    """One pair, family or path per trial, shared by the four routes."""
    builds = {}

    def counted(name):
        build = getattr(axioms, name)

        def wrapper(*args, **kwargs):
            builds[name] = builds.get(name, 0) + 1
            return build(*args, **kwargs)

        monkeypatch.setattr(axioms, name, wrapper)

    for name in (
        "concat_compatible_pair",
        "homotopy_family",
        "normalization_path",
        "invertible_trig_path",
    ):
        counted(name)
    reports = run_all_checks(seed=4, trials=8, opts=OPTS)
    assert len(reports) == 16
    assert builds == {
        "concat_compatible_pair": 8,
        "homotopy_family": 2,
        "normalization_path": 2,
        "invertible_trig_path": 8,
    }


def test_run_all_checks_shape():
    reports = run_all_checks(seed=0, trials=8, opts=OPTS)
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
    # grouped by route, the four laws in order within each
    laws = ["concatenation", "homotopy", "normalization", "invertible_vanishing"]
    assert [(r["method"], r["check"]) for r in reports] == [
        (m, law) for m in METHOD_NAMES for law in laws
    ]


def test_run_all_checks_with_no_trials_runs_none():
    """The 4:1:1:4 split once gave zero trials one deformation family and
    one normalization path."""
    reports = run_all_checks(seed=2, trials=0, opts=OPTS)
    assert len(reports) == 16
    assert all(r["trials"] == 0 and r["ok"] for r in reports)


@pytest.mark.parametrize("trials", [-1, 2.5, True])
def test_run_all_checks_refuses_a_trial_count_that_is_not_a_count(trials):
    with pytest.raises(InputError, match="trials must be an int >= 0"):
        run_all_checks(seed=0, trials=trials, opts=OPTS)


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
    label = component_label(t1)
    for t in np.linspace(0.0, 1.0, OPTS.samples):
        assert component_label(path.matrix(float(t))) == label, t


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
    path = connect_invertibles(t1, HermitianMatrix(-t1.mat))
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
