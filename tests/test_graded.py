"""Odd Hermitian matrices from rectangular blocks: kernel index, spectral
windows, eigenvalue pair-off, and stability under small odd perturbations."""

import numpy as np
import pytest

from specflowlab import (
    BoundaryCollisionError,
    ConsistencyFault,
    FinitenessError,
    GradedOperator,
    InputError,
    d_G,
    eigenpair_cancellation_check,
    graded_window_dim,
    index_stability_check,
    random_unitary,
)
from specflowlab import graded, metrics

ANTICOMMUTE_TOL = 1e-14


def planted_block(rng, q, p, rank, *, sv_lo=0.5, sv_hi=3.0):
    """A q x p block with exactly `rank` nonzero singular values."""
    u = random_unitary(rng, q).mat
    v = random_unitary(rng, p).mat
    sv = np.zeros(min(p, q))
    sv[:rank] = rng.uniform(sv_lo, sv_hi, rank)
    s = np.zeros((q, p))
    s[: len(sv), : len(sv)] = np.diag(sv)
    return u @ s @ v.conj().T


def test_row_block_hand_case():
    """A = [[0, 1]]: one kernel vector upstairs, none downstairs."""
    g = GradedOperator(2, 1, [[0.0, 1.0]])
    assert g.kernel_index() == 1
    assert g.spectral_gap() == 1.0
    t = g.matrix().mat
    np.testing.assert_allclose(
        np.linalg.eigvalsh(t), [-1.0, 0.0, 1.0], atol=1e-15
    )
    assert graded_window_dim(g, 0.5) == 1


def test_matrix_anticommutes_with_grading():
    rng = np.random.default_rng(0)
    g = GradedOperator(3, 2, rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    t = g.matrix().mat
    alpha = g.grading().mat
    assert np.max(np.abs(alpha @ t + t @ alpha)) < ANTICOMMUTE_TOL


@pytest.mark.parametrize(
    "p,q,rank", [(3, 3, 3), (4, 2, 2), (2, 5, 1), (3, 3, 0), (4, 4, 2)]
)
def test_planted_rank_index(p, q, rank):
    rng = np.random.default_rng(p * 100 + q * 10 + rank)
    g = GradedOperator(p, q, planted_block(rng, q, p, rank))
    assert g.kernel_index() == (p - rank) - (q - rank) == p - q
    if rank > 0:
        assert graded_window_dim(g, 0.5 * g.spectral_gap()) == p - q


def test_window_dim_grows_past_levels():
    """Once eps swallows a nonzero level, its +/- pair adds net zero."""
    g = GradedOperator(2, 2, np.diag([2.0, 0.0]))
    assert g.kernel_index() == 0
    assert graded_window_dim(g, 1.0) == 0
    assert graded_window_dim(g, 3.0) == 0  # the +-2 pair cancels


def test_eigenpair_cancellation_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g = GradedOperator(
            p, q, rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
        )
        rep = eigenpair_cancellation_check(g)
        assert rep["ok"], rep
        assert rep["max_graded_dim"] <= 1e-8


def test_index_stability_planted():
    rng = np.random.default_rng(12)
    g = GradedOperator(4, 2, planted_block(rng, 2, 4, 2))
    rep = index_stability_check(g, trials=40, seed=5)
    assert rep["ok"], rep["failures"]
    assert rep["base_index"] == 2
    assert rep["delta"] <= 0.1


def _stability_by_public_calls(g, trials, seed):
    """index_stability_check's trial loop with the public d_G and window
    dimension, each trial measured from scratch."""
    gap = g.spectral_gap()
    delta = min(0.5 * gap, 0.1)
    rng = np.random.default_rng(seed)
    dists, failures = [], []
    for k in range(trials):
        b = rng.normal(size=(g.q, g.p)) + 1j * rng.normal(size=(g.q, g.p))
        b *= (0.5 * delta) * rng.uniform(0.1, 1.0) / np.linalg.norm(b, 2)
        gp = g.perturb(b)
        dists.append(d_G(g.matrix(), gp.matrix()))
        if dists[-1] >= delta:
            failures.append({"trial": k, "reason": "graph distance", "value": dists[-1]})
            continue
        w = graded_window_dim(gp, 0.5 * gap)
        if w != g.kernel_index():
            failures.append({"trial": k, "reason": "window dim", "value": w})
    return dists, failures


@pytest.mark.parametrize("p, q, rank, seed", [(4, 2, 2, 5), (3, 5, 1, 0), (6, 6, 4, 9)])
def test_index_stability_reuses_the_base_exactly(graph_distance_details, p, q, rank, seed):
    """Building T0's transforms once per check, and measuring the trials
    as one stack, changes no distance bit."""
    g = GradedOperator(p, q, planted_block(np.random.default_rng(seed), q, p, rank))
    rep = index_stability_check(g, trials=12, seed=seed)
    seen = [detail.resolvent_route for detail in graph_distance_details]
    dists, failures = _stability_by_public_calls(g, 12, seed)
    assert seen == dists
    assert rep["failures"] == failures
    assert rep["ok"] == (not failures)


def test_a_failing_trial_stack_raises_from_the_stacked_call(monkeypatch):
    """A fault of a stacked step propagates as it is raised, after the one
    stacked call; no trial is taken again alone. A fault the walk over the
    trials meets at trial 2 is raised there."""
    g = GradedOperator(4, 3, planted_block(np.random.default_rng(3), 3, 4, 2))
    sizes = []
    inner = graded._spectral_projections

    def stack_fails(w, *args):
        sizes.append(len(w))
        raise BoundaryCollisionError("a window collides somewhere in the stack")

    monkeypatch.setattr(graded, "_spectral_projections", stack_fails)
    with pytest.raises(BoundaryCollisionError) as raised:
        index_stability_check(g, trials=6, seed=2)
    assert str(raised.value) == "a window collides somewhere in the stack"
    assert sizes == [6]

    def recording(w, *args):
        sizes.append(len(w))
        return inner(w, *args)

    sizes.clear()
    details = []
    check = metrics._graph_detail

    def third_fails(res, cay):
        details.append(res)
        if len(details) == 3:
            raise ConsistencyFault("graph-distance routes disagree at trial 2")
        return check(res, cay)

    monkeypatch.setattr(graded, "_spectral_projections", recording)
    monkeypatch.setattr(metrics, "_graph_detail", third_fails)
    with pytest.raises(ConsistencyFault, match="at trial 2"):
        index_stability_check(g, trials=6, seed=2)
    assert sizes == [6]
    assert len(details) == 3


def test_index_stability_inverts_the_base_once(monkeypatch):
    """The base is inverted once, and the ten trials as one stack."""
    g = GradedOperator(4, 3, planted_block(np.random.default_rng(3), 3, 4, 2))
    calls = []
    original = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.shape(a)) or original(a))
    index_stability_check(g, trials=10, seed=1)
    assert calls == [(1, 7, 7), (10, 7, 7)]


def test_graded_checks_factor_the_base_odd_matrix_once(monkeypatch):
    """The cancellation check, the window dimension and the stability
    check read the odd matrix's one cached decomposition through the
    operand the operator holds; the thirty trials are factored as one
    stack."""
    g = GradedOperator(4, 3, planted_block(np.random.default_rng(5), 3, 4, 2))
    shapes = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or original(a))
    assert eigenpair_cancellation_check(g)["ok"]
    assert graded_window_dim(g, 0.1) == g.kernel_index()
    assert index_stability_check(g, trials=30)["ok"]
    assert shapes == [(1, 7, 7), (30, 7, 7)]


def test_index_stability_needs_a_gap():
    g = GradedOperator(2, 2, np.zeros((2, 2)))
    with pytest.raises(InputError):
        index_stability_check(g)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_spectral_gap_refuses_an_impossible_tolerance(tol):
    """A negative tolerance once counted the zero singular value out of a
    rank-one block and reported the gap 0.0, so the stability check
    claimed the block had no nonzero singular value."""
    g = GradedOperator(2, 1, [[1.0, 0.0]])
    with pytest.raises(InputError, match="tol must be finite and nonnegative"):
        g.spectral_gap(tol=tol)
    with pytest.raises(InputError, match="tol must be finite and nonnegative"):
        index_stability_check(g, trials=1, tol=tol)
    assert g.spectral_gap(tol=0.0) == 1.0


@pytest.mark.parametrize("trials", [-3, 2.7, "4", True])
def test_index_stability_refuses_a_trial_count_that_is_not_a_count(trials):
    g = GradedOperator(2, 1, [[1.0, 0.0]])
    with pytest.raises(InputError, match="trials must be an int >= 0"):
        index_stability_check(g, trials=trials)
    assert index_stability_check(g, trials=0)["trials"] == 0


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_index_stability_refuses_a_seed_that_is_not_a_seed(seed):
    """A negative seed once escaped as numpy's bare ValueError."""
    g = GradedOperator(2, 1, [[1.0, 0.0]])
    with pytest.raises(InputError, match="seed must be an int >= 0"):
        index_stability_check(g, trials=1, seed=seed)


def test_validation_errors():
    with pytest.raises(InputError):
        GradedOperator(0, 0, np.zeros((0, 0)))
    with pytest.raises(InputError):
        GradedOperator(2, 2, np.zeros((3, 2)))  # wrong shape
    with pytest.raises(FinitenessError):
        GradedOperator(1, 1, [[np.nan]])
    with pytest.raises(InputError):
        graded_window_dim(GradedOperator(1, 1, [[1.0]]), 0.0)


@pytest.mark.parametrize("p, q, block", [
    (True, 1, [[1.0]]),
    (1, True, [[1.0]]),
    (2.7, 1, [[1.0, 0.0]]),
    (2, 1.0, [[1.0, 0.0]]),
    (-1, 2, np.zeros((2, 0))),
])
def test_block_sizes_must_be_counts(p, q, block):
    """int() once read True as 1 and truncated 2.7 to 2."""
    with pytest.raises(InputError, match="must be an int >= 0"):
        GradedOperator(p, q, block)


def test_block_is_read_only():
    g = GradedOperator(1, 1, [[2.0]])
    with pytest.raises(ValueError):
        g.block[0, 0] = 3.0


def test_perturb_is_odd():
    g = GradedOperator(2, 2, np.eye(2))
    gp = g.perturb(0.1 * np.ones((2, 2)))
    assert isinstance(gp, GradedOperator)
    alpha = gp.grading().mat
    t = gp.matrix().mat
    assert np.max(np.abs(alpha @ t + t @ alpha)) < ANTICOMMUTE_TOL
