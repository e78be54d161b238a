"""The four distances: axioms, orderings, the dual graph-distance route,
the two-sided norm/graph comparison, and the separation report's reuse of
its base operator's transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specflowlab.errors import ConsistencyFault, InputError
from specflowlab.matcore import HermitianMatrix, apply_function, op_norm
from specflowlab.metrics import (
    MetricReport,
    d_G,
    d_G_detail,
    d_N,
    d_R,
    d_W,
    metric_separation_report,
    norm_graph_equivalence_check,
)
from specflowlab.opmodel import FAMILIES, DiagonalModel, family_perturbation, realize

from conftest import random_hermitian


def _herm_strategy(dim):
    return arrays(
        np.float64, (dim, dim), elements=st.floats(-3.0, 3.0, allow_nan=False)
    ).map(lambda a: HermitianMatrix((a + a.T) / 2.0))


@settings(max_examples=50, deadline=None)
@given(_herm_strategy(3), _herm_strategy(3))
def test_metric_axioms_pairwise(a, b):
    for dist in (d_N, d_R, d_G):
        assert dist(a, a) <= 1e-12
        assert dist(a, b) >= 0.0
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(_herm_strategy(3), _herm_strategy(3), _herm_strategy(3))
def test_triangle_inequalities(a, b, c):
    for dist in (d_N, d_R, d_G):
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


def test_weighted_distance_below_norm_distance(rng):
    base = HermitianMatrix(np.diag(np.arange(1.0, 7.0)))
    for _ in range(20):
        a = HermitianMatrix(random_hermitian(rng, 6))
        b = HermitianMatrix(random_hermitian(rng, 6))
        assert d_W(a, b, base) <= d_N(a, b) + 1e-12


def test_weighted_distance_explicit():
    # diagonal base D = diag(0, 1): (I + D^2)^{-1/2} = diag(1, 1/sqrt(2))
    base = HermitianMatrix(np.diag([0.0, 1.0]))
    a = HermitianMatrix(np.diag([1.0, 0.0]))
    b = HermitianMatrix(np.diag([0.0, 1.0]))
    # difference diag(1, -1) weighted to diag(1, -1/sqrt(2)): norm 1
    assert d_W(a, b, base) == pytest.approx(1.0)
    c = HermitianMatrix(np.array([[0.0, 0.0], [0.0, 2.0]]))
    # difference diag(0, 2) weighted: 2/sqrt(2)
    assert d_W(c, HermitianMatrix.zeros(2), base) == pytest.approx(np.sqrt(2.0))


def test_weight_matches_the_scalar_calculus(rng):
    """The weight's array formula gives the bits of 1/sqrt(1 + x^2) taken
    eigenvalue by eigenvalue, huge eigenvalues (x^2 overflows) included."""
    for base in (
        HermitianMatrix(random_hermitian(rng, 7, scale=4.0)),
        HermitianMatrix(np.diag([1e200, -3.0, 0.0])),
    ):
        a = HermitianMatrix(random_hermitian(rng, base.dim))
        b = HermitianMatrix(random_hermitian(rng, base.dim))
        weight = apply_function(base, lambda x: 1.0 / math.sqrt(1.0 + x * x))
        assert d_W(a, b, base) == op_norm((a.mat - b.mat) @ weight.mat)


def test_dual_graph_route_agreement(rng, graph_distance_details):
    for _ in range(30):
        dim = int(rng.integers(1, 9))
        a = HermitianMatrix(random_hermitian(rng, dim, scale=3.0))
        b = HermitianMatrix(random_hermitian(rng, dim, scale=3.0))
        detail = d_G_detail(a, b)
        assert detail.delta <= 1e-11
        assert d_G(a, b) == detail.resolvent_route
    assert len(graph_distance_details) == 30  # one per d_G call
    assert all(detail.delta <= 1e-11 for detail in graph_distance_details)


def test_ordering_separation_on_fuglede():
    # graph distance is the weakest: it can stay small while the stronger
    # distances blow up with n
    model = DiagonalModel(40, "linear")
    rows = metric_separation_report(model, ["fuglede"], range(1, 21))
    dg = [r.d_G for r in rows]
    dn = [r.d_N for r in rows]
    assert dg[0] > dg[-1]  # decreasing
    assert dn[-1] > 30.0  # norm distance grows like 2n
    assert max(r.res_G for r in rows) <= 1e-12


def test_metric_report_validates():
    with pytest.raises(ConsistencyFault):
        MetricReport(
            family="rank_one", n=1,
            d_N=1.0, d_W=2.0, d_R=0.5, d_G=0.5,
            res_N=None, res_W=None, res_R=None, res_G=None,
        )


def test_norm_graph_check_both_directions(rng):
    # close pair: both hypotheses active, both implications must hold
    t = HermitianMatrix(np.diag([0.5, -1.5]))
    rep = norm_graph_equivalence_check(t, t + 0.01 * HermitianMatrix.identity(2), 2.0)
    assert rep.hyp_graph_small and rep.norm_from_graph_ok
    assert rep.hyp_norm_small and rep.graph_from_norm_ok
    assert rep.ok
    # far pair: hypotheses inactive, implications vacuous, still ok
    far = norm_graph_equivalence_check(
        HermitianMatrix(np.diag([2.0, -2.0])), HermitianMatrix(np.diag([-2.0, 2.0])), 2.0
    )
    assert not far.hyp_norm_small
    assert far.ok


def test_norm_graph_check_random_sweep(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        t = HermitianMatrix(random_hermitian(rng, dim))
        t = (1.0 / max(1.0, t.norm)) * t  # keep within radius 2
        pert = HermitianMatrix(random_hermitian(rng, dim, scale=0.05))
        assert norm_graph_equivalence_check(t, t + pert, 2.0).ok


@pytest.mark.parametrize("law", ["linear", "signed", "shifted"])
@pytest.mark.parametrize("trunc_dim", [8, 32])
def test_report_rows_equal_the_public_distances(law, trunc_dim):
    """Reusing the base's transforms changes no bit of any row."""
    model = DiagonalModel(trunc_dim, law)
    rows = metric_separation_report(model)
    assert {r.family for r in rows} == set(FAMILIES)
    d = realize(model)
    for r in rows:
        t1 = d + family_perturbation(model, r.family, r.n)
        assert r.d_N == d_N(t1, d)
        assert r.d_W == d_W(t1, d, d)
        assert r.d_R == d_R(t1, d)
        assert r.d_G == d_G(t1, d)


def test_report_factors_each_operand_once(monkeypatch):
    """One eigh and one inverse per row, plus one each for the base."""
    counts = {"eigh": 0, "inv": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rows = metric_separation_report(DiagonalModel(12, "signed"))
    assert counts == {"eigh": len(rows) + 1, "inv": len(rows) + 1}


@pytest.mark.parametrize("families, n", [
    (["rank_one"], 2.5),
    (["lambda"], True),
    (["swap"], 0),
    (["fuglede"], 8),
])
def test_report_refuses_an_index_that_is_not_a_family_index(families, n):
    """int() once truncated n = 2.5, and the swap family skipped n = 0."""
    message = rf"family index n must be an int in \[1, 7\], got {n!r}"
    with pytest.raises(InputError, match=message):
        metric_separation_report(DiagonalModel(8, "linear"), families, [1, n])


def test_report_checks_both_graph_routes_on_every_row(graph_distance_details):
    """One d_G_detail call per row, each with the discrepancy a direct
    call on that row's operands finds."""
    model = DiagonalModel(16, "shifted")
    d = realize(model)
    rows = metric_separation_report(model)
    assert len(graph_distance_details) == len(rows)
    direct = [
        d_G_detail(d + family_perturbation(model, r.family, r.n), d).delta for r in rows
    ]
    assert [detail.delta for detail in graph_distance_details] == direct
    assert max(direct) > 0.0  # the two routes really are different computations
