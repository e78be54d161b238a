"""The four distances: axioms, orderings, the dual graph-distance route,
the two-sided norm/graph comparison, and the separation report: its rows
against a per-matrix reference, its chunked LAPACK calls, and the order in
which its rows fail."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specflowlab import metrics
from specflowlab.errors import ConsistencyFault, InputError
from specflowlab.matcore import (
    _CHUNK_BYTES, HermitianMatrix, _chunk_len, _run_stats, apply_function, op_norm,
)
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
from specflowlab.specflow import _chunk_len as specflow_chunk_len

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
    assert d_W(c, HermitianMatrix(np.zeros((2, 2))), base) == pytest.approx(np.sqrt(2.0))


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
    assert len(graph_distance_details) == 60  # one per d_G_detail and per d_G call
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
    rep = norm_graph_equivalence_check(t, HermitianMatrix(t.mat + 0.01 * np.eye(2)), 2.0)
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
        t = HermitianMatrix(t.mat * (1.0 / max(1.0, t.norm)))  # keep within radius 2
        pert = HermitianMatrix(random_hermitian(rng, dim, scale=0.05))
        assert norm_graph_equivalence_check(t, HermitianMatrix(t.mat + pert.mat), 2.0).ok


def _cells(model, families=FAMILIES, ns=None):
    """The report's (family, n) rows in order, listed row by row."""
    if ns is None:
        ns = range(1, min(33, model.trunc_dim))
    return [(fam, n) for fam in families for n in ns if not (fam == "swap" and n < 2)]


def _reference_row(model, family, n):
    """The distances between D + C_n and D, and both graph-distance routes,
    for one row, one matrix at a time with plain numpy calls. Every
    transform is the eigenbasis formula V f(L) V*; the Riesz image and the
    weight are averaged as (X + X*) / 2, as the library's Hermitian check
    stores them."""
    lams = model.lambdas()
    dim = model.trunc_dim
    c = np.zeros((dim, dim))
    if family == "swap":
        c[0, n - 1] = c[n - 1, 0] = 1.0
    else:
        lam = lams[n - 1]
        c[n - 1, n - 1] = {"rank_one": 1.0, "lambda": lam, "fuglede": -2.0 * lam}[family]
    d = np.diag(lams).astype(np.complex128)
    t = d + c
    eye = np.eye(dim)

    def herm(x):
        return (x + x.conj().T) / 2.0

    def image(x, f):
        w, v = np.linalg.eigh(x)
        return (v * f(w)) @ v.conj().T

    def norm(x):
        return float(np.linalg.norm(x, 2))

    def riesz(w):
        return w / np.sqrt(1.0 + w * w)

    def cayley(w):
        return (w - 1j) / (w + 1j)

    weight = herm(image(d, lambda w: 1.0 / np.sqrt(1.0 + w * w)))
    return {
        "d_N": norm(t - d),
        "d_W": norm((t - d) @ weight),
        "d_R": norm(herm(image(t, riesz)) - herm(image(d, riesz))),
        "resolvent": norm(np.linalg.inv(t + 1j * eye) - np.linalg.inv(d + 1j * eye)),
        "cayley": 0.5 * norm(image(t, cayley) - image(d, cayley)),
    }


def _assert_rows_equal_the_reference(model, rows, details, cells):
    assert [(r.family, r.n) for r in rows] == cells
    assert len(details) == len(rows)  # one graph-route check per row, in row order
    for r, detail in zip(rows, details):
        ref = _reference_row(model, r.family, r.n)
        assert (r.d_N, r.d_W, r.d_R, r.d_G) == (
            ref["d_N"], ref["d_W"], ref["d_R"], ref["resolvent"]
        ), (r.family, r.n)
        assert (detail.resolvent_route, detail.cayley_route) == (ref["resolvent"], ref["cayley"])


@pytest.mark.parametrize("law", ["linear", "signed", "shifted"])
@pytest.mark.parametrize("trunc_dim", [8, 32, 64])
def test_report_rows_equal_the_public_distances(law, trunc_dim, graph_distance_details):
    """Each row, measured in a chunked stack, carries the bits a per-matrix
    computation written here with plain numpy gives; at trunc-dim 64 the
    chunks hold 4 rows, so rows cross chunk boundaries."""
    model = DiagonalModel(trunc_dim, law)
    rows = metric_separation_report(model)
    assert {r.family for r in rows} == set(FAMILIES)
    _assert_rows_equal_the_reference(model, rows, graph_distance_details, _cells(model))


def test_report_rows_of_a_model_file_subset_equal_the_reference(graph_distance_details):
    """A model file's family subset and unordered index list, as the CLI
    passes them; a swap-only list of n = 1 gives no row at all."""
    model = DiagonalModel(40, "signed")
    families, ns = ["swap", "lambda"], [7, 2, 39, 1, 13, 2]
    rows = metric_separation_report(model, families, ns)
    _assert_rows_equal_the_reference(
        model, rows, graph_distance_details, _cells(model, families, ns)
    )
    assert metric_separation_report(model, ["swap"], [1]) == []


def test_chunk_helpers_live_in_matcore():
    assert specflow_chunk_len is _chunk_len
    assert _chunk_len(64) == 4 and _chunk_len(200) == 1


def test_report_factors_each_operand_once():
    """One eigh and one dense inverse per swap row, and none for a diagonal
    row (rank_one, lambda, fuglede) or the diagonal base, whose resolvent
    is the inverse of its n entries as 1x1 matrices: the chunks are cut
    inside each family, so no diagonal row shares a record with swap rows.
    Made as at most one stacked call per chunk plus one for the base: four
    chunks at trunc-dim 12 (33 diagonal rows, eigh on 10), eight at 32 (93
    diagonal rows, eigh on 30)."""
    for trunc_dim, chunks, diagonal_rows in ((12, 4, 33), (32, 8, 93)):
        with _run_stats() as stats:
            rows = metric_separation_report(DiagonalModel(trunc_dim, "signed"))
        per_family = Counter(r.family for r in rows).values()
        assert sum(-(-k // _chunk_len(trunc_dim)) for k in per_family) == chunks
        assert sum(r.family != "swap" for r in rows) == diagonal_rows
        dense = len(rows) - diagonal_rows
        for key, n in (("eigh", dense), ("inv.dense", dense), ("inv.entry", diagonal_rows + 1)):
            assert stats[key] == n and stats[key + ".calls"] <= chunks + 1, (trunc_dim, key)


@pytest.mark.parametrize("trunc_dim", [64, 200])
def test_report_calls_fit_the_chunk_budget(trunc_dim, monkeypatch):
    """Every eigh, inverse and norm (the SVD norms included) the report
    makes takes a stack within the chunk budget, or a single matrix: each
    call is recorded with the shape of its first argument."""
    calls = []
    for name in ("eigh", "inv", "norm", "svd"):
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _n=name, _f=getattr(np.linalg, name),
                            **kw: calls.append((_n, np.shape(a))) or _f(a, *args, **kw))
    rows = metric_separation_report(DiagonalModel(trunc_dim, "linear"), FAMILIES, [1, 2, 3, 5, 8])
    assert len(rows) == 19
    assert {name for name, _ in calls} >= {"eigh", "inv", "norm"}
    for name, shape in calls:
        single = len(shape) == 2 or shape[0] == 1
        assert single or 16 * int(np.prod(shape)) <= _CHUNK_BYTES, (name, shape)
    if trunc_dim == 64:
        assert max(shape[0] for _, shape in calls if len(shape) == 3) == 4


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
    """One graph-route check per row, each with the discrepancy a direct
    d_G_detail call on that row's operands finds."""
    model = DiagonalModel(16, "shifted")
    d = realize(model)
    rows = metric_separation_report(model)
    recorded = list(graph_distance_details)
    assert len(recorded) == len(rows)
    direct = [
        d_G_detail(HermitianMatrix(d.mat + family_perturbation(model, r.family, r.n).mat), d).delta
        for r in rows
    ]
    assert [detail.delta for detail in recorded] == direct
    assert max(direct) > 0.0  # the two routes really are different computations


def _failing_row(deltas, chunk):
    """A row j, inside a chunk and not its first or last row, and a fault
    level between the deltas such that j is the first row above it."""
    best = None
    for j in range(1, len(deltas) - 1):
        level = max(deltas[:j])
        if deltas[j] > level and 0 < j % chunk < chunk - 1:
            best = (j, (level + deltas[j]) / 2.0)
    assert best is not None
    return best


def _inflate_weighted_row(monkeypatch, row):
    """Make d_W of one report row exceed its d_N by 10."""
    weighted = metrics._weighted_distances
    seen = []

    def inflated(a, b, d):
        out = weighted(a, b, d)
        if len(seen) <= row < len(seen) + len(out):
            out[row - len(seen)] += 10.0
        seen.extend(out)
        return out

    monkeypatch.setattr(metrics, "_weighted_distances", inflated)


@pytest.mark.parametrize("weighted_row", [None, -1, +1])
def test_first_failing_row_raises_as_row_by_row(weighted_row, monkeypatch, graph_distance_details):
    """With the fault level between two rows' deltas, the report raises the
    fault of the first row a row-by-row loop finds, with that row's text,
    after checking every earlier row. A d_W above d_N on the row before it
    (same chunk) raises first; one on the row after it is never reached."""
    model = DiagonalModel(64, "signed")
    cells = _cells(model)
    refs = [_reference_row(model, fam, n) for fam, n in cells]
    deltas = [abs(ref["resolvent"] - ref["cayley"]) for ref in refs]
    j, level = _failing_row(deltas, _chunk_len(64))
    monkeypatch.setattr(metrics, "_DG_FAULT", level)
    if weighted_row is not None:
        _inflate_weighted_row(monkeypatch, j + weighted_row)
    with pytest.raises(ConsistencyFault) as err:
        metric_separation_report(model)
    if weighted_row == -1:
        ref = refs[j - 1]
        assert str(err.value) == (
            f"weighted distance {ref['d_W'] + 10.0!r} exceeds norm distance {ref['d_N']!r}"
        )
    else:
        ref = refs[j]
        assert str(err.value) == (
            "graph-distance routes disagree: "
            f"resolvent {ref['resolvent']!r} vs half-Cayley {ref['cayley']!r}"
        )
    # rows 0 .. j - 1 passed their graph check, in order, and no later row ran
    assert [detail.delta for detail in graph_distance_details] == deltas[:j]
