"""Diagonal models and the perturbation families, against hand-computed
scalars frozen below.

Everything commutes in these families except the swap coupling, so each
distance reduces to an explicit scalar formula; the constants were worked
out by hand from those formulas and are compared literally.
"""

import math

import numpy as np
import pytest

from specflowlab.errors import InputError
from specflowlab.matcore import HermitianMatrix, op_norm
from specflowlab.metrics import d_G, d_N, d_R, d_W
from specflowlab.opmodel import (
    FAMILIES,
    DiagonalModel,
    closed_form_distances,
    family_perturbation,
    realize,
    swap_bounds,
    truncate_fn,
    truncation_riesz_bound,
)

# hand-computed oracles, written before comparing to the library:
#   rank_one n=1: eigenvalue 1 -> 2
#     d_N = 1
#     d_W = 1/sqrt(2)
#     d_R = |2/sqrt(5) - 1/sqrt(2)|
#     d_G = |1/(2+i) - 1/(1+i)| = 1/sqrt(10)
#   lambda n=2: eigenvalue 2 -> 4
#     d_N = 2, d_W = 2/sqrt(5)
#     d_R = |4/sqrt(17) - 2/sqrt(5)|
#     d_G = 2/sqrt(85)
#   fuglede n=1: eigenvalue 1 -> -1
#     d_N = 2, d_W = sqrt(2), d_R = sqrt(2), d_G = 1
HAND_VALUES = {
    ("rank_one", 1): {
        "d_N": 1.0,
        "d_W": 0.7071067811865475,
        "d_R": 0.1873204098133684,
        "d_G": 0.31622776601683794,
    },
    ("lambda", 2): {
        "d_N": 2.0,
        "d_W": 0.8944271909999159,
        "d_R": 0.07571530914541604,
        "d_G": 0.21693045781865616,
    },
    ("fuglede", 1): {
        "d_N": 2.0,
        "d_W": 1.4142135623730951,
        "d_R": 1.4142135623730951,
        "d_G": 1.0,
    },
}


def test_law_tables():
    np.testing.assert_array_equal(DiagonalModel(5, "linear").lambdas(), [1, 2, 3, 4, 5])
    np.testing.assert_array_equal(DiagonalModel(5, "signed").lambdas(), [-1, 1, -2, 2, -3])
    np.testing.assert_array_equal(
        DiagonalModel(5, "shifted").lambdas(), [1.5, 2.5, 3.5, 4.5, 5.5]
    )
    with pytest.raises(InputError):
        DiagonalModel(4, "cubic")
    with pytest.raises(InputError):
        DiagonalModel(0, "linear")


def test_closed_forms_match_hand_values():
    model = DiagonalModel(64, "linear")
    for (family, n), expect in HAND_VALUES.items():
        got = closed_form_distances(model, family, n)
        for key, val in expect.items():
            assert got[key] == pytest.approx(val, abs=1e-15), (family, n, key)


def test_closed_forms_match_measured_distances():
    model = DiagonalModel(32, "linear")
    d = realize(model)
    for family in ("rank_one", "lambda", "fuglede"):
        for n in (1, 2, 7, 20):
            c = family_perturbation(model, family, n)
            t1 = HermitianMatrix(d.mat + c.mat)
            cf = closed_form_distances(model, family, n)
            assert d_N(t1, d) == pytest.approx(cf["d_N"], abs=1e-12)
            assert d_W(t1, d, d) == pytest.approx(cf["d_W"], abs=1e-12)
            assert d_R(t1, d) == pytest.approx(cf["d_R"], abs=1e-12)
            assert d_G(t1, d) == pytest.approx(cf["d_G"], abs=1e-12)


def test_swap_family_no_closed_form_but_bounds_hold():
    model = DiagonalModel(32, "linear")
    d = realize(model)
    assert closed_form_distances(model, "swap", 5) is None
    for n in (2, 5, 12, 31):
        bounds = swap_bounds(model, n)
        t1 = HermitianMatrix(d.mat + family_perturbation(model, "swap", n).mat)
        assert d_N(t1, d) == pytest.approx(bounds["d_N"], abs=1e-12)
        assert d_W(t1, d, d) == pytest.approx(bounds["d_W"], abs=1e-12)
        assert d_G(t1, d) <= bounds["d_G_upper"] + 1e-12
        # the conjugated-resolvent norm grows like lambda_n, which is the
        # point of the family: graph-small but norm-far after conjugation
        assert bounds["conjugated_norm_lower"] == pytest.approx(
            math.sqrt((1.0 + model.lam(n) ** 2) / (1.0 + model.lam(1) ** 2))
        )


def test_swap_bounds_scaling_in_n():
    model = DiagonalModel(64, "linear")
    uppers = [swap_bounds(model, n)["d_G_upper"] for n in range(2, 30)]
    assert all(a > b for a, b in zip(uppers, uppers[1:]))  # shrinks with n
    assert swap_bounds(model, 20)["d_G_upper"] == pytest.approx(2.0 / math.sqrt(401.0))


def test_a_metrics_report_evaluates_its_law_once(monkeypatch, tmp_path):
    """The model holds its eigenvalues: one law evaluation per report, in
    which ``lam`` is called 187 times."""
    from specflowlab import cli, opmodel

    calls = []
    law = opmodel.LAWS["linear"]
    monkeypatch.setitem(opmodel.LAWS, "linear", lambda k: calls.append(k) or law(k))
    assert cli.main(["metrics", "--trunc-dim", "32", "--out", str(tmp_path / "m.json")]) == 0
    assert len(calls) == 1
    model = DiagonalModel(8)
    model.lambdas()[0] = 99.0  # a fresh array each call
    assert model.lam(1) == 1.0


def test_fuglede_perturbation_flips_one_eigenvalue():
    model = DiagonalModel(8, "linear")
    d = realize(model)
    t1 = HermitianMatrix(d.mat + family_perturbation(model, "fuglede", 3).mat)
    vals = np.sort(np.linalg.eigvalsh(t1.mat))
    np.testing.assert_allclose(vals, [-3, 1, 2, 4, 5, 6, 7, 8], atol=1e-12)


def test_family_index_guards():
    model = DiagonalModel(8, "linear")
    with pytest.raises(InputError):
        family_perturbation(model, "rank_one", 0)
    with pytest.raises(InputError):
        family_perturbation(model, "rank_one", 9)
    with pytest.raises(InputError):
        family_perturbation(model, "swap", 1)  # swap needs n >= 2
    with pytest.raises(InputError):
        family_perturbation(model, "unknown", 1)
    assert set(FAMILIES) == {"rank_one", "lambda", "fuglede", "swap"}


def test_truncation_clip():
    t = realize(DiagonalModel(6, "linear"))
    cut = truncate_fn(t, 3.0)
    np.testing.assert_allclose(np.diag(cut.mat).real, [1, 2, 3, 3, 3, 3])
    assert op_norm(truncate_fn(t, 10.0).mat - t.mat) == 0.0


def test_truncation_riesz_bound_values():
    assert truncation_riesz_bound(1) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))
    assert truncation_riesz_bound(2) == pytest.approx(1.0 - 2.0 / math.sqrt(5.0))
    # decreasing toward 0
    bounds = [truncation_riesz_bound(n) for n in (1, 2, 5, 10, 20)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 2e-3


def test_signed_law_families_still_work():
    model = DiagonalModel(12, "signed")
    d = realize(model)
    for family in ("rank_one", "lambda", "fuglede"):
        cf = closed_form_distances(model, family, 4)
        t1 = HermitianMatrix(d.mat + family_perturbation(model, family, 4).mat)
        assert d_G(t1, d) == pytest.approx(cf["d_G"], abs=1e-12)
