"""Public refusals that no other test reaches: each raises its error class
with its message, and the vanishing law counts a trial it cannot certify
as inconclusive."""

import numpy as np
import pytest

from specflowlab import (
    ConsistencyFault,
    DimensionMismatchError,
    FinitenessError,
    FunctionDomainError,
    HermitianMatrix,
    InputError,
    SfFunctional,
    SfOptions,
    check_invertible_vanishing,
)
from specflowlab.generators import family_path, line_path, trig_path
from specflowlab.matcore import EigenDecomposition, apply_function
from specflowlab.metrics import d_N, d_W, metric_separation_report, norm_graph_equivalence_check
from specflowlab.opmodel import DiagonalModel
from specflowlab.paths import path_concat
from specflowlab.projpair import pair_index
from specflowlab.serialize import matrix_from_obj, path_from_obj
from specflowlab.specflow import SfCertificate, SfSegment
from specflowlab.transforms import UnitaryMatrix

ONE, TWO = HermitianMatrix.diag([1.0]), HermitianMatrix.diag([1.0, 2.0])


def _certificate(*segments, total=1, soundness="piecewise-affine"):
    return SfCertificate("phillips", total, segments, (1.0, 1.0), soundness)


def _segment(t_left=0.0, t_right=1.0, rank_right=1, margin=0.1):
    return SfSegment(t_left, t_right, 0.5, 0, rank_right, margin)


CASES = {
    "certificate_soundness": (lambda: _certificate(_segment(), soundness="smooth"),
                              ConsistencyFault, "unknown soundness 'smooth'"),
    "certificate_empty": (lambda: _certificate(total=0), ConsistencyFault,
                          "certificate has no segments"),
    "certificate_total": (lambda: _certificate(_segment(), total=2), ConsistencyFault,
                          "certificate total 2 != telescoped ranks 1"),
    "certificate_gap": (lambda: _certificate(_segment(t_left=0.5)), ConsistencyFault,
                        "certificate segments are not contiguous"),
    "certificate_width": (lambda: _certificate(_segment(t_right=0.0)), ConsistencyFault,
                          "certificate segment has nonpositive width"),
    "certificate_margin": (lambda: _certificate(_segment(margin=0.0)), ConsistencyFault,
                           "certificate segment has nonpositive margin 0.0"),
    "certificate_short": (lambda: _certificate(_segment(t_right=0.5)), ConsistencyFault,
                          "certificate segments do not reach t = 1"),
    "concat_dims": (lambda: path_concat(trig_path(0, 2), trig_path(0, 3)),
                    DimensionMismatchError, "dims differ: 2 vs 3"),
    "line_dims": (lambda: line_path(TWO, ONE), InputError,
                  "line endpoints must share a dimension, got 2 and 1"),
    "pair_dims": (lambda: pair_index(np.eye(2), np.eye(1)), DimensionMismatchError,
                  "dims differ: 2 vs 1"),
    "d_N_dims": (lambda: d_N(ONE, TWO), DimensionMismatchError, "dims differ: 1 vs 2"),
    "d_W_base": (lambda: d_W(ONE, ONE, TWO), DimensionMismatchError,
                 "base dim 2 differs from operand dim 1"),
    "radius": (lambda: norm_graph_equivalence_check(TWO, TWO, 1.0), InputError,
               "||T|| = 2.0 exceeds the declared radius 1.0"),
    "unknown_family": (lambda: metric_separation_report(DiagonalModel(4), ["swirl"]),
                       InputError, "unknown family 'swirl'; choose from "),
    "diag_2d": (lambda: HermitianMatrix.diag([[1.0]]), InputError,
                "diag expects a non-empty 1-d sequence of reals"),
    "diag_empty": (lambda: HermitianMatrix.diag([]), InputError,
                   "diag expects a non-empty 1-d sequence of reals"),
    "diag_complex": (lambda: HermitianMatrix.diag([1j]), InputError,
                     "diag expects a non-empty 1-d sequence of reals"),
    "eig_shapes": (lambda: EigenDecomposition([1.0, 2.0], np.eye(3)), InputError,
                   "inconsistent eigendecomposition shapes"),
    "eig_descending": (lambda: EigenDecomposition([2.0, 1.0], np.eye(2)), ConsistencyFault,
                       "eigenvalues are not ascending"),
    "function_complex": (lambda: apply_function(ONE, lambda x: 1j * x), FunctionDomainError,
                         "scalar function undefined at eigenvalue 1.0: non-real value 1j"),
    "unitary_nan": (lambda: UnitaryMatrix([[np.nan]]), FinitenessError,
                    "matrix entries must be finite (no NaN/Inf)"),
    "literal_complex": (lambda: matrix_from_obj({"dim": 1, "re": [[1j]], "im": [[0.0]]}),
                        InputError, "matrix literal needs real 're' and 'im' parts"),
    "path_spec": (lambda: path_from_obj([]), InputError, "path spec must be an object"),
    "trig_no_dim": (lambda: family_path("trig_random", {}, seed=1), InputError,
                    "trig_random needs a dimension"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_each_public_refusal_names_its_fault(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value).startswith(message)


def test_the_vanishing_law_counts_what_it_cannot_certify():
    """Two samples cannot certify any path invertible, so every trial is
    inconclusive and none is scored."""
    calls = []
    spy = SfFunctional("spy", calls.append)
    (rep,) = check_invertible_vanishing([spy], trials=3, seed=3, opts=SfOptions(samples=2))
    assert (rep["inconclusive"], rep["ok"], calls) == (3, True, [])
