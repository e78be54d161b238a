"""Every bounded real argument is checked by ``errors.require_real``: a
value that is not a real number (a bool, a string, None) or that lies
outside the argument's range is an InputError naming the argument."""

import math

import numpy as np
import pytest

from specflowlab import (
    GradedOperator,
    HermitianMatrix,
    InputError,
    Interval,
    clamp_spectrum_away_from_zero,
    graded_window_dim,
    lipschitz,
    norm_graph_equivalence_check,
    trig_path,
    truncate_fn,
    truncation_riesz_bound,
)

VALUES = [True, "2", None, math.nan, math.inf, -1, 0]

_T = HermitianMatrix.diag([0.1, -0.2])
_G = GradedOperator(2, 1, np.array([[1.0, 0.0]]))

#: per argument: a call with the value, the name its refusal gives, and
#: the values of VALUES its range holds
BOUNDED = {
    "trig_path gap": (lambda v: trig_path(0, 3, gap=v), "gap", ()),
    "clamp gap": (lambda v: clamp_spectrum_away_from_zero(_T, v), "gap", ()),
    "trig_path scale": (lambda v: trig_path(0, 3, scale=v), "scale", (-1, 0)),
    "r_bound": (lambda v: norm_graph_equivalence_check(_T, _T, v), "r_bound", ()),
    "truncate_fn n": (lambda v: truncate_fn(_T, v), "n", ()),
    "truncation_riesz_bound n": (truncation_riesz_bound, "n", ()),
    "spectral_gap tol": (lambda v: _G.spectral_gap(tol=v), "tol", (0,)),
    "graded_window_dim eps": (lambda v: graded_window_dim(_G, v), "eps", (math.inf,)),
    "rate": (lambda v: lipschitz((), [v]), "rate", (0,)),
    "Interval lo": (lambda v: Interval(v, math.inf), "lo", (math.inf, -1, 0)),
}


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("call", BOUNDED)
def test_bounded_reals_refuse_what_lies_outside_their_range(call, value):
    """``spectral_gap(tol=True)`` once returned 0.0, ``r_bound=True``,
    ``truncation_riesz_bound(True)`` and ``graded_window_dim(g, True)``
    read the bool as 1, a string or None raised numpy's TypeError and
    ``graded_window_dim(g, "x")`` a bare ValueError."""
    build, name, inside = BOUNDED[call]
    if any(value is v for v in inside):
        build(value)
        return
    with pytest.raises(InputError, match=f"^{name} must be "):
        build(value)
