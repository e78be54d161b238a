"""Declared regularity: step bounds that hold between samples, the
soundness label they give certificates, and no sampled 2-norm per step.
"""

import numpy as np
import pytest

from conftest import narrow_dip, random_hermitian, random_invertible_hermitian
from specflowlab import paths
from specflowlab.axioms import connect_invertibles
from specflowlab.errors import InputError, SamplingError
from specflowlab.generators import (
    concat_compatible_pair,
    family_path,
    invertible_trig_path,
    normalization_path,
    random_unitary,
    trig_path,
)
from specflowlab.matcore import HermitianMatrix, op_norm
from specflowlab.paths import (
    OperatorPath,
    Regularity,
    lipschitz,
    path_concat,
    path_reverse,
    piecewise_affine,
)
from specflowlab.specflow import certify_invertible, crossing_oracle_report, sf_all_methods


def _connector(dim):
    rng = np.random.default_rng(dim)
    t1 = random_invertible_hermitian(rng, dim)
    w = random_unitary(rng, dim).mat
    return connect_invertibles(t1, HermitianMatrix(2.0 * w @ t1.mat @ w.conj().T))


def _sampled(dim):
    rng = np.random.default_rng(200 + dim)
    return OperatorPath.from_samples([random_hermitian(rng, dim) for _ in range(5)])


# Every declared family, as (factory of a dim-5 path, expected soundness).
DECLARED = {
    "trig": (lambda: trig_path(7, 5), "lipschitz"),
    "trig_random_deg8": (lambda: trig_path(8, 5, degree=8, scale=4.0), "lipschitz"),
    "concat_partner": (lambda: concat_compatible_pair(7, 5)[1], "lipschitz"),
    "invertible_drift": (lambda: invertible_trig_path(7, 5), "lipschitz"),
    "normalization": (lambda: normalization_path(7, 5), "piecewise-affine"),
    "linear_interp": (
        lambda: family_path(
            "linear_interp",
            {"a": random_invertible_hermitian(np.random.default_rng(1), 5),
             "b": random_invertible_hermitian(np.random.default_rng(2), 5)},
        ),
        "piecewise-affine",
    ),
    "fuglede_line": (lambda: family_path("fuglede_line", {"n": 3, "N": 5}), "piecewise-affine"),
    "toeplitz_line": (lambda: family_path("toeplitz_line", {"m": 2}), "piecewise-affine"),
    "sampled": (lambda: _sampled(5), "piecewise-affine"),
    "connector": (lambda: _connector(5), "lipschitz"),
    "concat": (lambda: path_concat(*concat_compatible_pair(7, 5)), "lipschitz"),
    "reverse": (lambda: path_reverse(_connector(5)), "lipschitz"),
    "concat_affine": (
        lambda: path_concat(_sampled(5), path_reverse(_sampled(5))),
        "piecewise-affine",
    ),
}


def _assert_bounds_hold(path, ts):
    """Every step bound, plus the rounding slack the margins carry at its
    two ends, is at least the sampled step."""
    gamma = paths._gamma(path.dim)
    mats = path.matrices(ts)
    for k, bound in enumerate(path.regularity.step_bounds(ts)):
        step = op_norm(mats[k + 1].mat - mats[k].mat)
        slack = gamma * (mats[k].norm + mats[k + 1].norm)
        assert bound + slack >= step, (ts[k], ts[k + 1], bound, step)


@pytest.mark.parametrize("family", sorted(DECLARED))
def test_declared_step_bounds_hold_between_samples(family):
    make, soundness = DECLARED[family]
    path = make()
    assert path.regularity.soundness == soundness
    grid = np.linspace(0.0, 1.0, 1025).tolist()
    _assert_bounds_hold(path, grid)
    # 64x finer inside the step of the largest sampled rate, where a bound
    # met only at the samples would show
    mats = path.matrices(grid)
    rates = [op_norm(b.mat - a.mat) for a, b in zip(mats, mats[1:])]
    k = int(np.argmax(rates))
    _assert_bounds_hold(path, np.linspace(grid[k], grid[k + 1], 65).tolist())


def test_declared_flow_makes_no_stacked_norm(monkeypatch):
    """A trig path's step bounds come from its coefficients: building it
    takes a 2-norm per coefficient block and one for the tilt (plus what
    validation needs), and the flow takes none at all. Norms are counted
    per matrix, so a stacked norm of the blocks counts each block."""
    norms = []
    plain = np.linalg.norm

    def counting(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            norms.append(np.shape(x)[0] if np.ndim(x) == 3 else 1)
        return plain(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counting)
    path = trig_path(3, 64, degree=3)
    assert 2 * 3 + 1 <= sum(norms) <= 2 * 3 + 3
    norms.clear()
    result = sf_all_methods(path)
    assert result["phillips_certificate"].soundness == "lipschitz"
    assert norms == []


def test_narrow_dip_is_never_certified():
    """Declared with its true rate, the dip between samples is never
    certified invertible, and the oracle refuses."""
    rate = 3.0 * np.sqrt(2.0) * np.exp(-0.5) / 2e-5
    assert 1.28e5 < rate < 1.29e5
    declared = OperatorPath.from_callable(narrow_dip, 2, regularity=lipschitz((), [rate]))
    with pytest.raises(SamplingError):
        crossing_oracle_report(declared)
    assert certify_invertible(declared)["certified"] is False


def test_invertible_families_certify_soundly():
    for path in (invertible_trig_path(3, 6), _connector(4)):
        report = certify_invertible(path)
        assert report["certified"] is True
        assert report["soundness"] == "lipschitz"


def _scalar(t):
    return np.diag([2.0 + t, -1.0])


def _line(ts):
    return [_scalar(t) for t in ts]


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: OperatorPath(_line, 2), TypeError, "regularity"),
        (lambda: OperatorPath.from_callable(_scalar, 2), TypeError, "regularity"),
        (lambda: OperatorPath(_line, 2, regularity=None), InputError, "from_samples"),
        (
            lambda: OperatorPath.from_callable(_scalar, 2, regularity="lipschitz"),
            InputError,
            "from_samples",
        ),
        (lambda: Regularity("surrogate"), InputError, "soundness must be one of"),
    ],
    ids=["omitted", "omitted_from_callable", "none", "string", "surrogate"],
)
def test_every_path_declares_its_regularity(build, error, match):
    """No path is built without a declaration: omitting it is Python's own
    TypeError, anything but a Regularity is refused with a pointer to
    from_samples, and no Regularity declares nothing."""
    with pytest.raises(error, match=match):
        build()


def test_concat_and_reverse_regularity():
    f = piecewise_affine((0.5,), (1.0, 2.0))
    g = lipschitz((), (3.0,))
    both = f.then(f)
    assert both == piecewise_affine((0.25, 0.5, 0.75), (2.0, 4.0, 2.0, 4.0))
    assert f.then(g) == lipschitz((0.25, 0.5), (2.0, 4.0, 6.0))
    assert f.reversed() == piecewise_affine((0.5,), (2.0, 1.0))


def test_step_bounds_take_the_largest_rate_of_a_spanned_step():
    reg = piecewise_affine((0.25, 0.5), (1.0, 4.0, 2.0))
    assert reg.step_bounds([0.0, 0.25, 0.5, 1.0]).tolist() == [0.25, 1.0, 1.0]
    assert reg.step_bounds([0.0, 0.75]).tolist() == [3.0]
    assert reg.step_bounds([0.75, 0.0]).tolist() == [3.0]


def test_one_piece_step_bounds_give_the_spanning_formulas_bits():
    """With one piece the bound is rate * |dt|, the bits of
    rate * (max - min) that a step across pieces takes."""
    rng = np.random.default_rng(11)
    ts = np.concatenate([rng.uniform(size=300), np.linspace(0.0, 1.0, 257), [0.5, 0.5, 0.0]])
    lo, hi = np.minimum(ts[:-1], ts[1:]), np.maximum(ts[:-1], ts[1:])
    for rate in (0.0, 1.0, 3.7, 1e-300, 1e300, 2.0**-1074):
        got = np.array(piecewise_affine((), (rate,)).step_bounds(ts.tolist()))
        assert got.tobytes() == (np.array([rate]) * (hi - lo)).tobytes(), rate


@pytest.mark.parametrize(
    "args",
    [
        ("sampled",),
        ("lipschitz", (0.5,), (1.0,)),
        ("lipschitz", (0.0,), (1.0, 1.0)),
        ("lipschitz", (0.6, 0.4), (1.0, 1.0, 1.0)),
        ("lipschitz", (), (-1.0,)),
        ("piecewise-affine", (), (np.inf,)),
        ("surrogate", (), (1.0,)),
    ],
)
def test_regularity_rejects_bad_declarations(args):
    with pytest.raises(InputError):
        Regularity(*args)
