"""Core matrix layer: validation, eigensolvers, projections, quadrature."""

import warnings

import numpy as np
import pytest

from specflowlab.errors import (
    BoundaryCollisionError,
    ConsistencyFault,
    ContourCollisionError,
    DefinitenessError,
    DimensionMismatchError,
    FinitenessError,
    FunctionDomainError,
    HermiticityError,
    IllConditionedRankWarning,
    InputError,
)
from specflowlab.matcore import (
    A1Report,
    EigenDecomposition,
    HermitianMatrix,
    Interval,
    Projection,
    apply_function,
    as_hermitian,
    check_a1,
    contour_projection,
    eigh,
    inv_sqrt_integral,
    jacobi_eigh,
    nonneg_projection,
    op_norm,
    rank_eps,
    spectral_projection,
    tol_spec,
)

from conftest import random_hermitian


def power_iteration_norm(a, iters=2000, tol=1e-13):
    """Independent largest-singular-value oracle (power method on A*A)."""
    a = np.asarray(a, dtype=np.complex128)
    rng = np.random.default_rng(99)
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        s = np.linalg.norm(w)
        if s == 0.0:
            return 0.0
        v = w / s
        if abs(s - last) <= tol * max(1.0, s):
            break
        last = s
    return float(np.sqrt(s))


def test_op_norm_matches_power_iteration(rng):
    for dim in (1, 2, 5, 9):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert op_norm(a) == pytest.approx(power_iteration_norm(a), rel=1e-9)


def test_op_norm_hand_values():
    assert op_norm(np.diag([3.0, -7.0, 2.0])) == 7.0
    assert op_norm(np.zeros((4, 4))) == 0.0
    # [[0, 2], [0, 0]] has singular values {2, 0}
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_hermitian_validation(rng):
    with pytest.raises(HermiticityError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(FinitenessError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    h = HermitianMatrix(random_hermitian(rng, 4))
    assert h.dim == 4
    np.testing.assert_allclose(h.mat, h.mat.conj().T)


def test_stack_validates_like_the_constructor(rng):
    mats = [random_hermitian(rng, 3, scale=10.0 ** k) for k in range(-3, 4)]
    mats[2] = mats[2] + 1e-15j * rng.normal(size=(3, 3))  # within tolerance
    rows = HermitianMatrix.from_stack(np.array(mats))
    assert [h.mat.tobytes() for h in rows] == [HermitianMatrix(m).mat.tobytes() for m in mats]
    assert HermitianMatrix.from_stack(mats)[2].mat.tobytes() == rows[2].mat.tobytes()
    assert HermitianMatrix.from_stack(np.zeros((0, 3, 3))) == []


def _non_hermitian():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1e-6
    return a


@pytest.mark.parametrize(
    "bad",
    [_non_hermitian(), np.diag([1.0, np.nan, 2.0]), np.diag([1.0, complex(0.0, np.inf), 2.0])],
    ids=["non_hermitian", "nan", "inf"],
)
def test_stack_errors_match_the_constructor(rng, bad):
    """One bad matrix in the middle of a stack raises the constructor's
    exception, with its message."""
    with pytest.raises(InputError) as single:
        HermitianMatrix(bad)
    mats = [random_hermitian(rng, 3) for _ in range(4)]
    mats.insert(2, bad)
    for stack in (mats, np.array(mats)):
        with pytest.raises(type(single.value)) as stacked:
            HermitianMatrix.from_stack(stack)
        assert str(stacked.value) == str(single.value)


def test_hermitian_average_overflow_is_not_finite():
    """Finite entries beyond half the float range overflow (A + A*) / 2;
    that is refused, never stored as Inf/NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FinitenessError, match="overflows"):
            HermitianMatrix(np.diag([1e308, 1.0]))
        with pytest.raises(FinitenessError, match="overflows"):
            HermitianMatrix.from_stack([np.eye(2), np.diag([1.0, -1e308])])
        assert HermitianMatrix(np.diag([8e307, 1.0])).mat[0, 0] == 8e307


def test_stack_shape_errors_match_the_constructor():
    for shape in ((3, 4), (0, 0)):
        with pytest.raises(InputError) as single:
            HermitianMatrix(np.zeros(shape))
        with pytest.raises(type(single.value)) as stacked:
            HermitianMatrix.from_stack(np.zeros((5,) + shape))
        assert str(stacked.value) == str(single.value)
    with pytest.raises(InputError, match="stack of 2-d matrices"):
        HermitianMatrix.from_stack(np.eye(3))


def test_hermitian_rejects_tiny_asymmetry_beyond_tolerance():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1e-6  # far above the relative tolerance
    with pytest.raises(HermiticityError) as err:
        HermitianMatrix(a)
    assert err.value.defect > 0


def test_hermitian_arithmetic(rng):
    a = HermitianMatrix(random_hermitian(rng, 3))
    b = HermitianMatrix(random_hermitian(rng, 3))
    np.testing.assert_allclose((a + b).mat, a.mat + b.mat)
    np.testing.assert_allclose((a - b).mat, a.mat - b.mat)
    np.testing.assert_allclose((2.5 * a).mat, 2.5 * a.mat)
    np.testing.assert_allclose((-a).mat, -a.mat)
    assert HermitianMatrix.identity(3).norm == 1.0
    assert HermitianMatrix.zeros(2).norm == 0.0


def test_eigh_ascending_and_reconstructs(rng):
    h = HermitianMatrix(random_hermitian(rng, 8))
    ed = eigh(h)
    assert np.all(np.diff(ed.values) >= 0.0)
    recon = (ed.vectors * ed.values) @ ed.vectors.conj().T
    assert op_norm(recon - h.mat) <= 1e-10 * (1.0 + h.norm)


def test_eigendecomposition_rejects_gram_defect():
    v = np.eye(3, dtype=np.complex128)
    v[0, 1] = 1e-9  # ||V* V - I|| is about 1e-9, ten times the bound
    with pytest.raises(ConsistencyFault, match="orthonormal"):
        EigenDecomposition(values=np.array([0.0, 1.0, 2.0]), vectors=v)


def test_eigendecomposition_accepts_gram_defect_below_the_operator_norm_bound():
    # ||V* V - I||_F = 1.6e-10 fails the Frobenius shortcut, but the
    # operator norm 0.8e-10 meets the bound, so the exact test must accept
    v = np.diag(np.full(4, np.sqrt(1.0 + 0.8e-10))).astype(np.complex128)
    EigenDecomposition(values=np.arange(4.0), vectors=v)


def test_eigh_rejects_bad_reconstruction(monkeypatch):
    lapack_eigh = np.linalg.eigh
    c, s = np.cos(1e-6), np.sin(1e-6)

    def perturbed(a):
        w, v = lapack_eigh(a)
        v = v.copy()
        # rotate two eigenvectors into each other: still orthonormal, but
        # V diag(w) V* misses H by about 1e-6
        v[:, [0, 1]] = v[:, [0, 1]] @ np.array([[c, -s], [s, c]])
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConsistencyFault, match="reconstruction"):
        eigh(HermitianMatrix(np.diag([1.0, 2.0, 3.0])))


def test_projection_rejects_non_idempotent():
    with pytest.raises(InputError, match="idempotent"):
        Projection(np.diag([1.0, 0.5, 0.0]))


def test_jacobi_hand_case():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3
    ed = jacobi_eigh(HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    np.testing.assert_allclose(ed.values, [1.0, 3.0], atol=1e-12)


def test_jacobi_agrees_with_lapack(rng):
    for dim in (2, 3, 6, 10):
        h = HermitianMatrix(random_hermitian(rng, dim))
        np.testing.assert_allclose(
            jacobi_eigh(h).values, eigh(h).values, atol=1e-10 * (1 + h.norm)
        )


def test_apply_function_scalar_transport():
    h = HermitianMatrix(np.diag([-2.0, 0.5, 3.0]))
    out = apply_function(h, lambda x: x * x)
    np.testing.assert_allclose(np.sort(np.diag(out.mat)).real, [0.25, 4.0, 9.0])


def test_apply_function_domain_errors():
    h = HermitianMatrix(np.diag([-4.0, 1.0]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(FunctionDomainError):
            apply_function(h, np.sqrt)  # nan at -4
    with pytest.raises(FunctionDomainError):
        apply_function(h, lambda x: 1.0 / (x - 1.0))  # inf at 1


def test_interval_factories_and_mask():
    w = Interval.co(0.0, 2.0)
    np.testing.assert_array_equal(
        w.mask(np.array([-1.0, 0.0, 1.0, 2.0])), [False, True, True, False]
    )
    assert Interval.ge(1.0).mask(np.array([0.5, 1.0]))[1]
    assert not Interval.gt(1.0).mask(np.array([1.0]))[0]
    assert Interval.le(0.0).mask(np.array([0.0]))[0]
    with pytest.raises(InputError):
        Interval.closed(2.0, 1.0)


def test_projection_ranks_and_complement(rng):
    h = HermitianMatrix(random_hermitian(rng, 6))
    p = nonneg_projection(h)
    assert p.rank + p.complement().rank == 6
    # idempotency is enforced
    with pytest.raises(InputError):
        Projection(np.diag([0.5, 1.0]))


def test_spectral_projection_window_ranks():
    h = HermitianMatrix(np.diag([-3.0, -1.0, 0.0, 2.0, 5.0]))
    assert spectral_projection(h, Interval.closed(-1.5, 2.5)).rank == 3
    assert spectral_projection(h, Interval.ge(-0.5)).rank == 3
    assert nonneg_projection(h).rank == 3  # 0 counts as nonnegative


def test_spectral_projection_boundary_guard():
    h = HermitianMatrix(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(BoundaryCollisionError):
        spectral_projection(h, Interval.closed(-0.5, 1.0))
    # the guard also covers an endpoint dead on an eigenvalue, where
    # nonneg_projection (the junction-count convention) still answers
    with pytest.raises(BoundaryCollisionError):
        spectral_projection(h, Interval.ge(0.0))
    assert nonneg_projection(h).rank == 2


def test_contour_vs_spectral(rng):
    h = HermitianMatrix(random_hermitian(rng, 7))
    vals = np.linalg.eigvalsh(h.mat)
    lo, hi = vals[2], vals[4]
    pad = 0.25 * min(vals[2] - vals[1], vals[5] - vals[4])
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo) + pad
    p_contour = contour_projection(h, center, radius)
    p_spec = spectral_projection(h, Interval.closed(center - radius, center + radius))
    assert op_norm(p_contour.mat - p_spec.mat) <= 1e-10
    assert p_contour.rank == 3


def test_contour_collision_guard():
    h = HermitianMatrix(np.diag([0.0, 1.0, 4.0]))
    with pytest.raises(ContourCollisionError):
        contour_projection(h, 0.0, 1.0)  # circle passes through eigenvalue 1


def test_rank_eps_exact_and_warning():
    a = np.diag([1.0, 1e-3, 0.0])
    assert rank_eps(a) == 2
    with pytest.warns(IllConditionedRankWarning):
        assert rank_eps(np.diag([1.0, 5e-8])) in (1, 2)
    assert rank_eps(np.zeros((3, 3))) == 0


def test_inv_sqrt_integral_vs_eigh_route(rng):
    for dim in (2, 5, 9):
        vals = rng.uniform(0.2, 8.0, size=dim)
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        a = HermitianMatrix(q @ np.diag(vals) @ q.conj().T)
        direct = q @ np.diag(vals ** -0.5) @ q.conj().T
        assert op_norm(inv_sqrt_integral(a).mat - direct) <= 1e-8


def test_inv_sqrt_integral_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        inv_sqrt_integral(HermitianMatrix(np.diag([1.0, -0.5])))


def test_check_a1_random_draws(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        vals = rng.uniform(0.1, 5.0, size=dim)
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        t = HermitianMatrix(q @ np.diag(vals) @ q.conj().T)
        b = HermitianMatrix(random_hermitian(rng, dim))
        rep = check_a1(t, b)
        assert isinstance(rep, A1Report)
        assert rep.equal_norms_ok and rep.lower_bound_ok
        assert rep.spd and rep.sandwich_bound_ok


def test_tol_spec_scaling():
    small = tol_spec(HermitianMatrix.zeros(2))
    large = tol_spec(HermitianMatrix(np.diag([1e6, -1e6])))
    assert small == pytest.approx(1e-9)
    assert large == pytest.approx(1e-9 * (1 + 1e6))


def test_as_hermitian_accepts_arrays_and_passthrough(rng):
    arr = random_hermitian(rng, 3)
    h = as_hermitian(arr)
    assert isinstance(h, HermitianMatrix)
    assert as_hermitian(h) is h
