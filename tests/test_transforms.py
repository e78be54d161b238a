"""Bounded transform and Cayley transform round trips, image membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specflowlab.errors import ImageMembershipError, InputError
from specflowlab.matcore import HermitianMatrix, apply_function, op_norm
from specflowlab.transforms import (
    UnitaryMatrix,
    cayley,
    cayley_inverse,
    is_in_cayley_invertible_image,
    is_in_riesz_image,
    riesz,
    riesz_inverse,
    unitary_eig,
)

from conftest import random_hermitian

ROUND_TRIP_TOL = 1e-9


def test_unitary_validation(rng):
    with pytest.raises(InputError):
        UnitaryMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    assert UnitaryMatrix(q).dim == 4


def test_unitary_array_copies_only_when_asked():
    """``np.array(U)`` is a writable copy; ``np.asarray(U)`` is the
    wrapper's own array."""
    u = UnitaryMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    a = np.array(u)
    a[0, 0] = 7.0
    assert u.mat[0, 0] == 0.0 and not np.shares_memory(a, u.mat)
    assert np.asarray(u) is u.mat


def test_unitary_validation_boundary():
    """The Frobenius pre-check decides nothing the 2-norm would not."""
    # U*U - I = diag(1.0000001e-10, 0, 0, 0) up to rounding: a 2-norm just
    # above the bound, equal to the Frobenius norm, quoted in the message
    u = np.diag([math.sqrt(1.0 + 1.0000001e-10), 1.0, 1.0, 1.0])
    defect = op_norm(u.conj().T @ u - np.eye(4))
    assert 1e-10 < defect < 1.001e-10
    with pytest.raises(InputError) as exc:
        UnitaryMatrix(u)
    assert str(exc.value) == f"not unitary: ||U*U - I|| = {defect:.3e}"
    # Frobenius defect 2 x 2-norm defect: over the bound, yet accepted
    v = np.diag(np.full(4, math.sqrt(1.0 + 0.9e-10)))
    gram = v.conj().T @ v - np.eye(4)
    assert np.linalg.norm(gram) > 1e-10 >= op_norm(gram)
    assert UnitaryMatrix(v).dim == 4


def test_riesz_matches_the_scalar_calculus(rng):
    """The array formula gives the bits of the per-eigenvalue route, huge
    eigenvalues (x^2 overflows) included."""
    for t in (
        HermitianMatrix(random_hermitian(rng, 6, scale=5.0)),
        HermitianMatrix(np.diag([1e200, -1e160, 0.5, 0.0])),
    ):
        scalar = apply_function(t, lambda x: x / np.sqrt(1.0 + x * x))
        assert np.array_equal(riesz(t).mat, scalar.mat)


def test_riesz_scalar_transport():
    # eigenvalues x map to x/sqrt(1+x^2)
    t = HermitianMatrix(np.diag([0.0, 1.0, -1.0]))
    s = riesz(t)
    expect = np.array([0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)])
    np.testing.assert_allclose(np.diag(s.mat).real, expect, atol=1e-14)
    assert s.norm < 1.0


def test_riesz_round_trip(rng):
    for dim in (1, 3, 7):
        t = HermitianMatrix(random_hermitian(rng, dim, scale=2.0))
        back = riesz_inverse(riesz(t))
        assert op_norm(back.mat - t.mat) <= ROUND_TRIP_TOL * (1.0 + t.norm ** 2)


def test_riesz_inverse_rejects_contraction_boundary():
    with pytest.raises(InputError):
        riesz_inverse(HermitianMatrix(np.diag([0.5, 1.0])))


def test_riesz_image_membership():
    inside = HermitianMatrix(np.diag([0.3, -0.9]))
    assert is_in_riesz_image(inside)
    at_boundary = HermitianMatrix(np.diag([1.0, 0.0]))
    rep = is_in_riesz_image(at_boundary)
    assert not rep.ok
    assert "1" in rep.detail or rep.witness == pytest.approx(1.0)


def test_cayley_round_trip(rng):
    for dim in (1, 2, 5, 8):
        t = HermitianMatrix(random_hermitian(rng, dim, scale=3.0))
        u = cayley(t)
        assert op_norm(u.mat @ u.mat.conj().T - np.eye(dim)) <= 1e-10
        back = cayley_inverse(u)
        assert op_norm(back.mat - t.mat) <= ROUND_TRIP_TOL * (1.0 + t.norm ** 2)


def test_cayley_scalar_transport():
    # lambda = 0 maps to (0-i)/(0+i) = -1
    u = cayley(HermitianMatrix(np.zeros((2, 2))))
    np.testing.assert_allclose(u.mat, -np.eye(2), atol=1e-14)


def test_cayley_inverse_guards_point_at_infinity():
    # +1 is the image of the point at infinity and is not invertible-image
    u = UnitaryMatrix(np.eye(3))
    assert not is_in_cayley_invertible_image(u)
    with pytest.raises(ImageMembershipError):
        cayley_inverse(u)


def test_unitary_eig_reconstruction_and_clusters(rng):
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    w, v = unitary_eig(UnitaryMatrix(q))
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-10)
    assert op_norm((v * w) @ v.conj().T - q) <= 1e-8
    # degenerate cluster: a repeated eigenvalue still yields an orthonormal basis
    u = UnitaryMatrix(np.diag(np.exp(1j * np.array([0.3, 0.3, -1.2]))))
    w2, v2 = unitary_eig(u)
    assert op_norm(v2.conj().T @ v2 - np.eye(3)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
def test_riesz_cayley_round_trips_on_diagonals(vals):
    t = HermitianMatrix(np.diag(np.array(vals, dtype=float)))
    bound = ROUND_TRIP_TOL * (1.0 + t.norm ** 2)
    assert op_norm(riesz_inverse(riesz(t)).mat - t.mat) <= bound
    assert op_norm(cayley_inverse(cayley(t)).mat - t.mat) <= bound


def test_transforms_commute_with_conjugation(rng):
    t = HermitianMatrix(random_hermitian(rng, 5))
    q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    conj = HermitianMatrix(q @ t.mat @ q.conj().T)
    assert op_norm(riesz(conj).mat - q @ riesz(t).mat @ q.conj().T) <= 1e-10
    assert op_norm(cayley(conj).mat - q @ cayley(t).mat @ q.conj().T) <= 1e-10
