"""Projection-pair index: its two routes and algebraic laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specflowlab.matcore import HermitianMatrix, Projection, nonneg_projection, op_norm
from specflowlab.projpair import pair_index

from conftest import random_hermitian


def random_projection(rng, dim, rank):
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return Projection(q[:, :rank] @ q[:, :rank].conj().T)


def test_hand_index():
    p = Projection(np.diag([1.0, 1.0, 0.0]))
    q = Projection(np.diag([1.0, 0.0, 0.0]))
    res = pair_index(p, q)
    assert res.value == res.route_eigencount == 1
    assert pair_index(q, p).value == -1
    assert pair_index(p, p).value == 0


def test_index_is_rank_difference(rng):
    for _ in range(30):
        dim = int(rng.integers(1, 10))
        rp = int(rng.integers(0, dim + 1))
        rq = int(rng.integers(0, dim + 1))
        p = random_projection(rng, dim, rp)
        q = random_projection(rng, dim, rq)
        assert pair_index(p, q).value == rp - rq


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 2**31 - 1))
def test_additivity_and_antisymmetry(dim, rp, rq, rr, seed):
    rng = np.random.default_rng(seed)
    p = random_projection(rng, dim, min(rp, dim))
    q = random_projection(rng, dim, min(rq, dim))
    r = random_projection(rng, dim, min(rr, dim))
    assert pair_index(p, q).value + pair_index(q, r).value == pair_index(p, r).value
    assert pair_index(p, q).value == -pair_index(q, p).value


def test_unitary_invariance(rng):
    dim = 6
    p = random_projection(rng, dim, 2)
    q = random_projection(rng, dim, 4)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    pu = Projection(u @ p.mat @ u.conj().T)
    qu = Projection(u @ q.mat @ u.conj().T)
    assert pair_index(p, q).value == pair_index(pu, qu).value


def test_close_pair_has_zero_index(rng):
    # gap < 1 forces equal ranks, hence index 0
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        h = HermitianMatrix(random_hermitian(rng, dim))
        p = nonneg_projection(h)
        tiny = HermitianMatrix(random_hermitian(rng, dim, scale=1e-4))
        q = nonneg_projection(HermitianMatrix(h.mat + tiny.mat))
        if op_norm(p.mat - q.mat) < 1.0:
            assert pair_index(p, q).value == 0
