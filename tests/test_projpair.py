"""Projection-pair index: three routes, algebraic laws, path invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specflowlab.errors import SamplingError
from specflowlab.matcore import HermitianMatrix, Projection, nonneg_projection
from specflowlab.projpair import fredholm_pair_gap, pair_index, pair_path_invariance

from conftest import random_hermitian


def random_projection(rng, dim, rank):
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return Projection(q[:, :rank] @ q[:, :rank].conj().T)


def test_hand_index():
    p = Projection(np.diag([1.0, 1.0, 0.0]))
    q = Projection(np.diag([1.0, 0.0, 0.0]))
    res = pair_index(p, q)
    assert int(res) == 1
    assert res.route_rank_diff == res.route_eigencount == 1
    assert int(pair_index(q, p)) == -1
    assert int(pair_index(p, p)) == 0


def test_index_is_rank_difference(rng):
    for _ in range(30):
        dim = int(rng.integers(1, 10))
        rp = int(rng.integers(0, dim + 1))
        rq = int(rng.integers(0, dim + 1))
        p = random_projection(rng, dim, rp)
        q = random_projection(rng, dim, rq)
        assert int(pair_index(p, q)) == rp - rq


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 2**31 - 1))
def test_additivity_and_antisymmetry(dim, rp, rq, rr, seed):
    rng = np.random.default_rng(seed)
    p = random_projection(rng, dim, min(rp, dim))
    q = random_projection(rng, dim, min(rq, dim))
    r = random_projection(rng, dim, min(rr, dim))
    assert int(pair_index(p, q)) + int(pair_index(q, r)) == int(pair_index(p, r))
    assert int(pair_index(p, q)) == -int(pair_index(q, p))


def test_unitary_invariance(rng):
    dim = 6
    p = random_projection(rng, dim, 2)
    q = random_projection(rng, dim, 4)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    pu = Projection(u @ p.mat @ u.conj().T)
    qu = Projection(u @ q.mat @ u.conj().T)
    assert int(pair_index(p, q)) == int(pair_index(pu, qu))


def test_close_pair_has_zero_index(rng):
    # gap < 1 forces equal ranks, hence index 0
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        h = HermitianMatrix(random_hermitian(rng, dim))
        p = nonneg_projection(h)
        tiny = HermitianMatrix(random_hermitian(rng, dim, scale=1e-4))
        q = nonneg_projection(h + tiny)
        if fredholm_pair_gap(p, q) < 1.0:
            assert int(pair_index(p, q)) == 0


def test_pair_path_invariance_constant(rng):
    dim = 5
    h = HermitianMatrix(random_hermitian(rng, dim) + 3 * np.eye(dim))
    base = nonneg_projection(h)

    # rotate both projections together; the index must stay put
    from specflowlab.matcore import eigh

    gen = HermitianMatrix(random_hermitian(rng, dim, scale=0.5))
    ed = eigh(gen)

    def rotation(t):
        return ed.assemble(np.exp(1j * t * ed.values))

    other = Projection(np.eye(dim) - base.mat) if base.rank == dim else base

    def pair(t):
        u = rotation(t)
        return (
            Projection(u @ base.mat @ u.conj().T),
            Projection(u @ other.mat @ u.conj().T),
        )

    report = pair_path_invariance(pair, samples=17)
    assert report["constant"]
    assert report["index"] == int(pair_index(*pair(0.0)))
    assert report["max_jump_p"] < 1.0


def test_pair_path_invariance_flags_jumps():
    # a rank jump between samples cannot be certified away
    p_hi = Projection(np.diag([1.0, 1.0]))
    p_lo = Projection(np.diag([1.0, 0.0]))
    q = Projection(np.diag([1.0, 0.0]))

    def pair(t):
        return (p_hi if t > 0.5 else p_lo, q)

    with pytest.raises(SamplingError):
        pair_path_invariance(pair, samples=9)
