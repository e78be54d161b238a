import numpy as np
import pytest

from specflowlab import generators, metrics
from specflowlab.errors import InputError
from specflowlab.matcore import HermitianMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_spd(
    rng: np.random.Generator, dim: int, lam_lo: float = 0.1, lam_hi: float = 10.0
) -> HermitianMatrix:
    if not (0 < lam_lo <= lam_hi):
        raise InputError("need 0 < lam_lo <= lam_hi")
    u = generators.random_unitary(rng, dim).mat
    lam = rng.uniform(lam_lo, lam_hi, size=dim)
    return HermitianMatrix((u * lam) @ u.conj().T)


def random_invertible_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    """A random Hermitian matrix with its spectrum clamped to |spec| >= 0.2."""
    return generators.clamp_spectrum_away_from_zero(
        generators.random_hermitian(rng, dim), generators.ENDPOINT_CLAMP_GAP
    )


@pytest.fixture
def graph_distance_details(monkeypatch):
    """The GraphDistanceDetail of every pair whose two graph-distance routes
    the library checked during the test, in order: one per d_G or
    d_G_detail call, one per row of a separation report, and one per
    graded stability trial. All check each pair through
    ``metrics._graph_detail``, which is looked up at call time, so every
    check is recorded; the fault it raises still raises."""
    recorded = []
    unwrapped = metrics._graph_detail

    def recording(res, cay):
        detail = unwrapped(res, cay)
        recorded.append(detail)
        return detail

    monkeypatch.setattr(metrics, "_graph_detail", recording)
    return recorded


@pytest.fixture
def herm():
    """Factory: seeded random Hermitian arrays."""
    return random_hermitian


def narrow_dip(t):
    """An eigenvalue dips from 1 to -2 and back within about 1e-4 of
    t = 0.5123, between the samples of every default grid."""
    return HermitianMatrix(np.diag([1.0 - 3.0 * np.exp(-(((t - 0.5123) / 2e-5) ** 2)), 2.0]))
