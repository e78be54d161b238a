import numpy as np
import pytest

from specflowlab import metrics
from specflowlab.matcore import HermitianMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


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
