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
    """The GraphDistanceDetail of every library d_G_detail call made during
    the test, in call order. d_G, the separation report, the norm/graph
    check and the graded stability check look ``metrics.d_G_detail`` up at
    call time, so their calls are recorded; a name imported by the test
    itself is the unwrapped function."""
    recorded = []
    unwrapped = metrics.d_G_detail

    def recording(t1, t2):
        detail = unwrapped(t1, t2)
        recorded.append(detail)
        return detail

    monkeypatch.setattr(metrics, "d_G_detail", recording)
    return recorded


@pytest.fixture
def herm():
    """Factory: seeded random Hermitian arrays."""
    return random_hermitian


def narrow_dip(t):
    """An eigenvalue dips from 1 to -2 and back within about 1e-4 of
    t = 0.5123, between the samples of every default grid."""
    return HermitianMatrix(np.diag([1.0 - 3.0 * np.exp(-(((t - 0.5123) / 2e-5) ** 2)), 2.0]))
