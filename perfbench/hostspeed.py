"""Host speed, measured around every operation with fixed library-free kernels.

A shared host's speed drifts by 20-50 % within seconds (other tenants'
load on the same cores and caches), and that drift moves every timing of
the library with it. Each timed operation is therefore bracketed by two
runs of a short calibration kernel that uses no ``specflowlab`` code, and
the operation's latency is reported at reference speed:

    latency at reference speed = measured latency / slowdown
    slowdown = geometric mean of the two kernel times / REFERENCE_S

A change to the library moves the measured latency and leaves the kernel
alone, so the ratio between two commits is kept; a slow spell of the host
stretches both and cancels. The kernel imitates the kind of work the
workload does: ``small`` is per-call Python and numpy dispatch on matrices
of dimension 2-8, ``dense`` is complex LAPACK (SVD and ``eigh``) at
dimension 96. Each workload uses the kernel whose time tracked its
operations most closely when both were timed next to them for minutes on a
shared host. ``REFERENCE_S`` is each kernel's time on a quiet reference
machine (2 cores, OpenBLAS 0.3.31 on one thread, numpy 2.4, Python 3.11).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20040111)


def _herm(dim: int) -> np.ndarray:
    g = _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


_SMALL = [_herm(2 + k % 7) for k in range(84)]
_DENSE = _herm(96)


def _small() -> None:
    for a in _SMALL:
        np.linalg.eigvalsh(a)
        np.linalg.norm(a @ a - a, 2)


def _dense() -> None:
    for _ in range(2):
        np.linalg.svd(_DENSE, compute_uv=False)
        np.linalg.eigh(_DENSE)


KERNELS = {"small": _small, "dense": _dense}

#: seconds one call of each kernel takes on the reference machine
REFERENCE_S = {"small": 0.0040, "dense": 0.0066}

#: the kernel timed before and after each of a workload's operations, and
#: how many times each time (for a median): a few percent of the operation
WORKLOAD_KERNELS = {"flow_small": ("small", 1), "flow_large": ("dense", 3),
                    "cli_mixed": ("small", 3)}

#: set-up (imports, first calls) is interpreter-bound on every workload
SETUP_KERNEL = "small"


def slowdown(kernel: str, repeats: int = 1) -> float:
    """How many times slower than the reference machine the host runs now:
    the kernel's time (median of ``repeats``) over its reference time."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        KERNELS[kernel]()
        times.append(perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S[kernel]


def warm_up() -> None:
    for fn in KERNELS.values():
        fn()
