"""Off-diagonal Hermitian operators built from a rectangular block.

A block A mapping C^p -> C^q sits inside the Hermitian matrix
T = [[0, A*], [A, 0]] on C^(p+q), which anticommutes with the signature
grading diag(I_p, -I_q). The kernel defect dim ker A - dim ker A* is
readable from T as the grading-weighted dimension of any spectral window
around zero that clears the first nonzero singular value: eigenvectors at
a nonzero level pair off with opposite grading signs, so only the kernel
contributes. index_stability_check perturbs by odd blocks, small in graph
distance, and watches that weighted dimension hold still.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConsistencyFault, FinitenessError, InputError, require_int, require_real
from .matcore import (
    HermitianMatrix,
    Interval,
    _chunk_len,
    _chunks,
    _complex_array,
    _hermitian_stack,
    _op_norms,
    _spectral_projections,
    _tally,
    spectral_projection,
    tol_spec,
)
from . import metrics
from .metrics import _graph_routes, _Operand

__all__ = [
    "GradedOperator",
    "graded_window_dim",
    "eigenpair_cancellation_check",
    "index_stability_check",
]


@dataclass(frozen=True)
class GradedOperator:
    """A q-by-p block A presented as the odd Hermitian matrix it generates.

    The block's singular values and the odd matrix's eigendecomposition are
    computed once per operator, on first use, and shared by the spectral
    gap at every ``tol`` and by every check.
    """

    p: int
    q: int
    block: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = require_int(self.p, "p", 0)
        q = require_int(self.q, "q", 0)
        if p + q == 0:
            raise InputError(f"need p, q >= 0 with p + q > 0, got ({p}, {q})")
        a = _complex_array(self.block)
        if a.shape != (q, p):
            raise InputError(f"block must be {q}x{p}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise FinitenessError("block contains non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "block", a)

    @property
    def dim(self) -> int:
        return self.p + self.q

    def matrix(self) -> HermitianMatrix:
        """T = [[0, A*], [A, 0]]."""
        return HermitianMatrix(_odd_stack(self.p, self.block[None])[0])

    def grading(self) -> HermitianMatrix:
        """diag(I_p, -I_q); anticommutes with matrix()."""
        return HermitianMatrix(
            np.diag(np.concatenate([np.ones(self.p), -np.ones(self.q)]))
        )

    def kernel_index(self) -> int:
        """dim ker A - dim ker A*, which is (p - rank A) - (q - rank A*) =
        p - q by rank-nullity, since A and A* have the same rank."""
        return self.p - self.q

    @cached_property
    def _odd(self) -> _Operand:
        """matrix() as an operand, with its decomposition and transforms."""
        return _Operand.of_matrix(self.matrix())

    @cached_property
    def _singular_values(self) -> np.ndarray:
        _tally("svd.block")
        return np.linalg.svd(self.block, compute_uv=False)

    def spectral_gap(self, *, tol: float = 1e-8) -> float:
        """Smallest singular value of the block above ``tol`` (0.0 if none);
        ``tol`` must be finite and nonnegative."""
        tol = require_real(tol, "tol", "finite and nonnegative")
        sv = self._singular_values
        above = sv[sv > tol]
        return float(above.min()) if above.size else 0.0

    def perturb(self, b: np.ndarray) -> "GradedOperator":
        """Odd perturbation: replace the block A by A + B."""
        return GradedOperator(self.p, self.q, self.block + np.asarray(b))


def _odd_stack(p: int, blocks: np.ndarray) -> np.ndarray:
    """[[0, A*], [A, 0]] for each q-by-p block A of a (k, q, p) stack."""
    k, q, _ = blocks.shape
    t = np.zeros((k, p + q, p + q), dtype=np.complex128)
    t[:, :p, p:] = blocks.conj().swapaxes(1, 2)
    t[:, p:, :p] = blocks
    return t


def graded_window_dim(g: GradedOperator, eps: float) -> int:
    """Grading-weighted dimension of the [-eps, eps] spectral window of
    the odd matrix; equals the kernel index once eps clears the gap."""
    eps = require_real(eps, "eps", "positive")
    return _window_dim(g._odd.h, g.grading(), eps)


def _window_dim(t: HermitianMatrix, grading: HermitianMatrix, eps: float) -> int:
    return _graded_dim(grading, spectral_projection(t, Interval(-eps, eps)).mat)


def _graded_dim(grading: HermitianMatrix, proj: np.ndarray) -> int:
    """The grading-weighted dimension tr(grading P) of a projection P,
    which must lie within 1e-8 of an integer."""
    weighted = float(np.real(np.trace(grading.mat @ proj)))
    rounded = round(weighted)
    if abs(weighted - rounded) > 1e-8:
        raise ConsistencyFault(
            f"graded window dimension {weighted!r} is not near an integer"
        )
    return int(rounded)


def eigenpair_cancellation_check(g: GradedOperator) -> dict:
    """Group the odd matrix's spectrum by |eigenvalue| and confirm every
    nonzero level carries graded dimension zero (the +/- pair-off)."""
    t = g._odd.h
    ed = t.eig
    alpha = g.grading().mat
    tol = tol_spec(t)
    mags = np.abs(ed.values)
    order = np.argsort(mags)
    levels = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or mags[order[i]] - mags[order[i - 1]] > tol:
            levels.append(order[start:i])
            start = i
    worst = 0.0
    nonzero_levels = 0
    for idx in levels:
        level_mag = float(mags[idx].mean())
        if level_mag <= tol:
            continue
        nonzero_levels += 1
        vecs = ed.vectors[:, idx]
        weighted = float(np.real(np.trace(vecs.conj().T @ alpha @ vecs)))
        worst = max(worst, abs(weighted))
    return {
        "check": "eigenpair_cancellation",
        "nonzero_levels": nonzero_levels,
        "max_graded_dim": worst,
        "ok": worst <= 1e-8,
    }


def index_stability_check(
    g: GradedOperator, *, trials: int = 50, seed: int = 0, tol: float = 1e-8
) -> dict:
    """Perturb the block at random, keeping the graph distance below half
    the spectral gap (capped at 0.1), and require the graded window
    dimension at the half-gap level to match the kernel index throughout.

    This is a numerical check of an identity, not an independent route:
    the kernel index is p - q for every block, and the window dimension
    equals it whenever the window clears the first nonzero singular value,
    so a failure here measures the rounding of the spectral projection.
    ``tol`` is the spectral gap's: singular values at or below it do not
    count. ``trials`` and ``seed`` must be nonnegative ints.

    The trials run in chunks of ``_chunk_len``, with the same generator
    draws in the same order as a one-trial loop. Per chunk the perturbed
    odd matrices are validated, factored and inverted together, both
    graph-distance routes against the base are stacked, and the window
    projections of the trials within graph distance ``delta`` are stacked
    (a farther trial never checks its window); each value is bit for bit
    the one-trial value. A stacked step raises what its first failing
    check raises, on that check's first failing trial. The trials are then
    walked in order.
    """
    require_int(trials, "trials", 0)
    require_int(seed, "seed", 0)
    gap = g.spectral_gap(tol=tol)
    if gap == 0.0:
        raise InputError("block has no nonzero singular value; no gap to protect")
    delta = min(0.5 * gap, 0.1)
    base_index = g.kernel_index()
    t0 = g._odd
    grading = g.grading()
    window = Interval(-0.5 * gap, 0.5 * gap)
    if _window_dim(t0.h, grading, 0.5 * gap) != base_index:
        raise ConsistencyFault("window dimension disagrees with kernel index at start")
    rng = np.random.default_rng(seed)
    failures = []
    for ks in _chunks(range(trials), _chunk_len(g.dim)):
        # every draw of the chunk first, in the trials' order: a block gets
        # its uniform factor when its 2-norm is positive, that is, when it
        # has a nonzero entry
        draws = []
        for _ in ks:
            b = rng.normal(size=(g.q, g.p)) + 1j * rng.normal(size=(g.q, g.p))
            draws.append((b, (0.5 * delta) * rng.uniform(0.1, 1.0) if b.any() else None))
        scaled = [(b, f) for b, f in draws if f is not None]
        if scaled:
            for (b, f), norm in zip(scaled, _op_norms(np.array([b for b, _ in scaled]))):
                b *= f / norm
        perturbed = np.array([g.perturb(b).block for b, _ in draws])
        tps = _Operand(_hermitian_stack(_odd_stack(g.p, perturbed)))
        res, cay = _graph_routes(t0, tps)
        near = [i for i, dist in enumerate(res) if dist < delta]
        projs = iter(())
        if near:
            w, v = tps.eig
            norms = _op_norms(tps.mats[near]).tolist()
            projs = iter(_spectral_projections(w[near], v[near], norms, window)[0])
        for k, r, c in zip(ks, res, cay):
            dist = metrics._graph_detail(r, c).resolvent_route
            if dist >= delta:
                failures.append({"trial": k, "reason": "graph distance", "value": dist})
                continue
            dim = _graded_dim(grading, next(projs))
            if dim != base_index:
                failures.append({"trial": k, "reason": "window dim", "value": dim})
    return {
        "check": "graded_index_stability",
        "trials": trials,
        "gap": gap,
        "delta": delta,
        "base_index": base_index,
        "failures": failures,
        "ok": not failures,
        "seed": seed,
    }
