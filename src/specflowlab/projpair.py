"""Index theory for pairs of orthogonal projections.

The index of a pair (P, Q) is the Fredholm index of Q restricted to the
range of P, mapping into the range of Q. At finite dimension it is
rank P - rank Q, and that rank difference is the value. On every call it
is cross-checked numerically against the eigenvalue count

    dim ker(P - Q - I) - dim ker(P - Q + I),

which equals it by algebra (the eigenvalues of P - Q other than +-1 pair
up as +-lambda); the comparison catches numerically ill-determined ranks,
not a wrong index, so it is not an independent proof. A disagreement is a
ConsistencyFault (internal bug), never a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConsistencyFault, DimensionMismatchError, InputError, SamplingError
from .matcore import Projection, op_norm, rank_eps

__all__ = [
    "Projection",
    "PairIndexResult",
    "pair_index",
    "fredholm_pair_gap",
    "pair_path_invariance",
]

#: shared rank threshold for every route (spec of the module)
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class PairIndexResult:
    """The pair index together with the two routes that produced it."""

    value: int
    route_rank_diff: int
    route_eigencount: int

    def __post_init__(self):
        if self.route_rank_diff != self.route_eigencount:
            raise ConsistencyFault(
                f"pair-index routes disagree: rank difference {self.route_rank_diff}, "
                f"eigenvalue count {self.route_eigencount}"
            )
        if self.value != self.route_rank_diff:
            raise ConsistencyFault("pair-index value does not match its routes")

    def __int__(self) -> int:
        return self.value


def _as_projection(p) -> Projection:
    if isinstance(p, Projection):
        return p
    return Projection(np.asarray(p))


def pair_index(p, q, *, tol: float = _RANK_TOL) -> PairIndexResult:
    """Index of the pair (P, Q); see the module docstring for the routes."""
    pp = _as_projection(p)
    qq = _as_projection(q)
    if pp.dim != qq.dim:
        raise DimensionMismatchError(f"dims differ: {pp.dim} vs {qq.dim}")
    route_rank = rank_eps(pp.mat, tol) - rank_eps(qq.mat, tol)
    w = np.linalg.eigvalsh(pp.mat - qq.mat)
    plus = int(np.sum(np.abs(w - 1.0) <= tol))
    minus = int(np.sum(np.abs(w + 1.0) <= tol))
    route_eig = plus - minus
    return PairIndexResult(
        value=route_rank,
        route_rank_diff=route_rank,
        route_eigencount=route_eig,
    )


def fredholm_pair_gap(p, q) -> float:
    """||P - Q||; below 1 the pair index provably vanishes."""
    pp = _as_projection(p)
    qq = _as_projection(q)
    if pp.dim != qq.dim:
        raise DimensionMismatchError(f"dims differ: {pp.dim} vs {qq.dim}")
    return op_norm(pp.mat - qq.mat)


def pair_path_invariance(
    pair_path: Callable[[float], tuple[Projection, Projection]],
    samples: int,
) -> dict:
    """Certify that the pair index is constant along a sampled path of pairs.

    ``pair_path(t)`` must return (P(t), Q(t)) for t in [0, 1]. Sampling is
    uniform with ``samples`` points; any consecutive jump of norm >= 1 in
    either leg means the certificate cannot be issued (SamplingError: the
    grid is too coarse). With all jumps < 1, a non-constant index would
    contradict homotopy invariance and raises ConsistencyFault.
    """
    if not isinstance(samples, int) or samples < 2:
        raise InputError(f"need at least 2 samples, got {samples!r}")
    ts = np.linspace(0.0, 1.0, samples)
    pairs = []
    for t in ts:
        p, q = pair_path(float(t))
        pairs.append((_as_projection(p), _as_projection(q)))
    max_jump_p = 0.0
    max_jump_q = 0.0
    for k in range(samples - 1):
        jp = op_norm(pairs[k + 1][0].mat - pairs[k][0].mat)
        jq = op_norm(pairs[k + 1][1].mat - pairs[k][1].mat)
        max_jump_p = max(max_jump_p, jp)
        max_jump_q = max(max_jump_q, jq)
        if jp >= 1.0 or jq >= 1.0:
            raise SamplingError(
                f"projection jump {max(jp, jq):.3f} >= 1; sampling too coarse",
                window=(float(ts[k]), float(ts[k + 1])),
            )
    indices = [pair_index(p, q).value for p, q in pairs]
    if len(set(indices)) != 1:
        raise ConsistencyFault(
            f"pair index not constant along certified path: {sorted(set(indices))}"
        )
    return {
        "check": "pair_path_invariance",
        "samples": samples,
        "index": indices[0],
        "constant": True,
        "max_jump_p": max_jump_p,
        "max_jump_q": max_jump_q,
    }
