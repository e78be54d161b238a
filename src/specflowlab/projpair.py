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

pair_index is the module's one operation: sf_pairsum writes the spectral
flow as a sum of pair indices of the nonnegative spectral projections at
its certified segment ends, counting the pairs of consecutive junctions
as stacks through ``_pair_indices`` (pair_index is its one-pair case), and
verify_toeplitz_theorem reports the index of a conjugated pair as one of
its routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyFault, DimensionMismatchError
from .matcore import Projection

__all__ = [
    "Projection",
    "PairIndexResult",
    "pair_index",
]

#: how close an eigenvalue of P - Q must be to +-1 to be counted
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


def pair_index(p, q) -> PairIndexResult:
    """Index of the pair (P, Q); see the module docstring for the routes.
    The ranks are the validated ones each Projection carries. The one-pair
    case of ``_pair_indices``, which sf_pairsum calls on its consecutive
    junctions as stacks."""
    pp = _as_projection(p)
    qq = _as_projection(q)
    if pp.dim != qq.dim:
        raise DimensionMismatchError(f"dims differ: {pp.dim} vs {qq.dim}")
    return _pair_indices((pp.mat - qq.mat)[None], [pp.rank - qq.rank])[0]


def _pair_indices(diffs: np.ndarray, rank_diffs: list[int]) -> list[PairIndexResult]:
    """The index of each of k pairs (P, Q), given the (k, n, n) stack of
    the differences P - Q and the rank differences rank P - rank Q: the
    eigenvalue-count route by one stacked eigvalsh, each pair bit for bit
    its own. The first pair whose routes disagree raises."""
    w = np.linalg.eigvalsh(diffs)
    plus = np.count_nonzero(np.abs(w - 1.0) <= _RANK_TOL, axis=1)
    minus = np.count_nonzero(np.abs(w + 1.0) <= _RANK_TOL, axis=1)
    return [
        PairIndexResult(value=r, route_rank_diff=r, route_eigencount=e)
        for r, e in zip(rank_diffs, (plus - minus).tolist())
    ]
