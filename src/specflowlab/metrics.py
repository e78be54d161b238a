"""Four ways to measure the distance between Hermitian matrices, and the
reports that compare them.

* d_N: plain operator-norm distance of the perturbations
* d_W: norm distance weighted by (I + D^2)^{-1/2} for an explicit base D
* d_R: distance of the Riesz transforms
* d_G: distance of the resolvents at -i (graph distance); every call also
       evaluates the equivalent half-Cayley-distance formula and faults if
       the two routes disagree beyond 1e-9

Each distance takes matrices or private operand records and reads its
operands through the record, which forms the resolvent, the Riesz and
Cayley images and the weight once each; the last three read the one
eigendecomposition the HermitianMatrix caches. A call that measures many
operands against one reference (the separation report, the graded
stability check) passes the reference's record, built once, so its
transforms are computed once per call; nothing outlives the call. The
resolvent stays a direct matrix inverse, not an eigenbasis formula, so
the two d_G routes remain two different computations.

The separation report tabulates all four on the diagonal-model families,
next to their exact closed forms, which is where the metrics genuinely
diverge from one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConsistencyFault, DimensionMismatchError, InputError
from .matcore import HermitianMatrix, as_hermitian, op_norm
from .opmodel import (
    FAMILIES,
    DiagonalModel,
    closed_form_distances,
    family_perturbation,
    realize,
)
from .transforms import UnitaryMatrix, cayley, riesz

__all__ = [
    "d_N",
    "d_W",
    "d_R",
    "d_G",
    "d_G_detail",
    "GraphDistanceDetail",
    "GraphNormReport",
    "norm_graph_equivalence_check",
    "MetricReport",
    "metric_separation_report",
]

#: the two d_G formulas must agree at least this well, or we have a bug
_DG_FAULT = 1e-9


class _Operand:
    """A validated operand and the transforms the distances read, each
    computed on first use: the resolvent (H + i)^{-1}, and from the matrix's
    cached eigendecomposition the Riesz and Cayley images and the weight
    (I + H^2)^{-1/2}. Callers build one per operand and call; none is kept
    past the call, except a GradedOperator's, which holds its odd matrix's."""

    __slots__ = ("h", "_resolvent", "_riesz", "_cayley", "_weight")

    def __init__(self, h):
        self.h = as_hermitian(h)
        self._resolvent = self._riesz = self._cayley = self._weight = None

    @property
    def mat(self) -> np.ndarray:
        return self.h.mat

    @property
    def dim(self) -> int:
        return self.h.dim

    @property
    def resolvent(self) -> np.ndarray:
        if self._resolvent is None:
            eye = np.eye(self.dim, dtype=np.complex128)
            self._resolvent = np.linalg.inv(self.mat + 1j * eye)
        return self._resolvent

    @property
    def riesz(self) -> HermitianMatrix:
        if self._riesz is None:
            self._riesz = riesz(self.h)
        return self._riesz

    @property
    def cayley(self) -> UnitaryMatrix:
        if self._cayley is None:
            self._cayley = cayley(self.h)
        return self._cayley

    @property
    def weight(self) -> HermitianMatrix:
        if self._weight is None:
            w = self.h.eig.values
            with np.errstate(over="ignore"):  # x^2 = inf gives 0, like 1 / math.sqrt(1 + x * x)
                f = 1.0 / np.sqrt(1.0 + w * w)
            self._weight = HermitianMatrix(self.h.eig.assemble(f))
        return self._weight


def _operand(t) -> _Operand:
    return t if isinstance(t, _Operand) else _Operand(t)


def _pair(t1, t2) -> tuple[_Operand, _Operand]:
    a = _operand(t1)
    b = _operand(t2)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return a, b


def d_N(t1, t2) -> float:
    """Operator-norm distance ||T1 - T2||."""
    a, b = _pair(t1, t2)
    return op_norm(a.mat - b.mat)


def d_W(t1, t2, base) -> float:
    """Weighted distance ||(T1 - T2) (I + D^2)^{-1/2}|| for the base D.

    The base is an explicit argument: the value is only meaningful relative
    to a declared unperturbed operator.
    """
    a, b = _pair(t1, t2)
    d = _operand(base)
    if d.dim != a.dim:
        raise DimensionMismatchError(f"base dim {d.dim} differs from operand dim {a.dim}")
    return op_norm((a.mat - b.mat) @ d.weight.mat)


def d_R(t1, t2) -> float:
    """Riesz-transform distance ||F(T1) - F(T2)||."""
    a, b = _pair(t1, t2)
    return op_norm(a.riesz.mat - b.riesz.mat)


@dataclass(frozen=True)
class GraphDistanceDetail:
    """Both routes to the graph distance and their discrepancy."""

    resolvent_route: float
    cayley_route: float

    @property
    def delta(self) -> float:
        return abs(self.resolvent_route - self.cayley_route)


def d_G_detail(t1, t2) -> GraphDistanceDetail:
    """Graph distance via ||(T1+i)^{-1} - (T2+i)^{-1}|| and via the
    half-distance of Cayley transforms; both values are returned."""
    a, b = _pair(t1, t2)
    res = op_norm(a.resolvent - b.resolvent)
    cay = 0.5 * op_norm(a.cayley.mat - b.cayley.mat)
    detail = GraphDistanceDetail(resolvent_route=res, cayley_route=cay)
    if detail.delta > _DG_FAULT:
        raise ConsistencyFault(
            f"graph-distance routes disagree: resolvent {res!r} vs half-Cayley {cay!r}"
        )
    return detail


def d_G(t1, t2) -> float:
    """Graph distance; the resolvent-difference route is the reported value."""
    return d_G_detail(t1, t2).resolvent_route


@dataclass(frozen=True)
class GraphNormReport:
    """Outcome of the two-sided norm/graph comparison at radius R.

    Each implication is only checked when its hypothesis holds; an inactive
    implication reports None.
    """

    r_bound: float
    norm_t: float
    norm_diff: float
    d_g: float
    hyp_graph_small: bool
    norm_from_graph_ok: bool | None
    hyp_norm_small: bool
    graph_from_norm_ok: bool | None
    slack: float

    @property
    def ok(self) -> bool:
        for verdict in (self.norm_from_graph_ok, self.graph_from_norm_ok):
            if verdict is False:
                return False
        return True


def norm_graph_equivalence_check(t, t_tilde, r_bound: float) -> GraphNormReport:
    """Check the quantitative equivalence of norm and graph distances.

    On the ball ||T|| <= R: if d_G(T, T~) < (1/2)(1+R)^{-1} then
    ||T - T~|| <= 2 (1+R)^2 d_G; conversely if ||T - T~|| < 1/2 then
    d_G <= 2 ||T - T~||. Both bounds are checked with the additive slack
    1e-10, which the report carries. Hypotheses are recorded so vacuous
    checks are visible to the caller.
    """
    slack = 1e-10
    a, b = _pair(t, t_tilde)
    if not (np.isfinite(r_bound) and r_bound > 0):
        raise InputError(f"radius bound must be positive and finite, got {r_bound!r}")
    norm_t = a.h.norm
    if norm_t > r_bound * (1.0 + 1e-12):
        raise InputError(f"||T|| = {norm_t!r} exceeds the declared radius {r_bound!r}")
    diff = d_N(a, b)
    dg = d_G(a, b)
    hyp_graph = dg < 0.5 / (1.0 + r_bound)
    norm_ok = None
    if hyp_graph:
        norm_ok = diff <= 2.0 * (1.0 + r_bound) ** 2 * dg + slack
    hyp_norm = diff < 0.5
    graph_ok = None
    if hyp_norm:
        graph_ok = dg <= 2.0 * diff + slack
    return GraphNormReport(
        r_bound=float(r_bound),
        norm_t=norm_t,
        norm_diff=diff,
        d_g=dg,
        hyp_graph_small=hyp_graph,
        norm_from_graph_ok=norm_ok,
        hyp_norm_small=hyp_norm,
        graph_from_norm_ok=graph_ok,
        slack=slack,
    )


@dataclass(frozen=True)
class MetricReport:
    """One row of the separation table: the four distances between
    D + C_n and D, with residuals against closed forms where they exist."""

    family: str
    n: int
    d_N: float
    d_W: float
    d_R: float
    d_G: float
    res_N: float | None
    res_W: float | None
    res_R: float | None
    res_G: float | None

    def __post_init__(self):
        if self.d_W > self.d_N + 1e-12:
            raise ConsistencyFault(
                f"weighted distance {self.d_W!r} exceeds norm distance {self.d_N!r}"
            )


def metric_separation_report(
    model: DiagonalModel,
    families: Sequence[str] = FAMILIES,
    n_range: Iterable[int] | None = None,
) -> list[MetricReport]:
    """Tabulate all four distances for the requested families and indices.

    Every index must be an int in [1, N - 1]. The swap family starts at
    n = 2 (it permutes e_1 and e_n); smaller indices are skipped for it.
    Residual slots are None where no closed form exists.
    """
    for fam in families:
        if fam not in FAMILIES:
            raise InputError(f"unknown family {fam!r}; choose from {FAMILIES}")
    if n_range is None:
        n_range = range(1, min(33, model.trunc_dim))
    ns = [model._check_index(n) for n in n_range]
    d = _Operand(realize(model))
    rows: list[MetricReport] = []
    for fam in families:
        for n in ns:
            if fam == "swap" and n < 2:
                continue
            t1 = _Operand(d.h + family_perturbation(model, fam, n))
            vals = {
                "d_N": d_N(t1, d),
                "d_W": d_W(t1, d, d),
                "d_R": d_R(t1, d),
                "d_G": d_G(t1, d),
            }
            exact = closed_form_distances(model, fam, n)
            # residual res_X of each distance d_X
            res = {
                f"res_{key[2:]}": (abs(vals[key] - exact[key]) if exact is not None else None)
                for key in vals
            }
            rows.append(MetricReport(family=fam, n=n, **vals, **res))
    return rows
