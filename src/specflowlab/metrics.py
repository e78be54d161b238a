"""Four ways to measure the distance between Hermitian matrices, and the
reports that compare them.

* d_N: plain operator-norm distance of the perturbations
* d_W: norm distance weighted by (I + D^2)^{-1/2} for an explicit base D
* d_R: distance of the Riesz transforms
* d_G: distance of the resolvents at -i (graph distance); every call also
       evaluates the equivalent half-Cayley-distance formula and faults if
       the two routes disagree beyond 1e-9

Every distance is computed on operand records (see _Operand), each a
validated (k, n, n) stack whose images are formed once for the whole stack.
A record is its diagonals or its stack: a record of real diagonal matrices
holds its images as (k, n) diagonals. A distance is one stacked norm per
route (``_image_norms``): two diagonal images take zgesdd's bits from their
diagonals (``matcore._diagonal_op_norms``); a mixed pair builds the
diagonal image's matrices and takes one stacked SVD, as two stacks do. The
public d_X are the one-matrix case. A call that measures many operands
against one reference (the separation report, the graded stability check)
builds the reference's record once; nothing outlives the call. The
resolvent stays LAPACK's inverse, of each matrix or, on a diagonal record,
of each entry as a 1x1 matrix, not an eigenbasis formula, so the two d_G
routes remain two different computations.

The separation report tabulates all four on the diagonal-model families,
next to their exact closed forms, which is where the metrics genuinely
diverge from one another.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConsistencyFault, DimensionMismatchError, InputError, require_real
from .matcore import (
    HermitianMatrix,
    _assemble,
    _chunk_len,
    _chunks,
    _diagonal_matrices,
    _diagonal_op_norms,
    _eigh_stack,
    _hermitian_stack,
    _op_norms,
    _real_diagonals,
    _tally,
    as_hermitian,
)
from .opmodel import FAMILIES, DiagonalModel, _entries, closed_form_distances, realize
from .transforms import (
    _cayley_stack,
    _cayley_values,
    _riesz_stack,
    _riesz_values,
    _unitary_diagonals,
)

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
    """Validated operands of one dimension as a read-only (k, n, n) stack,
    and the images the distances read, each computed on first use for the
    whole stack: the plain operands, the resolvents (H + i)^{-1} by one
    stacked LAPACK inverse, and the Riesz and Cayley images and the weights
    (I + H^2)^{-1/2}.

    A record is its diagonals or its stack. A stack that
    ``_real_diagonals`` takes keeps its diagonals ``d``, and each image is
    a (k, n) stack of diagonals: ``d`` itself, its scalar images
    (``_riesz_values``, ``_cayley_values``, ``_weight_values``), with no
    decomposition, and the resolvents' diagonals, the inverses of the
    entries d + i as 1x1 matrices. Those are the bits of the eigh route and
    of the dense inverse: the eigenvalues are the diagonal and the basis is
    a permutation, so each transform is diagonal with these entries. Any
    other stack's images are (k, n, n) stacks, the transforms assembled from
    one validated stacked eigendecomposition. ``_image_norms`` measures a
    pair of images.

    ``_Operand(mats)`` holds the rows of a stack ``_hermitian_stack``
    returned; ``_Operand.of_matrix(h)`` holds one matrix, kept as ``h``, and
    reads the decomposition it caches. Callers build one per operand or
    chunk and call; none is kept past the call, except a GradedOperator's,
    which holds its odd matrix's."""

    def __init__(self, mats: np.ndarray, h: HermitianMatrix | None = None):
        self.mats = mats
        self.h = h
        self.d = _real_diagonals(mats)
        self.plain = mats if self.d is None else self.d

    @classmethod
    def of_matrix(cls, h) -> _Operand:
        h = as_hermitian(h)
        return cls(h.mat[None], h)

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (k, n) and bases (k, n, n)."""
        if self.h is None:
            return _eigh_stack(self.mats)
        ed = self.h.eig
        return ed.values[None], ed.vectors[None]

    @cached_property
    def resolvent(self) -> np.ndarray:
        """(H + i)^{-1} by LAPACK's inverse of the stack, or of each entry
        d + i of a diagonal record as a 1x1 matrix: the bits of the dense
        inverse's diagonal, which a scalar formula such as 1 / (d + i) misses."""
        _tally("inv.dense" if self.d is None else "inv.entry", len(self.mats))
        if self.d is None:
            return np.linalg.inv(self.mats + 1j * np.eye(self.dim, dtype=np.complex128))
        return np.linalg.inv((self.d + 1j)[..., None, None])[..., 0, 0]

    @cached_property
    def riesz(self) -> np.ndarray:
        return _riesz_stack(*self.eig) if self.d is None else _riesz_values(self.d)

    @cached_property
    def cayley(self) -> np.ndarray:
        if self.d is None:
            return _cayley_stack(*self.eig)
        return _unitary_diagonals(_cayley_values(self.d))

    @cached_property
    def weight(self) -> np.ndarray:
        if self.d is not None:
            return _weight_values(self.d)
        w, v = self.eig
        return _hermitian_stack(_assemble(v, _weight_values(w)[:, None, :]))


def _weight_values(w: np.ndarray) -> np.ndarray:
    """1 / sqrt(1 + x^2) on an array of eigenvalues."""
    with np.errstate(over="ignore"):  # x^2 = inf gives 0, like 1 / math.sqrt(1 + x * x)
        return 1.0 / np.sqrt(1.0 + w * w)


def _image_norms(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> list[float]:
    """The 2-norms of the rows of (x - y) w, or of x - y without ``w``, for
    images that are each a (k, n) stack of diagonals or a (k, n, n) stack;
    an image of one row meets every row of the other. Diagonals alone take
    ``_diagonal_op_norms``. Beside a stack, diagonals are built as their
    matrices (``_diagonal_matrices``) for one stacked SVD: their entries are
    the eigh route's up to the signs of zeros, which change no norm."""
    if x.ndim == y.ndim == 2 and (w is None or w.ndim == 2):
        diff = x - y
        return _diagonal_op_norms(diff if w is None else diff * w).tolist()
    x, y, w = (m if m is None or m.ndim == 3 else _diagonal_matrices(m) for m in (x, y, w))
    return _op_norms(x - y if w is None else (x - y) @ w).tolist()


def _operand(t) -> _Operand:
    return t if isinstance(t, _Operand) else _Operand.of_matrix(t)


def _pair(t1, t2) -> tuple[_Operand, _Operand]:
    a = _operand(t1)
    b = _operand(t2)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return a, b


# Each distance below maps operand stacks a and b (either may hold one
# matrix, which meets every row of the other) to one float per row.


def _norm_distances(a: _Operand, b: _Operand) -> list[float]:
    return _image_norms(a.plain, b.plain)


def _weighted_distances(a: _Operand, b: _Operand, d: _Operand) -> list[float]:
    return _image_norms(a.plain, b.plain, d.weight)


def _riesz_distances(a: _Operand, b: _Operand) -> list[float]:
    return _image_norms(a.riesz, b.riesz)


def _graph_routes(a: _Operand, b: _Operand) -> tuple[list[float], list[float]]:
    """The resolvent route and the half-Cayley route, unchecked."""
    res = _image_norms(a.resolvent, b.resolvent)
    return res, [0.5 * c for c in _image_norms(a.cayley, b.cayley)]


def d_N(t1, t2) -> float:
    """Operator-norm distance ||T1 - T2||."""
    return _norm_distances(*_pair(t1, t2))[0]


def d_W(t1, t2, base) -> float:
    """Weighted distance ||(T1 - T2) (I + D^2)^{-1/2}|| for the base D.

    The base is an explicit argument: the value is only meaningful relative
    to a declared unperturbed operator.
    """
    a, b = _pair(t1, t2)
    d = _operand(base)
    if d.dim != a.dim:
        raise DimensionMismatchError(f"base dim {d.dim} differs from operand dim {a.dim}")
    return _weighted_distances(a, b, d)[0]


def d_R(t1, t2) -> float:
    """Riesz-transform distance ||F(T1) - F(T2)||."""
    return _riesz_distances(*_pair(t1, t2))[0]


@dataclass(frozen=True)
class GraphDistanceDetail:
    """Both routes to the graph distance and their discrepancy."""

    resolvent_route: float
    cayley_route: float

    @property
    def delta(self) -> float:
        return abs(self.resolvent_route - self.cayley_route)


def _graph_detail(res: float, cay: float) -> GraphDistanceDetail:
    """One pair's two graph-distance routes, checked against each other."""
    detail = GraphDistanceDetail(resolvent_route=res, cayley_route=cay)
    if detail.delta > _DG_FAULT:
        raise ConsistencyFault(
            f"graph-distance routes disagree: resolvent {res!r} vs half-Cayley {cay!r}"
        )
    return detail


def d_G_detail(t1, t2) -> GraphDistanceDetail:
    """Graph distance via ||(T1+i)^{-1} - (T2+i)^{-1}|| and via the
    half-distance of Cayley transforms; both values are returned."""
    (res,), (cay,) = _graph_routes(*_pair(t1, t2))
    return _graph_detail(res, cay)


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
    r_bound = require_real(r_bound, "r_bound", "positive and finite")
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


#: the metrics table's columns and JSON keys: the fields of MetricReport
CSV_COLUMNS = tuple(f.name for f in fields(MetricReport))


def metric_separation_report(
    model: DiagonalModel,
    families: Sequence[str] = FAMILIES,
    n_range: Iterable[int] | None = None,
) -> list[MetricReport]:
    """Tabulate all four distances for the requested families and indices.

    Every index must be an int in [1, N - 1]. The swap family starts at
    n = 2 (it permutes e_1 and e_n); smaller indices are skipped for it.
    Residual slots are None where no closed form exists.

    The operands D + C_n are validated, factored and measured as stacks of
    at most ``_chunk_len(N)`` rows of one family, so no diagonal row shares
    a record with swap rows, which take eigh. Rows keep their order, and
    the first row whose graph-distance routes disagree or whose d_W exceeds
    d_N raises, as row by row.
    """
    for fam in families:
        if fam not in FAMILIES:
            raise InputError(f"unknown family {fam!r}; choose from {FAMILIES}")
    if n_range is None:
        n_range = range(1, min(33, model.trunc_dim))
    ns = [model._check_index(n) for n in n_range]
    size = _chunk_len(model.trunc_dim)
    cells = [[(fam, n) for n in ns if not (fam == "swap" and n < 2)] for fam in families]
    d = _Operand.of_matrix(realize(model))
    rows: list[MetricReport] = []
    for chunk in [chunk for of_fam in cells for chunk in _chunks(of_fam, size)]:
        t = _Operand(
            _hermitian_stack(np.array([d.h.mat + _entries(model, fam, n) for fam, n in chunk]))
        )
        dn = _norm_distances(t, d)
        dw = _weighted_distances(t, d, d)
        dr = _riesz_distances(t, d)
        res, cay = _graph_routes(t, d)
        for i, (fam, n) in enumerate(chunk):
            vals = {
                "d_N": dn[i],
                "d_W": dw[i],
                "d_R": dr[i],
                "d_G": _graph_detail(res[i], cay[i]).resolvent_route,
            }
            exact = closed_form_distances(model, fam, n)
            # residual res_X of each distance d_X
            res_x = {
                f"res_{key[2:]}": (abs(vals[key] - exact[key]) if exact is not None else None)
                for key in vals
            }
            rows.append(MetricReport(family=fam, n=n, **vals, **res_x))
    return rows
