"""Behavioral laws that pin the integer assigned to a path of Hermitian
matrices, plus the converse construction.

The four laws: concatenation adds; a certified deformation of a path
(endpoints kept invertible throughout) leaves the integer alone; the
one-crossing normalization pivot scores exactly 1; paths that never touch
zero score 0. Together they force the value to equal the net eigenvalue
transport through zero, whichever of the four computation routes is used.
Each check_* law takes a sequence of functionals and returns one report
per functional; each trial's seeded paths are built (and certified) once
and every functional runs on those same paths.

The converse half: two invertible Hermitian matrices whose nonnegative
eigenspaces have equal dimension are joined by connect_invertibles with
an explicitly certified invertible path, so the label from
component_label is a complete invariant at fixed dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CertificationError, InputError, require_int
from .matcore import (
    HermitianMatrix, _chunk_len, _chunks, _op_norms, _stack_eigvalsh, as_hermitian, op_norm
)
from .paths import OperatorPath, _singular, lipschitz, path_concat
from .specflow import (
    _DEFAULT_OPTS,
    SfOptions,
    certify_invertible,
    sf_crossing_oracle,
    sf_endpoints,
    sf_pairsum,
    sf_phillips,
)
from .generators import (
    concat_compatible_pair,
    homotopy_family,
    invertible_trig_path,
    normalization_path,
    spawn_rngs,
)
from .transforms import unitary_eig

__all__ = [
    "SfFunctional",
    "builtin_functionals",
    "check_concatenation",
    "check_homotopy",
    "check_normalization",
    "check_invertible_vanishing",
    "run_all_checks",
    "component_label",
    "connect_invertibles",
]


@dataclass(frozen=True)
class SfFunctional:
    """A named map from operator paths to integers."""

    name: str
    fn: Callable[[OperatorPath], int]

    def __call__(self, path: OperatorPath) -> int:
        return int(self.fn(path))


def builtin_functionals(opts: SfOptions = _DEFAULT_OPTS) -> tuple[SfFunctional, ...]:
    """The four computation routes, wrapped for the law checkers."""
    return (
        SfFunctional("phillips", lambda p: sf_phillips(p, opts).total),
        SfFunctional("pairsum", lambda p: sf_pairsum(p, opts).total),
        SfFunctional("endpoints", lambda p: sf_endpoints(p, opts)),
        SfFunctional("crossing_oracle", lambda p: sf_crossing_oracle(p, opts)),
    )


def _dim_for(rng: np.random.Generator, lo: int, hi: int) -> int:
    """A dimension drawn uniformly from lo ... hi."""
    return lo + int(rng.integers(0, hi - lo + 1))


def _reports(
    check: str,
    functionals: Sequence[SfFunctional],
    trials: int,
    seed: int,
    failures: list[list[dict]],
    **extra,
) -> list[dict]:
    """One law report per functional, in the order given."""
    return [
        {
            "check": check,
            "method": fun.name,
            "trials": int(trials),
            "failures": fails,
            "ok": not fails,
            "seed": int(seed),
            **extra,
        }
        for fun, fails in zip(functionals, failures)
    ]


def check_concatenation(
    functionals: Sequence[SfFunctional],
    *,
    trials: int = 200,
    seed: int = 0,
) -> list[dict]:
    """mu(f * g) == mu(f) + mu(g) over seeded compatible pairs of
    dimension 2 ... 8."""
    failures: list[list[dict]] = [[] for _ in functionals]
    for k, rng in enumerate(spawn_rngs(seed, trials)):
        dim = _dim_for(rng, 2, 8)
        f, g = concat_compatible_pair(rng, dim)
        joined = path_concat(f, g)
        for fun, fails in zip(functionals, failures):
            mu_f = fun(f)
            mu_g = fun(g)
            mu_fg = fun(joined)
            if mu_fg != mu_f + mu_g:
                fails.append(
                    {"trial": k, "dim": dim, "parts": [mu_f, mu_g], "joined": mu_fg}
                )
    return _reports("concatenation", functionals, trials, seed, failures)


def _certified_s_pairs(row: Callable[[float], OperatorPath], s_grid) -> list[float]:
    """Refine the deformation grid, at most 16 halvings deep, until every
    consecutive pair of rows has both endpoints' spectral gaps exceeding
    the operator-norm step between the rows (so no endpoint can cross zero
    in between).

    A whole level is certified at once: each row's two ends come from one
    ``matrices([0, 1])`` call, and the level's end steps from one stacked
    norm per chunk. The s-list, and the refusal on the leftmost window at
    depth 16, are the depth-first refinement's."""
    certified = []
    level = [(float(a), float(b)) for a, b in zip(s_grid[:-1], s_grid[1:])]
    for depth in range(17):
        rows = {s: row(s) for pair in level for s in pair}
        ends = {s: np.array([m.mat for m in r.matrices([0.0, 1.0])]) for s, r in rows.items()}
        diffs = np.concatenate([ends[s0] - ends[s1] for s0, s1 in level])
        steps = np.concatenate([_op_norms(c) for c in _chunks(diffs, _chunk_len(diffs.shape[1]))])
        failed = []
        for (s0, s1), step in zip(level, steps.reshape(-1, 2)):
            gaps = np.minimum(rows[s0].endpoint_gaps(), rows[s1].endpoint_gaps())
            (certified if np.all(step < gaps) else failed).append((s0, s1))
        if not failed:
            break
        if depth == 16:
            raise CertificationError("deformation rows could not be certified", window=failed[0])
        level = [p for s0, s1 in failed for p in ((s0, 0.5 * (s0 + s1)), (0.5 * (s0 + s1), s1))]
    return [float(s_grid[0])] + sorted(s1 for _, s1 in certified)


def check_homotopy(
    functionals: Sequence[SfFunctional],
    *,
    trials: int = 50,
    seed: int = 0,
) -> list[dict]:
    """The integer is constant across each certified deformation family
    of dimension 2 ... 6.

    Families whose certification fails are counted as inconclusive, never
    as violations; a violation requires a certified family with unequal
    rows.
    """
    failures: list[list[dict]] = [[] for _ in functionals]
    inconclusive = 0
    for k, rng in enumerate(spawn_rngs(seed, trials)):
        dim = _dim_for(rng, 2, 6)
        row, s_grid, label = homotopy_family(rng, dim)
        try:
            s_values = _certified_s_pairs(row, s_grid)
        except CertificationError:
            inconclusive += 1
            continue
        for fun, fails in zip(functionals, failures):
            rows = [fun(row(s)) for s in s_values]
            if len(set(rows)) != 1:
                fails.append({"trial": k, "dim": dim, "label": label, "rows": rows})
    return _reports(
        "homotopy", functionals, trials, seed, failures, inconclusive=inconclusive
    )


def check_normalization(
    functionals: Sequence[SfFunctional],
    *,
    trials: int = 50,
    seed: int = 0,
) -> list[dict]:
    """The single-crossing pivot path of dimension 1 ... 8 scores
    exactly 1."""
    failures: list[list[dict]] = [[] for _ in functionals]
    for k, rng in enumerate(spawn_rngs(seed, trials)):
        dim = _dim_for(rng, 1, 8)
        path = normalization_path(rng, dim)
        for fun, fails in zip(functionals, failures):
            mu = fun(path)
            if mu != 1:
                fails.append({"trial": k, "dim": dim, "value": mu})
    return _reports("normalization", functionals, trials, seed, failures)


def check_invertible_vanishing(
    functionals: Sequence[SfFunctional],
    *,
    trials: int = 200,
    seed: int = 0,
    opts: SfOptions = _DEFAULT_OPTS,
) -> list[dict]:
    """Certified-invertible paths of dimension 2 ... 8 score exactly 0."""
    failures: list[list[dict]] = [[] for _ in functionals]
    inconclusive = 0
    for k, rng in enumerate(spawn_rngs(seed, trials)):
        dim = _dim_for(rng, 2, 8)
        path = invertible_trig_path(rng, dim)
        if not certify_invertible(path, opts)["certified"]:
            inconclusive += 1
            continue
        for fun, fails in zip(functionals, failures):
            mu = fun(path)
            if mu != 0:
                fails.append({"trial": k, "dim": dim, "value": mu})
    return _reports(
        "invertible_vanishing", functionals, trials, seed, failures,
        inconclusive=inconclusive,
    )


def run_all_checks(
    *, seed: int = 0, trials: int = 200, opts: SfOptions = _DEFAULT_OPTS
) -> list[dict]:
    """Every law against every computation route; returns all reports,
    grouped by route (the four laws of the first route, then the next).

    The trials split 4:1:1:4: ``trials`` concatenation pairs and invertible
    paths, and a quarter of them (at least one, unless ``trials`` is 0)
    deformation families and normalization paths. ``trials`` must be a
    nonnegative int. The laws draw from the seeds seed ... seed + 3.
    """
    require_int(trials, "trials", 0)
    quarter = min(trials, max(1, trials // 4))
    funs = builtin_functionals(opts)
    by_law = (
        check_concatenation(funs, trials=trials, seed=seed),
        check_homotopy(funs, trials=quarter, seed=seed + 1),
        check_normalization(funs, trials=quarter, seed=seed + 2),
        check_invertible_vanishing(funs, trials=trials, seed=seed + 3, opts=opts),
    )
    return [rep for per_route in zip(*by_law) for rep in per_route]


def component_label(t: HermitianMatrix) -> int:
    """Dimension of the nonnegative eigenspace of an invertible Hermitian
    matrix -- the complete connectedness invariant at fixed dimension --
    where invertible is the end check's rule (``paths._singular``) on
    the eigenvalues a path end gets."""
    t = as_hermitian(t)
    vals = _stack_eigvalsh(t.mat[None])
    tail = _singular(t.dim, vals)[1]
    if tail is not None:
        raise InputError(f"matrix must be invertible (gap > 1e-08) to carry a label{tail}")
    return int(np.count_nonzero(vals >= 0))


def connect_invertibles(
    t1: HermitianMatrix, t2: HermitianMatrix
) -> OperatorPath:
    """An invertible path from t1 to t2, which exists exactly when their
    component labels agree.

    Three legs: flatten t1 to its reflection 2P1 - I along the commuting
    straight line (eigenvalues move monotonically to +/-1, never through
    zero); rotate that reflection onto 2P2 - I by a unitary that carries
    the positive eigenbasis of t1 onto that of t2 (conjugation preserves
    spectrum {+1, -1}); unflatten to t2. Certification is up to the
    caller via certify_invertible.

    Each leg runs in a third of [0, 1], so its rate is three times the
    speed of its own parameter: ||S1 - T1|| and ||T2 - S2|| on the straight
    legs, and ||[A, S1]|| on the rotation exp(i u A) S1 exp(-i u A), with
    A = F diag(theta) F* the generator of the rotation.
    """
    t1 = as_hermitian(t1)
    t2 = as_hermitian(t2)
    if t1.dim != t2.dim:
        raise InputError("endpoints must share a dimension")
    label1 = component_label(t1)
    label2 = component_label(t2)
    if label1 != label2:
        raise InputError(
            f"component labels differ ({label1} vs {label2}); no invertible "
            "path can join the endpoints"
        )
    dim = t1.dim
    ed1 = t1.eig
    ed2 = t2.eig
    pos1 = ed1.values >= 0
    pos2 = ed2.values >= 0
    basis1 = np.concatenate(
        [ed1.vectors[:, pos1], ed1.vectors[:, ~pos1]], axis=1
    )
    basis2 = np.concatenate(
        [ed2.vectors[:, pos2], ed2.vectors[:, ~pos2]], axis=1
    )
    rotation = basis2 @ basis1.conj().T
    eigvals, frame = unitary_eig(rotation)
    angles = np.angle(eigvals)
    s1 = ed1.assemble(np.where(pos1, 1.0, -1.0))
    s2 = ed2.assemble(np.where(pos2, 1.0, -1.0))

    diag = np.arange(dim)

    def rotate(us: np.ndarray) -> np.ndarray:
        phases = np.zeros((us.size, dim, dim), dtype=np.complex128)
        phases[:, diag, diag] = np.exp(1j * us[:, None] * angles)
        part = frame @ phases @ frame.conj().T
        return part @ s1 @ part.conj().swapaxes(1, 2)

    def evaluate(ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, dim, dim), dtype=np.complex128)
        flatten = ts <= 1.0 / 3.0
        turn = ~flatten & (ts <= 2.0 / 3.0)
        unflatten = ~flatten & ~turn
        u = (3.0 * ts[flatten])[:, None, None]
        out[flatten] = (1.0 - u) * t1.mat + u * s1
        out[turn] = rotate(3.0 * ts[turn] - 1.0)
        u = (3.0 * ts[unflatten] - 2.0)[:, None, None]
        out[unflatten] = (1.0 - u) * s2 + u * t2.mat
        return out

    generator = (frame * angles) @ frame.conj().T
    rates = [
        3.0 * op_norm(s1 - t1.mat),
        3.0 * op_norm(generator @ s1 - s1 @ generator),
        3.0 * op_norm(t2.mat - s2),
    ]
    return OperatorPath(evaluate, dim, regularity=lipschitz((1.0 / 3.0, 2.0 / 3.0), rates))
