"""Seeded random matrices and the named operator-path families.

All randomness flows through numpy Generators derived from explicit seeds
(spawn_rngs gives independent per-trial streams), so identical seeds give
identical objects, whichever process builds them and in whatever order
other seeds are used.

The random Hermitian matrices and the spectral clamp are written once, for
stacks (``_random_hermitian_chunks``, ``_clamped``); ``random_hermitian``
and ``clamp_spectrum_away_from_zero`` are their one-matrix case, and each
matrix of a stack gets the bits, and leaves the generator in the state, the
one-matrix calls in a row would.

Named families (the "family" kind of the path file format):

* linear_interp:  straight line between two given Hermitian matrices
* fuglede_line:   D + t * C_n for the sign-flip perturbation of a diagonal
                  model; carries exactly one certified zero crossing
* toeplitz_line:  (1-s) D + s W D W* for the half-integer diagonal and a
                  cyclic shift (optionally a power of it)
* trig_random:    seeded trigonometric-polynomial path built from a
                  unitary-conjugated diagonal skeleton plus a small
                  Hermitian coupling; endpoints are tilted onto their
                  spectrally clamped versions so they are invertible with
                  gap >= 0.2 by construction
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

from .errors import InputError, coerce_field, require_int, require_real
from .matcore import (
    HermitianMatrix,
    _assemble,
    _chunk_len,
    _chunks,
    _eigh_stack,
    _has_neg_zero,
    _hermitian_stack,
    _op_norms,
    as_hermitian,
    op_norm,
)
from .opmodel import DiagonalModel, family_perturbation, realize
from .paths import OperatorPath, lipschitz, piecewise_affine
from .transforms import UnitaryMatrix, _as_unitary

__all__ = [
    "spawn_rngs",
    "random_hermitian",
    "random_unitary",
    "clamp_spectrum_away_from_zero",
    "cyclic_shift",
    "half_integer_diagonal",
    "unitary_rotation_path",
    "line_path",
    "conjugation_path",
    "family_path",
    "FAMILY_NAMES",
    "trig_path",
    "invertible_trig_path",
    "normalization_path",
    "concat_compatible_pair",
    "homotopy_family",
]

#: endpoint spectral gap enforced by the random path generators
ENDPOINT_CLAMP_GAP = 0.2


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators for ``count`` trials of one seeded run."""
    require_int(count, "count", 0)
    children = np.random.SeedSequence(require_int(seed, "seed", 0)).spawn(count)
    return [np.random.default_rng(c) for c in children]


def _as_rng(seed_or_rng) -> np.random.Generator:
    """The Generator itself, or a fresh one seeded with the given seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(require_int(seed_or_rng, "seed", 0))


def _random_hermitian_chunks(rng: np.random.Generator, dim: int, scales: np.ndarray):
    """Validated random Hermitian matrices, scales[j] * (G + G*) / (2 sqrt(dim))
    for the j-th, as read-only (c, dim, dim) stacks of ``_chunk_len(dim)``
    matrices at most, in order.

    G = X + iY takes its real and then its imaginary part from the
    generator, matrix after matrix. One standard_normal call per chunk
    fills a (c, 2, dim, dim) array in that order, so the draws, the
    generator state after them and each matrix's entries (elementwise
    arithmetic, then the stacked Hermitian check) are those of c
    one-matrix calls in a row.
    """
    step = _chunk_len(max(dim, 1))
    for lo in range(0, len(scales), step):
        s = scales[lo : lo + step, None, None]
        xy = rng.standard_normal((len(s), 2, dim, dim))
        g = xy[:, 0] + 1j * xy[:, 1]
        yield _hermitian_stack(s * (g + g.conj().swapaxes(1, 2)) / (2.0 * math.sqrt(dim)))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianMatrix:
    """A random Hermitian matrix scale * (G + G*) / (2 sqrt(dim)) for a
    complex Gaussian G: the one-matrix case of ``_random_hermitian_chunks``.
    A ``scale`` that is not a real number is refused before any draw."""
    scale = require_real(scale, "scale")
    (h,) = _random_hermitian_chunks(rng, dim, np.array([scale], dtype=np.float64))
    return HermitianMatrix._of_valid(h[0])


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def _clamped(w: np.ndarray, v: np.ndarray, gap: float) -> np.ndarray:
    """The clamp of each matrix of a stack, from its validated
    eigendecomposition (values (k, n), bases (k, n, n)): every eigenvalue
    below ``gap`` in magnitude becomes gap with its sign (0 goes up), and
    V diag(w') V* is assembled and checked; the read-only (k, n, n) stack."""
    w = np.where(np.abs(w) >= gap, w, np.where(w >= 0.0, gap, -gap))
    return _hermitian_stack(_assemble(v, w[:, None, :]))


def clamp_spectrum_away_from_zero(h: HermitianMatrix, gap: float) -> HermitianMatrix:
    """Push every eigenvalue to at least ``gap`` in magnitude, keeping signs
    (eigenvalue 0 is pushed up): the one-matrix case of ``_clamped``, the
    clamp the path generators apply to their ends, on the matrix's cached
    eigendecomposition."""
    require_real(gap, "gap", "positive and finite")
    ed = as_hermitian(h).eig
    return HermitianMatrix._of_valid(_clamped(ed.values[None], ed.vectors[None], gap)[0])


def cyclic_shift(dim: int, power: int = 1) -> UnitaryMatrix:
    """The unitary sending e_k to e_{k+power mod dim}, for any int power."""
    require_int(dim, "dim", 1)
    require_int(power, "power")
    w = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        w[(k + power) % dim, k] = 1.0
    return UnitaryMatrix(w)


def half_integer_diagonal(m: int) -> HermitianMatrix:
    """diag(k + 1/2) for k = -m..m (dimension 2m + 1, no kernel)."""
    require_int(m, "m", 1)
    return HermitianMatrix.diag([k + 0.5 for k in range(-m, m + 1)])


def _rotation(rng: np.random.Generator, dim: int, scale: float):
    """(K, u_of) for the unitary path U(t) = exp(i t K) of a random
    Hermitian K; see unitary_rotation_path."""
    k = random_hermitian(rng, dim, scale)
    ed = k.eig

    def u_of(ts) -> np.ndarray:
        phases = np.exp(1j * np.asarray(ts, dtype=np.float64)[..., None] * ed.values)
        return ed.assemble(phases[..., None, :])

    return k, u_of


def unitary_rotation_path(rng: np.random.Generator, dim: int, scale: float = 1.0):
    """A smooth unitary path U(t) = exp(i t K) for a random Hermitian K.

    ``u_of(ts)`` maps an array of k parameters to the (k, dim, dim) stack of
    unitaries, and a single t to one matrix.
    """
    return _rotation(rng, dim, scale)[1]


def _add_combination(out: np.ndarray, terms) -> np.ndarray:
    """Add sum_j c_j[i] * M_j to each matrix out[i] of a complex stack, in
    place, as elementwise float64 multiply-adds on the real view.

    ``terms`` pairs a coefficient array c_j of shape (k,) with a complex
    (n, n) matrix M_j. Each entry of out[i] gets the same rounded
    operations in the same order whatever k is, so a stacked call and a
    one-point call give the same bits; real combinations of exactly
    Hermitian matrices are exactly Hermitian.
    """
    flat = out.view(np.float64)
    tmp = np.empty_like(flat)
    for c, mat in terms:
        np.multiply(c[:, None, None], mat.view(np.float64), out=tmp)
        flat += tmp
    return out


def _scaled(c: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """c[i] * M for each i, as a fresh complex (k, n, n) stack multiplied
    on the real view; ``_add_combination`` adds further terms to it."""
    out = np.empty((len(c),) + mat.shape, dtype=np.complex128)
    np.multiply(c[:, None, None], mat.view(np.float64), out=out.view(np.float64))
    return out


def _or_formula(out: np.ndarray, formula: Callable[[], np.ndarray]) -> np.ndarray:
    """``out``, a sum of terms c * M (real c, complex M) evaluated on the real
    view, or ``formula()``, the same sum in numpy's complex arithmetic, when
    ``out`` holds a -0.0.

    numpy multiplies c by M = x + iy as (c + 0i)(x + iy), with the parts
    c*x - 0*y and c*y + 0*x: they equal the real view's c*x and c*y except
    where the latter is -0.0, where they are a zero of either sign. A sum
    of such terms keeps that property, so a result with no -0.0 has the
    formula's bits. ``line_path`` evaluates this way: its Toeplitz lines
    would spend about half again as long in numpy's complex arithmetic."""
    return formula() if _has_neg_zero(out) else out


def _tilted_path(
    raw: Callable[[np.ndarray], np.ndarray],
    rate: float,
    dim: int,
    gap: float,
    *,
    fix_left: bool = True,
) -> OperatorPath:
    """The path ``raw``, Lipschitz with ``rate``, plus an affine-in-t
    Hermitian tilt (1 - t) delta0 + t delta1 so both endpoints become their
    spectrally clamped versions (invertible with the given gap). The tilt
    adds its rate ||delta1 - delta0|| to ``rate``.

    The ends are evaluated and checked as one stack, and clamped as stacks
    of ``_chunk_len(dim)`` (both at once up to dim 90): one validated
    ``eigh`` per stack, then ``_clamped``, the formula
    ``clamp_spectrum_away_from_zero`` applies to one matrix, so each delta
    has the bits the one-matrix clamp gives.

    ``raw`` must return a fresh, exactly Hermitian complex stack: the tilt
    is added to it in place by ``_add_combination``, and the deltas are
    differences of validated matrices, so the sum stays exactly Hermitian.
    Without ``fix_left``, delta0 is zero and not added, and only the right
    end is clamped.
    """
    ends = _hermitian_stack(raw(np.array([0.0, 1.0])))
    require_real(gap, "gap", "positive and finite")
    if not fix_left:
        ends = ends[1:]
    clamped = [_clamped(*_eigh_stack(c), gap) for c in _chunks(ends, _chunk_len(dim))]
    deltas = np.concatenate(clamped) - ends
    delta0 = deltas[0] if fix_left else np.zeros((dim, dim))
    delta1 = deltas[-1]

    def evaluate(ts: np.ndarray) -> np.ndarray:
        terms = [(1.0 - ts, delta0)] if fix_left else []
        return _add_combination(raw(ts), terms + [(ts, delta1)])

    tilt = op_norm(delta1 - delta0)
    return OperatorPath(evaluate, dim, regularity=lipschitz((), [rate + tilt]))


def _trig_evaluator(
    rng: np.random.Generator, dim: int, degree: int, scale: float
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Unitary-conjugated diagonal trig skeleton plus Hermitian trig
    coupling, and a Lipschitz rate of it from the coefficients.

    H(t) = U* (diag(d(t)) + C(t)) U with d and C trig polynomials of the
    given degree. The coefficient matrices M_j = herm(U* (diag(d_j) + C_j) U)
    (herm the Hermitian average, j = 0 ... 2 degree) are formed once, here,
    so H(t) = M_0 + sum_m cos(pi m t) M_{2m-1} + sin(pi m t) M_{2m} is a
    real combination of exactly Hermitian matrices: O(degree n^2) float
    operations per point instead of two n^3 products, and an exactly
    Hermitian result.

    Degree m contributes pi m (-sin a + cos b) to the derivative of each
    coefficient pair (a, b): at most pi m max_i hypot(a_i, b_i) on the
    diagonal and pi m hypot(||A||, ||B||) for the coupling; the unitary
    conjugation keeps norms. The rate comes from d_j and C_j themselves.

    The blocks are built as stacks, a chunk of ``_chunk_len(dim)`` at a
    time: one draw of the 2 degree + 1 diagonals, then per chunk one draw
    and one Hermitian check of the couplings (``_random_hermitian_chunks``),
    one stacked SVD of their norms and the products U* X U on the stack.
    The draws come in the order of one block at a time, and every step
    treats each matrix as it would alone, so the generator state, the
    rate and each M_j are those of a one-block-at-a-time build.

    Evaluation error: the products behind each M_j round each entry once
    per term of an n-term sum, as the per-point products did; the
    combination then rounds each entry once per term of its 2 degree + 1
    terms. So a sample is as close to the exact trig polynomial as the
    per-point products made it, and the gamma_n = 4 n u slack of the
    certifying methods covers its evaluation error as it did before.
    """
    u = random_unitary(rng, dim).mat
    u_h = u.conj().T
    k = 2 * degree + 1
    weights = (1 + np.arange(k)) ** 2
    # one draw of the k diagonals reproduces k draws of dim values in a row
    diag_coefs = rng.standard_normal((k, dim)) * scale / weights[:, None]
    diag = np.arange(dim)
    coefs = np.empty((k, dim, dim), dtype=np.complex128)
    coup_norms = np.empty(k)
    lo = 0
    for coup in _random_hermitian_chunks(rng, dim, 0.3 * scale / weights):
        hi = lo + len(coup)
        coup_norms[lo:hi] = _op_norms(coup)
        mats = coefs[lo:hi]
        mats[...] = coup
        mats[:, diag, diag] += diag_coefs[lo:hi]
        # herm(U* X U) per matrix, written into the stack's own slots
        mats[...] = u_h @ mats @ u
        np.add(mats, mats.conj().swapaxes(1, 2), out=mats)
        mats *= 0.5
        lo = hi

    def raw(ts: np.ndarray) -> np.ndarray:
        tl = ts.tolist()
        terms = []
        for m in range(1, degree + 1):
            # math.cos/math.sin per t: numpy's vector routines may differ
            # from them in the last bit on some CPUs
            terms.append((np.array([math.cos(math.pi * m * t) for t in tl]), coefs[2 * m - 1]))
            terms.append((np.array([math.sin(math.pi * m * t) for t in tl]), coefs[2 * m]))
        out = np.empty((len(tl), dim, dim), dtype=np.complex128)
        out[...] = coefs[0]
        return _add_combination(out, terms)

    rate = 0.0
    for m in range(1, degree + 1):
        diag_rate = float(np.max(np.hypot(diag_coefs[2 * m - 1], diag_coefs[2 * m])))
        coup_rate = math.hypot(coup_norms[2 * m - 1], coup_norms[2 * m])
        rate += math.pi * m * (diag_rate + coup_rate)
    return raw, rate


def trig_path(
    seed_or_rng,
    dim: int,
    *,
    degree: int = 3,
    scale: float = 1.0,
    gap: float = ENDPOINT_CLAMP_GAP,
) -> OperatorPath:
    """Seeded random trig-polynomial path with invertible endpoints."""
    rng = _as_rng(seed_or_rng)
    require_int(dim, "dim", 1)
    require_int(degree, "degree", 1)
    scale = require_real(scale, "scale", "finite")
    raw, rate = _trig_evaluator(rng, dim, degree, scale)
    return _tilted_path(raw, rate, dim, gap)


def invertible_trig_path(seed_or_rng, dim: int) -> OperatorPath:
    """A path certified-by-construction to stay invertible for all t.

    U(t)* D0 U(t) + c(t) I with D0 spectrally clamped to |spec| >= 0.5 and
    a scalar trig drift |c(t)| <= 0.25, so min |spec| >= 0.25 throughout.
    With U(t) = exp(i t K) the conjugated part moves at the constant rate
    ||[D0, K]|| and the drift at most at 2 pi amp.
    """
    rng = _as_rng(seed_or_rng)
    d0 = clamp_spectrum_away_from_zero(random_hermitian(rng, dim), 0.5)
    k, u_of = _rotation(rng, dim, 1.0)
    amp = rng.uniform(0.1, 0.5) * 0.25
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def evaluate(ts: np.ndarray) -> np.ndarray:
        u = u_of(ts)
        drift = np.array([amp * math.sin(2.0 * math.pi * t + phase) for t in ts.tolist()])
        return u.conj().swapaxes(1, 2) @ d0.mat @ u + drift[:, None, None] * np.eye(dim)

    rate = op_norm(d0.mat @ k.mat - k.mat @ d0.mat) + 2.0 * math.pi * amp
    return OperatorPath(evaluate, dim, regularity=lipschitz((), [rate]))


def normalization_path(seed_or_rng, dim: int) -> OperatorPath:
    """The calibration path t -> (t - 1/2) P + (I - P) T0 (I - P).

    P is a random rank-one projection and T0 is invertible on the
    complement (spectrum clamped to |spec| >= 0.3), so exactly one
    eigenvalue crosses zero, upward: the flow is 1 by construction.
    """
    rng = _as_rng(seed_or_rng)
    require_int(dim, "dim", 1)
    u = random_unitary(rng, dim).mat
    p_vec = u[:, :1]
    p = p_vec @ p_vec.conj().T
    rest = np.zeros((dim, dim), dtype=np.complex128)
    if dim > 1:
        basis = u[:, 1:]
        block = random_hermitian(rng, dim - 1, 1.0)
        block = clamp_spectrum_away_from_zero(block, 0.3)
        rest = basis @ block.mat @ basis.conj().T

    def evaluate(ts: np.ndarray) -> np.ndarray:
        return (ts - 0.5)[:, None, None] * p + rest

    return OperatorPath(evaluate, dim, regularity=piecewise_affine((), [op_norm(p)]))


def concat_compatible_pair(seed_or_rng, dim: int) -> tuple[OperatorPath, OperatorPath]:
    """Two random degree-3 trig paths with g(0) = f(1) exactly, both with
    certified invertible endpoints, ready for a concatenation check."""
    rng = _as_rng(seed_or_rng)
    f = trig_path(rng, dim)
    g_raw, rate = _trig_evaluator(rng, dim, 3, 1.0)
    join = f.matrix(1.0).mat
    (g_start,) = g_raw(np.array([0.0]))

    def shifted(ts: np.ndarray) -> np.ndarray:
        out = g_raw(ts)
        out -= g_start
        out += join
        return out

    # the constant shift leaves the rate of g_raw as it is
    g = _tilted_path(shifted, rate, dim, ENDPOINT_CLAMP_GAP, fix_left=False)
    return f, g


def homotopy_family(seed_or_rng, dim: int):
    """A two-parameter family H(s, t) whose rows are honestly homotopic.

    The generator draws the style after f: an additive drift
    H(s, t) = f(t) + s e I with e below half the endpoint gaps, or a
    conjugation by a smooth unitary rotation, H(s, t) = U(s)* f(t) U(s).
    Returns (row, s_grid, label): ``row(s)`` is row s as an OperatorPath,
    the same object at each call with the same s, and ``s_grid`` is 7
    equally spaced s in [0, 1]. Neither a constant shift nor a fixed
    unitary conjugation changes how fast a row moves in t, so every row
    declares f's Lipschitz regularity. The conjugation's two products add
    a rounding of order n u ||f|| per point, inside the gamma_n slack that
    every declared margin gives up. The rows read f's validated rows from
    one store per family, so each point of f is evaluated once, however
    many rows ask for it; each row keeps its own Hermitian check.
    """
    rng = _as_rng(seed_or_rng)
    f = trig_path(rng, dim)
    s_grid = np.linspace(0.0, 1.0, 7)
    style = int(rng.integers(0, 2))
    if style == 0:
        g0, g1 = f.endpoint_gaps()
        eps = 0.4 * min(g0, g1)
    else:
        u_of = unitary_rotation_path(rng, dim, 0.8)
    held: dict[float, np.ndarray] = {}

    def base(ts: np.ndarray) -> np.ndarray:
        new = [t for t in dict.fromkeys(ts.tolist()) if t not in held]
        if new:
            held.update(zip(new, f.stack(np.array(new))))
        return np.array([held[t] for t in ts.tolist()])

    @cache
    def row(s: float) -> OperatorPath:
        # the row's shift s e I, or its U(s) and U(s)*, built once
        if style == 0:
            shift = s * eps * np.eye(dim)
            return OperatorPath(lambda ts: base(ts) + shift, dim, regularity=f.regularity)
        u = u_of(s)
        u_h = u.conj().T
        return OperatorPath(lambda ts: u_h @ base(ts) @ u, dim, regularity=f.regularity)

    return row, s_grid, ("additive_drift", "unitary_conjugation")[style]


def line_path(a: HermitianMatrix, b: HermitianMatrix) -> OperatorPath:
    """The straight line t -> (1 - t) A + t B, affine with rate ||B - A||."""
    if a.dim != b.dim:
        raise InputError(f"line endpoints must share a dimension, got {a.dim} and {b.dim}")

    def evaluate(ts: np.ndarray) -> np.ndarray:
        return _or_formula(
            _add_combination(_scaled(1.0 - ts, a.mat), [(ts, b.mat)]),
            lambda: (1.0 - ts)[:, None, None] * a.mat + ts[:, None, None] * b.mat,
        )

    return OperatorPath(evaluate, a.dim, regularity=piecewise_affine((), [op_norm(b.mat - a.mat)]))


def conjugation_path(d: HermitianMatrix, w) -> OperatorPath:
    """The line s -> (1 - s) D + s W D W*, affine with rate ||W D W* - D||."""
    d = as_hermitian(d)
    w = _as_unitary(w)
    if w.dim != d.dim:
        raise InputError(f"dims differ: D {d.dim}, W {w.dim}")
    conj = HermitianMatrix(w.mat @ d.mat @ w.mat.conj().T)
    return line_path(d, conj)


def _family_linear_interp(params: dict, seed, dim) -> OperatorPath:
    try:
        a = as_hermitian(params["a"])
        b = as_hermitian(params["b"])
    except KeyError as exc:
        raise InputError("linear_interp params need matrices 'a' and 'b'") from exc
    return line_path(a, b)


def _family_fuglede_line(params: dict, seed, dim) -> OperatorPath:
    n = params.get("n")
    model = DiagonalModel(
        coerce_field(params.get("N", 8), int, "N"), params.get("law", "linear")
    )
    if n is None:
        raise InputError("fuglede_line params need the index 'n'")
    n = coerce_field(n, int, "n")
    d = realize(model)
    c = family_perturbation(model, "fuglede", n)

    def evaluate(ts: np.ndarray) -> np.ndarray:
        return d.mat + ts[:, None, None] * c.mat

    return OperatorPath(
        evaluate, model.trunc_dim, regularity=piecewise_affine((), [op_norm(c.mat)])
    )


def _family_toeplitz_line(params: dict, seed, dim) -> OperatorPath:
    m = coerce_field(params.get("m", 1), int, "m")
    power = coerce_field(params.get("power", 1), int, "power")
    d = half_integer_diagonal(m)
    return conjugation_path(d, cyclic_shift(d.dim, power))


def _family_trig_random(params: dict, seed, dim) -> OperatorPath:
    if dim is None:
        dim = params.get("dim")
    if dim is None:
        raise InputError("trig_random needs a dimension")
    if seed is None:
        raise InputError("trig_random needs a seed")
    seed = coerce_field(seed, int, "seed")
    return trig_path(
        seed,
        coerce_field(dim, int, "dim"),
        degree=coerce_field(params.get("degree", 3), int, "degree"),
        scale=coerce_field(params.get("scale", 1.0), float, "scale"),
        gap=coerce_field(params.get("gap", ENDPOINT_CLAMP_GAP), float, "gap"),
    )


_FAMILY_BUILDERS = {
    "linear_interp": _family_linear_interp,
    "fuglede_line": _family_fuglede_line,
    "toeplitz_line": _family_toeplitz_line,
    "trig_random": _family_trig_random,
}

FAMILY_NAMES = tuple(sorted(_FAMILY_BUILDERS))


def family_path(
    name: str, params: dict | None = None, *, seed: int | None = None, dim: int | None = None
) -> OperatorPath:
    """Build one of the named closed-form families."""
    if not isinstance(name, str) or name not in _FAMILY_BUILDERS:
        raise InputError(f"unknown path family {name!r}; choose from {FAMILY_NAMES}")
    return _FAMILY_BUILDERS[name](dict(params or {}), seed, dim)
