"""Determinism and contract checks for the seeded generators."""

import hashlib
import math

import numpy as np
import pytest

from specflowlab import generators
from specflowlab import (
    ENDPOINT_CLAMP_GAP,
    HermitianMatrix,
    InputError,
    OperatorPath,
    clamp_spectrum_away_from_zero,
    concat_compatible_pair,
    cyclic_shift,
    family_path,
    half_integer_diagonal,
    homotopy_family,
    invertible_trig_path,
    normalization_path,
    random_hermitian,
    random_unitary,
    sf_endpoints,
    spawn_rngs,
    trig_path,
    unitary_rotation_path,
)
from specflowlab.matcore import _hermitian_stack, apply_function, op_norm
from specflowlab.opmodel import DiagonalModel, family_perturbation, realize
from specflowlab.specflow import lipschitz
from conftest import random_spd
from test_regularity import _assert_bounds_hold

UNITARY_TOL = 1e-12
PROBE_TS = (0.0, 0.17, 0.5, 0.83, 1.0)


def test_trig_path_seed_determinism():
    a = trig_path(42, 5)
    b = trig_path(42, 5)
    for t in PROBE_TS:
        np.testing.assert_array_equal(a.matrix(t).mat, b.matrix(t).mat)
    c = trig_path(43, 5)
    assert not np.array_equal(a.matrix(0.5).mat, c.matrix(0.5).mat)


def _per_point_trig(seed, dim, degree, scale, ts):
    """The trig skeleton evaluated point by point as U* (diag(d(t)) + C(t)) U,
    from the same draws as the generator, and its coefficient rate."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim).mat
    d = [rng.standard_normal(dim) * scale / (1 + j) ** 2 for j in range(2 * degree + 1)]
    c = [random_hermitian(rng, dim, 0.3 * scale / (1 + j) ** 2).mat for j in range(2 * degree + 1)]
    mats = []
    for t in ts:
        x = np.diag(d[0]) + c[0]
        for m in range(1, degree + 1):
            cos, sin = np.cos(np.pi * m * t), np.sin(np.pi * m * t)
            x = x + cos * (np.diag(d[2 * m - 1]) + c[2 * m - 1])
            x = x + sin * (np.diag(d[2 * m]) + c[2 * m])
        mats.append(u.conj().T @ x @ u)
    rate = 0.0
    for m in range(1, degree + 1):
        coup = np.hypot(np.linalg.norm(c[2 * m - 1], 2), np.linalg.norm(c[2 * m], 2))
        rate += np.pi * m * (np.max(np.hypot(d[2 * m - 1], d[2 * m])) + coup)
    return np.array(mats), rate


@pytest.mark.parametrize("dim, degree, scale", [(1, 3, 1.0), (6, 3, 1.0), (24, 8, 4.0)])
def test_trig_coefficients_reproduce_the_per_point_products(dim, degree, scale):
    """The precomputed coefficient matrices give the trig polynomial the
    products give, to rounding (16 n u relative), with the same rate."""
    ts = np.linspace(0.0, 1.0, 9)
    raw, rate = generators._trig_evaluator(np.random.default_rng(11), dim, degree, scale)
    want, want_rate = _per_point_trig(11, dim, degree, scale, ts)
    got = raw(ts)
    tol = 16 * dim * np.finfo(np.float64).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= tol
    assert rate == pytest.approx(want_rate, rel=1e-14)


def _blockwise_evaluator(rng, dim, degree, scale):
    """``_trig_evaluator`` one block at a time: per block, its own draws, a
    validated random Hermitian coupling, its 2-norm, U* X U and the
    Hermitian average."""
    u = random_unitary(rng, dim).mat
    u_h = u.conj().T
    d = [rng.standard_normal(dim) * scale / (1 + j) ** 2 for j in range(2 * degree + 1)]
    coefs, norms = [], []
    for j, lam in enumerate(d):
        s = 0.3 * scale / (1 + j) ** 2
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        coup = HermitianMatrix(s * (g + g.conj().T) / (2.0 * math.sqrt(dim))).mat
        norms.append(op_norm(coup))
        x = coup.copy()
        x[np.arange(dim), np.arange(dim)] += lam
        x = u_h @ x @ u
        coefs.append((x + x.conj().T) * 0.5)

    def raw(ts):
        out = np.empty((len(ts), dim, dim), dtype=np.complex128)
        out[...] = coefs[0]
        terms = []
        for m in range(1, degree + 1):
            terms.append((np.array([math.cos(math.pi * m * t) for t in ts.tolist()]), coefs[2 * m - 1]))
            terms.append((np.array([math.sin(math.pi * m * t) for t in ts.tolist()]), coefs[2 * m]))
        return generators._add_combination(out, terms)

    rate = 0.0
    for m in range(1, degree + 1):
        diag_rate = float(np.max(np.hypot(d[2 * m - 1], d[2 * m])))
        rate += math.pi * m * (diag_rate + math.hypot(norms[2 * m - 1], norms[2 * m]))
    return raw, rate


def _blockwise_tilted(raw, rate, dim, fix_left=True, gap=ENDPOINT_CLAMP_GAP):
    """``_tilted_path`` with one ``apply_function`` clamp per end."""
    left, right = map(HermitianMatrix._of_valid, _hermitian_stack(raw(np.array([0.0, 1.0]))))

    def clamp(h):
        return apply_function(h, lambda x: x if abs(x) >= gap else (gap if x >= 0.0 else -gap)).mat

    delta0 = clamp(left) - left.mat if fix_left else np.zeros((dim, dim))
    delta1 = clamp(right) - right.mat

    def evaluate(ts):
        terms = [(1.0 - ts, delta0)] if fix_left else []
        return generators._add_combination(raw(ts), terms + [(ts, delta1)])

    return OperatorPath(evaluate, dim, regularity=lipschitz((), [rate + op_norm(delta1 - delta0)]))


def _same_build(got, want, got_rng, want_rng):
    """Same regularity, same bytes on the 257-point grid (hashed one path at
    a time, so a dim-128 grid is held once), same generator state."""
    ts = np.linspace(0.0, 1.0, 257)
    assert got.regularity == want.regularity
    assert hashlib.sha256(got.stack(ts)).digest() == hashlib.sha256(want.stack(ts)).digest()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 48, 64, 97, 128])
def test_stacked_build_gives_the_blockwise_bits(dim):
    """The stacked draw, check, norms and products of the coupling blocks,
    and the stacked clamp of both ends, give the bits and leave the
    generator where the one-block-at-a-time build does; 48 and more split
    the blocks into chunks of ``_chunk_len(dim)``."""
    for degree in (1, 3, 8, 16):
        for scale in (1.0, 4.0):
            got_rng, want_rng = (np.random.default_rng([dim, degree]) for _ in range(2))
            got = trig_path(got_rng, dim, degree=degree, scale=scale)
            want = _blockwise_tilted(*_blockwise_evaluator(want_rng, dim, degree, scale), dim)
            _same_build(got, want, got_rng, want_rng)
    got_rng, want_rng = (np.random.default_rng(dim) for _ in range(2))
    got_f, got_g = concat_compatible_pair(got_rng, dim)
    want_f = _blockwise_tilted(*_blockwise_evaluator(want_rng, dim, 3, 1.0), dim)
    g_raw, rate = _blockwise_evaluator(want_rng, dim, 3, 1.0)
    (g_start,) = g_raw(np.array([0.0]))
    join = want_f.matrix(1.0).mat

    def shifted(ts):
        out = g_raw(ts)
        out -= g_start
        out += join
        return out

    want_g = _blockwise_tilted(shifted, rate, dim, fix_left=False)
    _same_build(got_f, want_f, got_rng, want_rng)
    _same_build(got_g, want_g, got_rng, want_rng)


def test_spawn_rngs_reproducible_and_distinct():
    first = [r.standard_normal(4) for r in spawn_rngs(7, 3)]
    second = [r.standard_normal(4) for r in spawn_rngs(7, 3)]
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(first[0], first[1])
    with pytest.raises(InputError):
        spawn_rngs(7, -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: spawn_rngs(-1, 2),
        lambda: trig_path(-1, 3),
        lambda: normalization_path(-2, 3),
        lambda: concat_compatible_pair(-1, 3),
        lambda: family_path("trig_random", seed=-1, dim=4),
        lambda: trig_path(True, 3),
    ],
    ids=["spawn_rngs", "trig_path", "normalization_path", "concat_pair", "family_path", "bool"],
)
def test_seed_must_be_a_nonnegative_int(build):
    """numpy refuses a negative seed with a bare ValueError, which once
    escaped the CLI as a traceback."""
    with pytest.raises(InputError, match="seed must be an int >= 0"):
        build()


@pytest.mark.parametrize("count", [True, False, 2.0])
def test_spawn_rngs_refuses_a_count_that_is_not_an_int(count):
    """``spawn_rngs(0, True)`` once returned one generator."""
    with pytest.raises(InputError, match="count must be an int >= 0"):
        spawn_rngs(0, count)


@pytest.mark.parametrize("seed,dim", [(0, 2), (1, 4), (2, 7), (3, 12)])
def test_trig_path_endpoint_gaps(seed, dim):
    p = trig_path(seed, dim)
    g0, g1 = p.endpoint_gaps()
    # the clamp can only be weakened by float rounding in the tilt
    assert g0 >= ENDPOINT_CLAMP_GAP - 1e-9
    assert g1 >= ENDPOINT_CLAMP_GAP - 1e-9


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for dim in (1, 3, 8):
        u = random_unitary(rng, dim).mat
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(dim), atol=UNITARY_TOL
        )


def test_random_spd_spectrum_window():
    rng = np.random.default_rng(11)
    h = random_spd(rng, 5, 0.2, 3.0)
    vals = np.linalg.eigvalsh(h.mat)
    assert np.all(vals >= 0.2 - 1e-12) and np.all(vals <= 3.0 + 1e-12)
    with pytest.raises(InputError):
        random_spd(rng, 5, -1.0, 3.0)


def test_clamp_keeps_signs_and_opens_gap():
    h = np.diag([-2.0, -0.05, 0.0, 0.08, 1.5])
    clamped = clamp_spectrum_away_from_zero(
        np.asarray(h, dtype=np.complex128), 0.3
    )
    np.testing.assert_allclose(
        np.linalg.eigvalsh(clamped.mat), [-2.0, -0.3, 0.3, 0.3, 1.5], atol=1e-12
    )
    with pytest.raises(InputError):
        clamp_spectrum_away_from_zero(h, 0.0)


def test_cyclic_shift_permutation_and_powers():
    w = cyclic_shift(5).mat
    for k in range(5):
        e = np.zeros(5)
        e[k] = 1.0
        out = w @ e
        assert out[(k + 1) % 5] == 1.0 and np.sum(np.abs(out)) == 1.0
    np.testing.assert_array_equal(cyclic_shift(5, 2).mat, w @ w)
    np.testing.assert_allclose(
        np.linalg.matrix_power(w, 5), np.eye(5), atol=0
    )
    with pytest.raises(InputError):
        cyclic_shift(0)


def test_half_integer_diagonal_layout():
    d = half_integer_diagonal(2)
    assert d.dim == 5
    np.testing.assert_array_equal(
        np.diag(d.mat).real, [-1.5, -0.5, 0.5, 1.5, 2.5]
    )
    assert np.min(np.abs(np.diag(d.mat))) == 0.5
    with pytest.raises(InputError):
        half_integer_diagonal(0)


def test_concat_pair_joins_exactly():
    f, g = concat_compatible_pair(3, 4)
    np.testing.assert_array_equal(f.matrix(1.0).mat, g.matrix(0.0).mat)
    for p in (f, g):
        g0, g1 = p.endpoint_gaps()
        assert min(g0, g1) >= ENDPOINT_CLAMP_GAP - 1e-9


def test_normalization_path_flows_one():
    for seed in (0, 1, 5):
        p = normalization_path(seed, 4)
        assert sf_endpoints(p) == 1
        # exactly one eigenvalue rides t - 1/2
        vals = p.values(0.25)
        assert np.min(np.abs(vals + 0.25)) < 1e-12


def test_invertible_trig_path_stays_invertible():
    p = invertible_trig_path(2, 5)
    for t in np.linspace(0.0, 1.0, 41):
        assert np.min(np.abs(p.values(t))) >= 0.25 - 1e-12


def test_unitary_rotation_path_identity_at_zero():
    rng = np.random.default_rng(4)
    u_of = unitary_rotation_path(rng, 4)
    np.testing.assert_allclose(u_of(0.0), np.eye(4), atol=UNITARY_TOL)
    u = u_of(0.37)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-11)


def test_homotopy_family_shapes():
    row, s_grid, label = homotopy_family(0, 3)
    assert label in ("additive_drift", "unitary_conjugation")
    assert len(s_grid) == 7 and s_grid[0] == 0.0 and s_grid[-1] == 1.0
    assert row(0.5).stack(np.array([0.25, 0.5])).shape == (2, 3, 3)
    # one declared path per row, kept for the next call with the same s
    assert row(0.5) is row(0.5) and row(0.5) is not row(1.0)
    # the rows keep the Lipschitz rate of the trig path they deform
    assert row(0.5).regularity == trig_path(0, 3).regularity
    assert row(0.5).regularity.soundness == "lipschitz"


@pytest.mark.parametrize(
    ("seed", "dim", "label"),
    [
        (0, 5, "additive_drift"),
        (1, 5, "unitary_conjugation"),
        (3, 32, "additive_drift"),
        (0, 32, "unitary_conjugation"),
    ],
)
def test_declared_homotopy_rows_bound_their_steps(seed, dim, label):
    """Each row, f(t) + s e I or U(s)* f(t) U(s) as evaluated (the
    conjugation adds two products after f), moves no faster between
    samples than f's declared rate allows, up to the rounding slack."""
    row_of, _, found = homotopy_family(seed, dim)
    assert found == label
    grid = np.linspace(0.0, 1.0, 1025).tolist()
    for s in (0.5, 1.0):
        row = row_of(s)
        _assert_bounds_hold(row, grid)
        # 64x finer inside the step of the largest sampled rate
        mats = row.matrices(grid)
        rates = [op_norm(b.mat - a.mat) for a, b in zip(mats, mats[1:])]
        k = int(np.argmax(rates))
        _assert_bounds_hold(row, np.linspace(grid[k], grid[k + 1], 65).tolist())


def test_family_path_errors():
    with pytest.raises(InputError):
        family_path("no_such_family")
    with pytest.raises(InputError):
        family_path("trig_random", {"dim": 4})  # seed missing
    with pytest.raises(InputError):
        family_path("fuglede_line", {"N": 8})  # n missing
    with pytest.raises(InputError):
        family_path("linear_interp", {"a": np.eye(2)})  # b missing


def test_family_path_linear_interp_endpoints():
    a = np.diag([1.0, -1.0])
    b = np.diag([2.0, 3.0])
    p = family_path("linear_interp", {"a": a, "b": b})
    np.testing.assert_array_equal(p.matrix(0.0).mat, a.astype(np.complex128))
    np.testing.assert_array_equal(p.matrix(1.0).mat, b.astype(np.complex128))
    np.testing.assert_allclose(
        p.matrix(0.5).mat, np.diag([1.5, 1.0]), atol=1e-15
    )


def _formula_spy(monkeypatch):
    """Record, per evaluator call, whether the real-view sum held a -0.0
    and so was replaced by the complex formula."""
    fell_back = []
    inner = generators._or_formula

    def spy(out, formula):
        fell_back.append(generators._has_neg_zero(out))
        return inner(out, formula)

    monkeypatch.setattr(generators, "_or_formula", spy)
    return fell_back


#: parameters where a product may underflow, be a signed zero or overflow
_EDGE_TS = [0.0, -0.0, 1.0, 0.5, 0.3, 1e-300, 5e-324, 1.0 - 2.0**-53]


def test_line_paths_evaluate_with_the_formulas_bits(monkeypatch):
    """A line evaluated on the real view has the bits of the complex
    formula, signed zeros included, on endpoints with signed zeros,
    subnormal, huge and mixed-sign components; where the two differ the
    formula is taken."""
    fell_back = _formula_spy(monkeypatch)
    rng = np.random.default_rng(2504)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3e-310, 5e-324, -5e-324, -1e-300, 1e300])
    differs = 0
    for case in range(300):
        n = int(rng.integers(1, 5))

        def entries():
            parts = rng.choice(pool, size=(2, n, n))
            normal = rng.normal(size=(2, n, n))
            parts = np.where(rng.random((2, n, n)) < 0.3, normal, parts)
            return HermitianMatrix._of_valid(parts[0] + 1j * parts[1])

        a, b = entries(), entries()
        if case % 3 == 0:  # endpoints without signed zeros
            a, b = (HermitianMatrix._of_valid(m.mat + 0.0) for m in (a, b))
        ts = np.array(list(rng.choice(_EDGE_TS, size=3)) + list(rng.random(2)))
        got = generators.line_path(a, b)._evaluator(ts)
        want = (1.0 - ts)[:, None, None] * a.mat + ts[:, None, None] * b.mat
        assert got.tobytes() == want.tobytes(), case
        real_view = generators._add_combination(generators._scaled(1.0 - ts, a.mat), [(ts, b.mat)])
        differs += real_view.tobytes() != want.tobytes()
    assert fell_back.count(False) > 150 and fell_back.count(True) > 20
    assert differs > 5  # the real view alone would not do


@pytest.mark.parametrize("law", ["linear", "signed", "shifted"])
def test_family_lines_evaluate_on_the_real_view(law, monkeypatch):
    """The Toeplitz lines evaluate on the real view with the formula's
    bits, and never hold the -0.0 that would send them to the formula; the
    Fuglede lines evaluate the formula itself, without the real view."""
    fell_back = _formula_spy(monkeypatch)
    ts = np.array(_EDGE_TS + np.linspace(0.0, 1.0, 33).tolist())
    for big_n, n in ((8, 1), (8, 3), (32, 7), (128, 40)):
        model = DiagonalModel(big_n, law)
        d, c = realize(model), family_perturbation(model, "fuglede", n)
        got = family_path("fuglede_line", {"N": big_n, "n": n, "law": law})._evaluator(ts)
        assert got.tobytes() == (d.mat + ts[:, None, None] * c.mat).tobytes()
    assert fell_back == []
    for m, power in ((1, 1), (9, 2), (24, 1)):
        d = half_integer_diagonal(m)
        w = cyclic_shift(d.dim, power).mat
        conj = HermitianMatrix(w @ d.mat @ w.conj().T)
        got = family_path("toeplitz_line", {"m": m, "power": power})._evaluator(ts)
        want = (1.0 - ts)[:, None, None] * d.mat + ts[:, None, None] * conj.mat
        assert got.tobytes() == want.tobytes()
    assert fell_back and not any(fell_back)
