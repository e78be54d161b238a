"""Core matrix layer: validation, eigensolvers, projections, quadrature."""

import warnings

import numpy as np
import pytest

from specflowlab import matcore
from specflowlab.matcore import _run_stats
from specflowlab.errors import (
    BoundaryCollisionError,
    ConsistencyFault,
    DimensionMismatchError,
    FinitenessError,
    FunctionDomainError,
    HermiticityError,
    IllConditionedRankWarning,
    InputError,
)
from specflowlab.matcore import (
    EigenDecomposition,
    HermitianMatrix,
    Interval,
    Projection,
    apply_function,
    as_hermitian,
    eigh,
    nonneg_projection,
    op_norm,
    rank_eps,
    spectral_projection,
    tol_spec,
)

from specflowlab.generators import family_path
from specflowlab.graded import GradedOperator
from specflowlab.paths import OperatorPath, lipschitz
from specflowlab.transforms import cayley, riesz

from conftest import random_hermitian
from reference import (
    A1Report,
    ContourCollisionError,
    DefinitenessError,
    check_a1,
    contour_projection,
    inv_sqrt_integral,
)


def power_iteration_norm(a, iters=2000, tol=1e-13):
    """Independent largest-singular-value oracle (power method on A*A)."""
    a = np.asarray(a, dtype=np.complex128)
    rng = np.random.default_rng(99)
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        s = np.linalg.norm(w)
        if s == 0.0:
            return 0.0
        v = w / s
        if abs(s - last) <= tol * max(1.0, s):
            break
        last = s
    return float(np.sqrt(s))


def test_op_norm_matches_power_iteration(rng):
    for dim in (1, 2, 5, 9):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert op_norm(a) == pytest.approx(power_iteration_norm(a), rel=1e-9)


def test_op_norm_hand_values():
    assert op_norm(np.diag([3.0, -7.0, 2.0])) == 7.0
    assert op_norm(np.zeros((4, 4))) == 0.0
    # [[0, 2], [0, 0]] has singular values {2, 0}
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


@pytest.mark.parametrize("dim, count", [(1, 2), (2, 5), (64, 11), (130, 3)])
def test_diff_norms_are_the_norms_of_each_difference(dim, count):
    """Chunks of 4096, 4 and 1 differences at dims 2, 64 and 130: each
    norm has the bits of ``op_norm`` of its difference alone, from a stack
    or from a list of matrices."""
    rng = np.random.default_rng(dim)
    mats = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    want = [op_norm(b - a) for a, b in zip(mats[:-1], mats[1:])]
    assert matcore._diff_norms(mats).tolist() == want
    assert matcore._diff_norms(list(mats)).tolist() == want


def test_hermitian_validation(rng):
    with pytest.raises(HermiticityError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(FinitenessError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    h = HermitianMatrix(random_hermitian(rng, 4))
    assert h.dim == 4
    np.testing.assert_allclose(h.mat, h.mat.conj().T)


def test_stack_validates_like_the_constructor(rng):
    mats = [random_hermitian(rng, 3, scale=10.0 ** k) for k in range(-3, 4)]
    mats[2] = mats[2] + 1e-15j * rng.normal(size=(3, 3))  # within tolerance
    rows = matcore._hermitian_stack(np.array(mats))
    assert [row.tobytes() for row in rows] == [HermitianMatrix(m).mat.tobytes() for m in mats]
    assert matcore._hermitian_stack(mats)[2].tobytes() == rows[2].tobytes()
    assert matcore._hermitian_stack(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def _non_hermitian():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1e-6
    return a


@pytest.mark.parametrize(
    "bad",
    [_non_hermitian(), np.diag([1.0, np.nan, 2.0]), np.diag([1.0, complex(0.0, np.inf), 2.0])],
    ids=["non_hermitian", "nan", "inf"],
)
def test_stack_errors_match_the_constructor(rng, bad):
    """One bad matrix in the middle of a stack raises the constructor's
    exception, with its message."""
    with pytest.raises(InputError) as single:
        HermitianMatrix(bad)
    mats = [random_hermitian(rng, 3) for _ in range(4)]
    mats.insert(2, bad)
    for stack in (mats, np.array(mats)):
        with pytest.raises(type(single.value)) as stacked:
            matcore._hermitian_stack(stack)
        assert str(stacked.value) == str(single.value)


def test_hermitian_average_overflow_is_not_finite():
    """Finite entries beyond half the float range overflow (A + A*) / 2;
    that is refused, never stored as Inf/NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FinitenessError, match="overflows"):
            HermitianMatrix(np.diag([1e308, 1.0]))
        with pytest.raises(FinitenessError, match="overflows"):
            matcore._hermitian_stack([np.eye(2), np.diag([1.0, -1e308])])
        assert HermitianMatrix(np.diag([8e307, 1.0])).mat[0, 0] == 8e307


def _validated(a):
    """Bytes of the validated stack, or the type and message it raised."""
    try:
        return matcore._hermitian_stack(a).tobytes()
    except InputError as exc:
        return type(exc), str(exc)


def _both_routes(a, monkeypatch):
    """The outcome of validating ``a``, that of the general route, which
    averages (A + A*) / 2 without the diagonal route and without the
    exactly-Hermitian shortcut, and the route the first took (``_route``)."""
    with _run_stats() as stats:
        fast = _validated(a)
    with monkeypatch.context() as m:
        m.setattr(matcore, "_real_diagonals", lambda _a: None)
        m.setattr(matcore, "_exact_average_into", lambda _a, _out: False)
        general = _validated(a)
    return fast, general, _route(stats)


def _exact_stack(seed, k, n):
    h = random_hermitian(np.random.default_rng(seed), n)
    stack = np.stack([h * (j + 1.5) for j in range(k)])
    assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
    return stack


def _route(stats):
    """The route of the one Hermitian check a run record counts:
    "diagonal", "copy", or "formula" where the shortcut declined or the
    stack is not its adjoint; None when the check raised before a route."""
    taken = [route for route in ("diagonal", "copy", "formula") if stats["hermitian." + route]]
    assert sum(stats[k] for k in stats if k.startswith("hermitian.")) == len(taken) <= 1
    return taken[0] if taken else None


def _sparse_exact_stack(rng):
    """A random exactly Hermitian stack with many zero components, each
    zero given a random sign with a per-stack probability of -0.0."""
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    values = np.array([0.0, 0.0, 0.0, 1.0, -2.5, 3e-310, -7e300])
    def pick(shape):
        v = rng.choice(values, size=shape)
        return np.where(rng.random(shape) < 0.3, rng.normal(size=shape), v)
    a = pick((k, n, n)) + 1j * pick((k, n, n))
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    a = np.where(lower, a.conj().swapaxes(1, 2), a)
    d = np.arange(n)
    a[:, d, d] = a[:, d, d].real
    flat = a.view(np.float64)
    flip = (flat == 0.0) & (rng.random(flat.shape) < rng.choice([0.0, 0.02, 0.5]))
    flat[flip] = -0.0
    assert np.array_equal(a, a.conj().swapaxes(1, 2))
    return a


def test_exactly_hermitian_stacks_validate_as_the_general_route(monkeypatch):
    half = np.finfo(np.float64).max / 2.0
    # negated, the imaginary diagonal reads -0.0, which the average makes +0.0
    cases = {"plain": _exact_stack(0, 4, 5), "negated": -_exact_stack(5, 2, 4)}
    for name, value in (("nan", np.nan), ("inf", np.inf)):
        bad = _exact_stack(1, 5, 3)
        bad[2, 1, 0] = bad[2, 0, 1] = value
        cases[name] = bad
    for name, value in (("half_max", half), ("past_half_max", np.nextafter(half, np.inf))):
        big = _exact_stack(2, 3, 3)
        big[1, 2, 2] = value
        cases[name] = big
    signed = _exact_stack(3, 2, 3)
    signed[0, 0, 1] = complex(-0.0, 1.0)
    signed[0, 1, 0] = complex(0.0, -1.0)
    cases["mixed_signed_zero"] = signed
    diagonal = np.zeros((2, 3, 3), dtype=np.complex128)
    diagonal[:, [0, 1, 2], [0, 1, 2]] = [[1.0, 0.0, -2.0], [0.5, 3.0, 0.0]]
    cases["diagonal"] = diagonal
    # a sparse stack whose only -0.0 are the diagonal's imaginary parts
    imag_signed = diagonal.copy()
    imag_signed.imag[:, [0, 1, 2], [0, 1, 2]] = -0.0
    cases["diagonal_signed_imag"] = imag_signed
    rng = np.random.default_rng(77)
    for j in range(600):
        cases[f"sparse_{j}"] = _sparse_exact_stack(rng)
    outcomes, route = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, a in cases.items():
            *outcomes[name], route[name] = _both_routes(a, monkeypatch)
    for name, (fast, general) in outcomes.items():
        assert fast == general, name
    assert isinstance(outcomes["plain"][0], bytes)
    assert outcomes["nan"][0] == outcomes["inf"][0] == (
        FinitenessError,
        "matrix entries must be finite (no NaN/Inf)",
    )
    assert isinstance(outcomes["half_max"][0], bytes)
    assert outcomes["past_half_max"][0][0] is FinitenessError
    assert "overflows" in outcomes["past_half_max"][0][1]
    # the diagonal stack took the diagonal route; the shortcut copied the
    # plain and negated stacks, and the diagonal one whose imaginary parts
    # are -0.0, and handed the zero it cannot sign, and the entry past half
    # the range, to the formula; the sparse stacks went all three ways, each
    # with the general route's bytes
    assert route["diagonal"] == "diagonal"
    assert route["plain"] == route["negated"] == route["diagonal_signed_imag"] == "copy"
    assert route["mixed_signed_zero"] == route["past_half_max"] == "formula"
    sparse = [route[name] for name in cases if name.startswith("sparse_")]
    assert sparse.count("copy") >= 100 and sparse.count("formula") >= 100
    assert sparse.count("diagonal") >= 10


@pytest.mark.parametrize("make", [
    lambda: family_path("fuglede_line", {"N": 16, "n": 5}),
    lambda: family_path("toeplitz_line", {"m": 3}),
], ids=["fuglede_line", "conjugation_path"])
def test_sparse_path_stacks_take_the_copy(make, monkeypatch):
    """A diagonal line's samples and a Toeplitz conjugation line's (a cyclic
    shift conjugates a diagonal matrix to a diagonal one) are real diagonal
    stacks: they take the diagonal route's copy, with the general route's
    bytes."""
    ts = np.linspace(0.0, 1.0, 33).tolist()
    with _run_stats() as stats:
        fast = [h.mat.tobytes() for h in make().matrices(ts)]
    assert stats["hermitian.diagonal"] and not stats["hermitian.copy"] + stats["hermitian.formula"]
    with monkeypatch.context() as m:
        m.setattr(matcore, "_real_diagonals", lambda _a: None)
        m.setattr(matcore, "_exact_average_into", lambda _a, _out: False)
        assert [h.mat.tobytes() for h in make().matrices(ts)] == fast


def test_one_last_bit_defect_takes_the_general_route():
    a = _exact_stack(4, 3, 4)
    a[2, 0, 3] = np.nextafter(a[2, 0, 3].real, np.inf) + 1j * a[2, 0, 3].imag
    with _run_stats() as stats:
        h = matcore._hermitian_stack(a)
    assert _route(stats) == "formula"
    assert h.tobytes() == ((a + a.conj().swapaxes(1, 2)) / 2.0).tobytes()
    assert np.array_equal(h, h.conj().swapaxes(1, 2))


def _diagonal_stack(d):
    d = np.asarray(d, dtype=np.float64)
    k, n = d.shape
    s = np.zeros((k, n, n), dtype=np.complex128)
    s[:, np.arange(n), np.arange(n)] = d
    return s


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_unscaled_range_is_zheevds():
    assert matcore._UNSCALED_MIN == 2.0**-485
    assert matcore._UNSCALED_MAX == 2.0**485


def test_diagonal_stacks_take_the_sorted_diagonal_bit_for_bit():
    lapack = np.linalg.eigvalsh
    rng = np.random.default_rng(10)
    lo, hi = matcore._UNSCALED_MIN, matcore._UNSCALED_MAX
    # the range ends with their neighbours on both sides
    edges = [lo, hi, np.nextafter(lo, 1.0), np.nextafter(hi, 1.0),
             np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)]
    routed = 0
    for case in range(600):
        n, k = int(rng.integers(1, 90)), int(rng.integers(1, 5))
        kind = case % 6
        if kind == 0:
            d = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-300, 160)
        elif kind == 1:
            d = rng.integers(-3, 4, size=(k, n)).astype(np.float64)  # zeros, repeats
        elif kind == 2:
            d = rng.integers(-20, 20, size=(k, n)) + 0.5
        elif kind == 3:
            d = rng.choice([1.0, -1.0], size=(k, n)) * rng.choice(edges, size=(k, 1))
            d *= rng.choice([1.0, 0.5, 0.25], size=(k, n))
        elif kind == 4:
            d = np.zeros((k, n))
        else:
            d = np.repeat(rng.normal(size=(k, 1)), n, axis=1)
            d[:, ::3] = rng.normal(size=(k, d[:, ::3].shape[1]))
        s = _diagonal_stack(d + 0.0)  # + 0.0 turns a -0.0 into +0.0
        amax = np.max(np.abs(d), axis=1)
        unscaled = bool(np.all((amax == 0.0) | ((amax >= lo) & (amax <= hi))))
        expect_routed = unscaled
        with _run_stats() as stats:
            got = matcore._stack_eigvalsh(s)
        route = "eigvalsh.diagonal" if expect_routed else "eigvalsh.lapack"
        assert stats == {route: k, route + ".calls": 1}, case
        assert _same_bits(got, lapack(s)), case
        routed += expect_routed
    assert 300 < routed < 600


def test_diagonal_route_falls_back_where_lapack_differs():
    """Out of zheevd's unscaled range, or with a -0.0 on the diagonal, the
    sorted diagonal need not be LAPACK's answer; such stacks go to LAPACK,
    as does one whose first matrix is diagonal and whose last is not."""
    lapack = np.linalg.eigvalsh
    d = np.random.default_rng(3).normal(size=(1, 6))
    unit = d / np.max(np.abs(d))
    diagonals = {
        "far above the range": d * 1e200,
        "far below the range": d * 1e-200,
        "above the range": unit * 2.0**486,
        "below the range": unit * 2.0**-486,
        "negative zero": np.array([[1, -1, 2.5, -0.0, -0.0, 2.5, 2.5, 0, 0, 2.5, 1, 0]]),
    }
    stacks = {name: _diagonal_stack(v) for name, v in diagonals.items()}
    for name in ("far above the range", "far below the range", "negative zero"):
        assert not _same_bits(np.sort(diagonals[name], axis=1), lapack(stacks[name])), name
    dense_last = _diagonal_stack(np.repeat(d, 3, axis=0))
    dense_last[2, 0, 5] = dense_last[2, 5, 0] = 1e-300
    stacks["first matrix diagonal, last not"] = dense_last
    # a signed zero off the diagonal goes to LAPACK too: the one bit count
    # that finds the diagonal stacks does not tell it from a nonzero entry
    stacks["signed zero off the diagonal"] = _diagonal_stack(d)
    stacks["signed zero off the diagonal"][0, 1, 0] = -0.0
    for name, s in stacks.items():
        with _run_stats() as stats:
            assert _same_bits(matcore._stack_eigvalsh(s), lapack(s)), name
        assert stats == {"eigvalsh.lapack": len(s), "eigvalsh.lapack.calls": 1}, name


def _checked_projections(a):
    """Bytes, shape and read-only flag of ``_projection_stack(a)`` with its
    ranks, or the class and text of what it raised."""
    try:
        s, ranks = matcore._projection_stack(a)
    except InputError as exc:
        return type(exc), str(exc)
    return s.tobytes(), s.shape, s.flags.writeable, ranks


def _factored(stats) -> int:
    """The rows a run record counts as factored by ``_stack_eigvalsh``, the
    dense checks' eigenvalues of a projection stack."""
    return stats["eigvalsh.lapack"] + stats["eigvalsh.diagonal"]


def test_exact_projection_diagonals_skip_the_dense_checks(monkeypatch):
    """Real diagonal stacks of exact 0.0s and 1.0s get, without the dense
    checks, the general route's bytes, read-only flag and ranks."""
    rng = np.random.default_rng(39)
    cases = []
    for k in (1, 2, 3):
        for n in range(1, 7):
            cases += [np.zeros((k, n)), np.ones((k, n)), rng.integers(0, 2, size=(k, n))]
    with _run_stats() as stats:
        fast = [_checked_projections(_diagonal_stack(d)) for d in cases]
    assert _factored(stats) == 0
    with monkeypatch.context() as m, _run_stats() as stats:
        m.setattr(matcore, "_real_diagonals", lambda _a: None)
        general = [_checked_projections(_diagonal_stack(d)) for d in cases]
    assert _factored(stats) == sum(len(d) for d in cases)
    assert fast == general
    assert [out[3] for out in fast] == [np.count_nonzero(d, axis=1).tolist() for d in cases]
    assert all(out[2] is False for out in fast)


def test_other_projection_diagonals_take_the_dense_checks():
    """A 0/1 diagonal holding a -0.0, and one holding 0.5, take the general
    checks: the first passes them, the second is not idempotent."""
    neg_zero = _diagonal_stack([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    neg_zero[1, 0, 0] = -0.0
    with _run_stats() as stats:
        s, ranks = matcore._projection_stack(neg_zero)
    assert _factored(stats) == 2 and ranks == [2, 2] and not s.flags.writeable
    with pytest.raises(InputError, match="not idempotent"):
        matcore._projection_stack(_diagonal_stack([[1.0, 0.5, 0.0]]))


def test_stack_shape_errors_match_the_constructor():
    for shape in ((3, 4), (0, 0)):
        with pytest.raises(InputError) as single:
            HermitianMatrix(np.zeros(shape))
        with pytest.raises(type(single.value)) as stacked:
            matcore._hermitian_stack(np.zeros((5,) + shape))
        assert str(stacked.value) == str(single.value)
    with pytest.raises(InputError, match="stack of 2-d matrices"):
        matcore._hermitian_stack(np.eye(3))


#: matrix entries numpy cannot read as numbers, or reads from bools as 0 and 1
UNREADABLE = {
    "string": lambda: HermitianMatrix("x"),
    "ragged": lambda: HermitianMatrix([[1, 2], [3]]),
    "bool": lambda: HermitianMatrix([[True]]),
    "diag_string": lambda: HermitianMatrix.diag(["a"]),
    "diag_bool": lambda: HermitianMatrix.diag([True]),
    "graded_string": lambda: GradedOperator(1, 1, "x"),
    "graded_bool": lambda: GradedOperator(1, 1, [[True]]),
    "evaluator": lambda: OperatorPath(
        lambda ts: "x", 1, regularity=lipschitz((), [1.0])
    ).values(0.0),
    "linear_interp": lambda: family_path("linear_interp", {"a": "x", "b": np.eye(2)}),
    "bool_among_floats": lambda: HermitianMatrix([[True, 0.0], [0.0, 1.0]]),
    "diag_bool_among_floats": lambda: HermitianMatrix.diag([True, 2.0]),
    "graded_bool_among_floats": lambda: GradedOperator(1, 2, [[True], [0.5]]),
    "object_string": lambda: HermitianMatrix(np.array([["2"]], dtype=object)),
    "int_beyond_float_range": lambda: HermitianMatrix([[10**400]]),
    # numpy reads this literal as strings before the bool can be seen
    "bool_before_string": lambda: HermitianMatrix([[True, 0], [0, "2"]]),
}


@pytest.mark.parametrize("call", sorted(UNREADABLE))
def test_unreadable_matrix_entries_are_input_errors(call):
    """Each of these once raised numpy's bare ValueError or OverflowError,
    or read a bool as 1 or a string as a number; ``_complex_array``, the one
    reading of matrix entries, refuses them.
    A complex128 array is read as it is, with no copy."""
    with pytest.raises(InputError, match="^matrix entries must be numbers[:,] "):
        UNREADABLE[call]()
    a = np.eye(2, dtype=np.complex128)
    assert matcore._complex_array(a) is a


@pytest.mark.parametrize("entries, name", [
    ([[True, 0], [0, "2"]], "bool"),
    ([[0, "2"], [True, 0]], "str"),
    ("x", "str"),
    ([[1.0, True]], "bool"),
])
def test_unreadable_entries_are_named_by_the_first_offender(entries, name):
    """The refusal names the first bool or string among the entries, also
    where numpy read them all as strings (it once printed "<U21")."""
    with pytest.raises(InputError, match=f"^matrix entries must be numbers, got {name} entries$"):
        HermitianMatrix(entries)


def test_hermitian_rejects_tiny_asymmetry_beyond_tolerance():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1e-6  # far above the relative tolerance
    with pytest.raises(HermiticityError) as err:
        HermitianMatrix(a)
    assert err.value.defect > 0


def test_hermitian_arithmetic(rng):
    """Matrices combine as arrays: a real combination of validated
    matrices is exactly Hermitian, so its wrapper keeps its bits."""
    a = HermitianMatrix(random_hermitian(rng, 3))
    b = HermitianMatrix(random_hermitian(rng, 3))
    for combined in (a.mat + b.mat, a.mat - b.mat, 2.5 * a.mat, -a.mat):
        np.testing.assert_array_equal(HermitianMatrix(combined).mat, combined)
    assert HermitianMatrix(np.eye(3)).norm == 1.0
    assert HermitianMatrix(np.zeros((2, 2))).norm == 0.0


@pytest.mark.parametrize(
    "make",
    [lambda: HermitianMatrix(np.diag([1.0, -2.0])), lambda: Projection(np.diag([1.0, 0.0]))],
    ids=["hermitian", "projection"],
)
def test_array_copies_only_when_asked(make):
    """``np.array(H)`` once returned the wrapper's own read-only array, so
    writing to it raised; ``np.asarray(H)`` still makes no copy."""
    h = make()
    a = np.array(h)
    a[0, 0] = 7.0
    assert h.mat[0, 0] != 7.0 and not np.shares_memory(a, h.mat)
    assert np.asarray(h) is h.mat
    assert np.array(h, dtype=np.complex64).dtype == np.complex64


def test_eigh_ascending_and_reconstructs(rng):
    h = HermitianMatrix(random_hermitian(rng, 8))
    ed = eigh(h)
    assert np.all(np.diff(ed.values) >= 0.0)
    recon = (ed.vectors * ed.values) @ ed.vectors.conj().T
    assert op_norm(recon - h.mat) <= 1e-10 * (1.0 + h.norm)


def test_eigendecomposition_rejects_gram_defect():
    v = np.eye(3, dtype=np.complex128)
    v[0, 1] = 1e-9  # ||V* V - I|| is about 1e-9, ten times the bound
    with pytest.raises(ConsistencyFault, match="orthonormal"):
        EigenDecomposition(values=np.array([0.0, 1.0, 2.0]), vectors=v)


def test_eigendecomposition_accepts_gram_defect_below_the_operator_norm_bound():
    # ||V* V - I||_F = 1.6e-10 fails the Frobenius shortcut, but the
    # operator norm 0.8e-10 meets the bound, so the exact test must accept
    v = np.diag(np.full(4, np.sqrt(1.0 + 0.8e-10))).astype(np.complex128)
    EigenDecomposition(values=np.arange(4.0), vectors=v)


def test_eigh_rejects_bad_reconstruction(monkeypatch):
    lapack_eigh = np.linalg.eigh
    c, s = np.cos(1e-6), np.sin(1e-6)

    def perturbed(a):
        w, v = lapack_eigh(a)
        v = v.copy()
        # rotate two eigenvectors into each other: still orthonormal, but
        # V diag(w) V* misses H by about 1e-6 (a is a stack of one)
        v[..., [0, 1]] = v[..., [0, 1]] @ np.array([[c, -s], [s, c]])
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConsistencyFault, match="reconstruction"):
        eigh(HermitianMatrix(np.diag([1.0, 2.0, 3.0])))


def test_one_eigh_serves_every_function_of_a_matrix(rng):
    """Both projections, the calculus and both transforms read the one
    decomposition the matrix caches; each once computed its own. The eigh
    is the one-matrix case of the stacked decomposition, a stack of one."""
    h = HermitianMatrix(random_hermitian(rng, 6))
    with _run_stats() as stats:
        spectral_projection(h, Interval(-100.0, 100.0))
        nonneg_projection(h)
        apply_function(h, abs)
        riesz(h)
        cayley(h)
    assert stats["eigh"] == 1
    assert h.eig is h.eig


def test_stack_rows_and_projections_carry_their_decomposition(rng):
    a = random_hermitian(rng, 5)
    for row in map(HermitianMatrix._of_valid, matcore._hermitian_stack([a, -a])):
        ed = row.eig
        assert ed is row.eig
        fresh = eigh(row)
        assert np.array_equal(ed.values, fresh.values)
        assert np.array_equal(ed.vectors, fresh.vectors)
        p = nonneg_projection(row)
        assert p.eig is p.eig
        assert int(np.sum(p.eig.values > 0.5)) == p.rank
        assert np.allclose(p.eig.assemble(p.eig.values), p.mat, atol=1e-12)


def test_projection_rejects_non_idempotent():
    with pytest.raises(InputError, match="idempotent"):
        Projection(np.diag([1.0, 0.5, 0.0]))


def test_apply_function_scalar_transport():
    h = HermitianMatrix(np.diag([-2.0, 0.5, 3.0]))
    out = apply_function(h, lambda x: x * x)
    np.testing.assert_allclose(np.sort(np.diag(out.mat)).real, [0.25, 4.0, 9.0])


def test_apply_function_domain_errors():
    h = HermitianMatrix(np.diag([-4.0, 1.0]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(FunctionDomainError):
            apply_function(h, np.sqrt)  # nan at -4
    with pytest.raises(FunctionDomainError):
        apply_function(h, lambda x: 1.0 / (x - 1.0))  # inf at 1


def test_interval_mask_holds_both_ends():
    w = Interval(0.0, 2.0)
    np.testing.assert_array_equal(
        w.mask(np.array([-1.0, 0.0, 1.0, 2.0, 2.5])), [False, True, True, True, False]
    )
    assert Interval(1.0, np.inf).mask(np.array([0.5, 1.0, 1e300])).tolist() == [False, True, True]
    assert Interval(1.0, 1.0).mask(np.array([1.0]))[0]
    assert Interval(-np.inf, 0.0).finite_endpoints() == [0.0]
    with pytest.raises(InputError):
        Interval(2.0, 1.0)
    with pytest.raises(InputError):
        Interval(np.nan, 1.0)


def test_projection_ranks_and_complement(rng):
    h = HermitianMatrix(random_hermitian(rng, 6))
    p = nonneg_projection(h)
    assert p.rank + Projection(np.eye(6) - p.mat).rank == 6
    # idempotency is enforced
    with pytest.raises(InputError):
        Projection(np.diag([0.5, 1.0]))


def test_spectral_projection_window_ranks():
    h = HermitianMatrix(np.diag([-3.0, -1.0, 0.0, 2.0, 5.0]))
    assert spectral_projection(h, Interval(-1.5, 2.5)).rank == 3
    assert spectral_projection(h, Interval(-0.5, np.inf)).rank == 3
    assert nonneg_projection(h).rank == 3  # 0 counts as nonnegative


def test_spectral_projection_boundary_guard():
    h = HermitianMatrix(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(BoundaryCollisionError):
        spectral_projection(h, Interval(-0.5, 1.0))
    # the guard also covers an endpoint dead on an eigenvalue, where
    # nonneg_projection (the junction-count convention) still answers
    with pytest.raises(BoundaryCollisionError):
        spectral_projection(h, Interval(0.0, np.inf))
    assert nonneg_projection(h).rank == 2


def test_contour_vs_spectral(rng):
    h = HermitianMatrix(random_hermitian(rng, 7))
    vals = np.linalg.eigvalsh(h.mat)
    lo, hi = vals[2], vals[4]
    pad = 0.25 * min(vals[2] - vals[1], vals[5] - vals[4])
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo) + pad
    p_contour = contour_projection(h, center, radius)
    p_spec = spectral_projection(h, Interval(center - radius, center + radius))
    assert op_norm(p_contour.mat - p_spec.mat) <= 1e-10
    assert p_contour.rank == 3


def test_contour_collision_guard():
    h = HermitianMatrix(np.diag([0.0, 1.0, 4.0]))
    with pytest.raises(ContourCollisionError):
        contour_projection(h, 0.0, 1.0)  # circle passes through eigenvalue 1


def test_rank_eps_exact_and_warning():
    a = np.diag([1.0, 1e-3, 0.0])
    assert rank_eps(a) == 2
    with pytest.warns(IllConditionedRankWarning):
        assert rank_eps(np.diag([1.0, 5e-8])) in (1, 2)
    assert rank_eps(np.zeros((3, 3))) == 0


def test_inv_sqrt_integral_vs_eigh_route(rng):
    for dim in (2, 5, 9):
        vals = rng.uniform(0.2, 8.0, size=dim)
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        a = HermitianMatrix(q @ np.diag(vals) @ q.conj().T)
        direct = q @ np.diag(vals ** -0.5) @ q.conj().T
        assert op_norm(inv_sqrt_integral(a).mat - direct) <= 1e-8


def test_inv_sqrt_integral_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        inv_sqrt_integral(HermitianMatrix(np.diag([1.0, -0.5])))


def test_check_a1_random_draws(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        vals = rng.uniform(0.1, 5.0, size=dim)
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        t = HermitianMatrix(q @ np.diag(vals) @ q.conj().T)
        b = HermitianMatrix(random_hermitian(rng, dim))
        rep = check_a1(t, b)
        assert isinstance(rep, A1Report)
        assert rep.equal_norms_ok and rep.lower_bound_ok
        assert rep.spd and rep.sandwich_bound_ok


def test_check_a1_reads_the_gap_from_the_cached_decomposition():
    """The invertibility gap and the SPD test come from T's one validated
    eigendecomposition, with no separate values-only factorization."""
    spd = HermitianMatrix(np.diag([0.5, 1.0, 3.0]))
    b = HermitianMatrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 1.0]]))
    with _run_stats() as stats:
        rep = check_a1(spd, b)
        assert rep.ok and rep.spd and rep.sandwich_bound_ok
        indefinite = check_a1(HermitianMatrix(np.diag([-2.0, 1.0, 3.0])), b)
        assert indefinite.ok and not indefinite.spd and indefinite.sandwich_norm is None
        with pytest.raises(InputError, match="T must be invertible"):
            check_a1(HermitianMatrix(np.diag([0.0, 1.0, 3.0])), b)
    assert _factored(stats) == 0 and stats["eigh"] == 3


def test_tol_spec_scaling():
    small = tol_spec(HermitianMatrix(np.zeros((2, 2))))
    large = tol_spec(HermitianMatrix(np.diag([1e6, -1e6])))
    assert small == pytest.approx(1e-9)
    assert large == pytest.approx(1e-9 * (1 + 1e6))


def test_as_hermitian_accepts_arrays_and_passthrough(rng):
    arr = random_hermitian(rng, 3)
    h = as_hermitian(arr)
    assert isinstance(h, HermitianMatrix)
    assert as_hermitian(h) is h


def _frobenius_misses(stack, bound, monkeypatch):
    """The rows ``_norm_over`` measures: each asks its limit, here never
    reached, and takes one ``op_norm``, which a spy answers."""
    asked, measured = [], []
    monkeypatch.setattr(matcore, "op_norm", lambda m: measured.append(m) or 0.0)
    assert matcore._norm_over(stack, bound, lambda i: asked.append(i) or np.inf) is None
    assert len(measured) == len(asked)
    assert all(np.array_equal(m, stack[i], equal_nan=True) for m, i in zip(measured, asked))
    return asked


def test_frobenius_misses_flag_non_finite_and_oversized_rows(monkeypatch):
    """Every row the cheap test cannot accept comes back as a miss: NaN
    and Inf entries, a square that overflows, and a Frobenius norm above
    the bound less its slack; the rest are accepted, in one stacked call."""
    bound = 1e-10
    limit = bound * (1.0 - matcore._FRO_SLACK)
    stack = np.zeros((7, 3, 3), dtype=np.complex128)
    stack[0, 0, 0] = 0.5 * limit
    stack[1, 1, 2] = np.nan
    stack[2, 2, 2] = np.inf
    stack[3, 0, 1] = complex(0.0, -np.inf)
    stack[4, 0, 0] = 1e200
    stack[5, 0, 0] = 2.0 * limit
    stack[6, 2, 1] = limit  # at the limit: accepted
    misses = _frobenius_misses(stack, bound, monkeypatch)
    assert misses == [1, 2, 3, 4, 5]
    assert all(isinstance(i, int) for i in misses)
    assert _frobenius_misses(np.zeros((0, 3, 3), dtype=np.complex128), bound, monkeypatch) == []


def test_frobenius_misses_equal_the_per_matrix_loop(rng, monkeypatch):
    """The stacked norm sums in another order than one norm per matrix,
    within 1e-14 relative here; away from that band around the limit both
    miss the same matrices."""
    bound = 1e-10
    limit = bound * (1.0 - matcore._FRO_SLACK)
    stack = np.stack([random_hermitian(rng, 5) for _ in range(200)])
    stack *= (limit * rng.uniform(0.5, 1.5, 200) / np.linalg.norm(stack, axis=(1, 2)))[:, None, None]
    per_matrix = np.array([np.linalg.norm(m) for m in stack])
    np.testing.assert_allclose(np.linalg.norm(stack, axis=(1, 2)), per_matrix, rtol=1e-14, atol=0)
    clear = np.abs(per_matrix - limit) > 1e-13 * limit
    loop = [i for i, m in enumerate(stack) if not np.linalg.norm(m) <= limit]
    misses = _frobenius_misses(stack, bound, monkeypatch)
    assert [i for i in misses if clear[i]] == [i for i in loop if clear[i]]
    assert 50 < len(misses) < 150
