"""The diagonal routes give the bits of the routes they bypass.

Six kinds of work are decided by structure: on a stack of real diagonal
matrices, the Hermitian check (``_valid_diagonals``), a path's samples,
held as their diagonals (``_valid_diagonals`` in ``OperatorPath._sample``),
the nonnegative projections of sf_pairsum's junctions
(``_diagonal_nonneg_projections``), the eigenvalues of the projection check
and of the pair index (``_stack_eigvalsh``) and the distances between the
metric report's operand records (``metrics._Operand``); on a stack of
complex diagonal matrices, the operator norm (``_op_norms``, by
``_route_norms``). Each test runs a corpus through the library, then again
with the route's guard patched off, and compares the bytes, the ranks, and
the class and text of what is raised."""

import warnings

import numpy as np
import pytest

from specflowlab import matcore, metrics, paths, projpair, specflow
from specflowlab.generators import family_path
from specflowlab.matcore import HermitianMatrix, Projection
from specflowlab.metrics import metric_separation_report
from specflowlab.opmodel import DiagonalModel
from specflowlab.projpair import pair_index
from specflowlab.serialize import path_from_obj
from specflowlab.specflow import (
    OperatorPath,
    certify_invertible,
    path_reverse,
    piecewise_affine,
    sf_all_methods,
)

from test_matcore import _diagonal_stack
from test_specflow import _diagonal_concat, _diagonal_samples

HALF = np.finfo(np.float64).max / 2.0


def _outcome(call, *args):
    """Bytes and read-only flags of every array ``call`` returns, its other
    values, or the class and text of what it raised."""
    try:
        out = call(*args)
    except Exception as exc:  # the class and the text are compared
        return type(exc), str(exc)
    items = out if isinstance(out, (tuple, list)) else (out,)
    return [
        (x.tobytes(), x.shape, x.flags.writeable) if isinstance(x, np.ndarray) else x
        for x in items
    ]


def _diagonals(rng):
    """(name, (k, n) diagonals): ties, zeros, each sign pattern, scales
    across the float range, and the unscaled range of zheevd's ends."""
    lo, hi = matcore._UNSCALED_MIN, matcore._UNSCALED_MAX
    out = {
        "ties": [[1.0, -1.0, 2.5, 2.5, 1.0, 0.0, 0.0, -1.0]],
        "zeros": np.zeros((3, 5)),
        "positive": rng.uniform(0.1, 4.0, size=(2, 7)),
        "negative": -rng.uniform(0.1, 4.0, size=(2, 7)),
        "one": [[0.0], [-2.0], [3.0]],
        "half_integers": np.arange(-6, 7)[None] + 0.5,
        "scale_1e200": rng.normal(size=(2, 6)) * 1e200,
        "scale_1e-200": rng.normal(size=(2, 6)) * 1e-200,
        "range_ends": [[lo, -hi, 0.0], [hi, np.nextafter(hi, np.inf), -lo]],
        "below_range": [[np.nextafter(lo, 0.0), -lo / 4.0, 0.0]],
        "tiny_negative_beside_huge": [[-1e-300, 1e200, 3.0, 0.0]],
        "half_max": [[HALF, -HALF, 1.0]],
        "past_half_max": [[np.nextafter(HALF, np.inf), 1.0]],
    }
    for j in range(40):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        out[f"integers_{j}"] = rng.integers(-3, 4, size=(k, n)).astype(np.float64)
        out[f"normal_{j}"] = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-8, 8)
    return {name: np.asarray(d, dtype=np.float64) for name, d in out.items()}


def _average_corpus():
    rng = np.random.default_rng(2501)
    cases = {name: _diagonal_stack(d) for name, d in _diagonals(rng).items()}
    base = _diagonal_stack([[1.0, -2.0, 0.0, 3.0], [0.0, 0.5, -0.5, 2.0]])

    def edited(**entries):
        a = base.copy()
        for where, value in entries.items():
            i, r, c, part = where.split("_")
            view = a.real if part == "re" else a.imag
            view[int(i), int(r), int(c)] = value
        return a

    cases.update(
        neg_zero_diagonal=edited(**{"0_2_2_re": -0.0}),
        neg_zero_off_diagonal=edited(**{"1_0_3_re": -0.0, "1_3_0_re": -0.0}),
        neg_zero_off_diagonal_imag=edited(**{"0_1_2_im": -0.0, "0_2_1_im": 0.0}),
        neg_zero_diagonal_imag=edited(**{"1_1_1_im": -0.0}),
        nan_diagonal=edited(**{"1_3_3_re": np.nan}),
        inf_diagonal=edited(**{"0_0_0_re": -np.inf}),
        nan_off_diagonal=edited(**{"0_3_1_re": np.nan}),
        inf_off_diagonal=edited(**{"1_0_2_im": np.inf, "1_2_0_im": -np.inf}),
        nan_bottom_left=edited(**{"0_3_0_re": np.nan}),
        imaginary_diagonal=edited(**{"0_1_1_im": 1e-3}),
        tiny_off_diagonal=edited(**{"1_2_1_re": 1e-300, "1_1_2_re": 1e-300}),
        asymmetric_off_diagonal=edited(**{"1_2_1_re": 1.0}),
        hermitian_off_diagonal=edited(**{"0_0_1_im": 2.0, "0_1_0_im": -2.0}),
        past_half_max_off_diagonal=edited(
            **{"0_0_1_re": np.nextafter(HALF, np.inf), "0_1_0_re": np.nextafter(HALF, np.inf)}
        ),
        non_square=np.zeros((2, 3, 4), dtype=np.complex128),
        non_square_diagonal=_diagonal_stack([[1.0, 2.0, 3.0]])[:, :, :2].copy(),
        empty_stack=np.zeros((0, 3, 3), dtype=np.complex128),
        empty_matrices=np.zeros((2, 0, 0), dtype=np.complex128),
    )
    big = _diagonal_stack(np.arange(24.0).reshape(4, 6) - 11.0)
    cases["strided_entries"] = big[:, ::2, ::2]
    cases["strided_stack"] = big[::2]
    cases["fortran_order"] = np.asfortranarray(big)
    cases["transposed"] = big.swapaxes(1, 2)
    return cases


def test_diagonal_copy_gives_the_general_routes_bits(monkeypatch):
    cases = _average_corpus()
    fast, general = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, a in cases.items():
            fast[name] = _outcome(matcore._hermitian_stack, a)
        with monkeypatch.context() as m:
            m.setattr(matcore, "_valid_diagonals", lambda _a: None)
            for name, a in cases.items():
                general[name] = _outcome(matcore._hermitian_stack, a)
    for name in cases:
        assert fast[name] == general[name], name
    # chunked: each matrix of a validated stack has the bits it gets alone
    for name, a in cases.items():
        if isinstance(fast[name], list) and len(a):
            rows = [_outcome(matcore._hermitian_stack, a[i : i + 1]) for i in range(len(a))]
            assert [r[0][0] for r in rows] == [
                row.tobytes() for row in matcore._hermitian_stack(a)
            ], name
    taken = {name: matcore._valid_diagonals(a) is not None for name, a in cases.items()}
    for name in (
        "ties", "zeros", "negative", "one", "half_integers", "scale_1e200", "scale_1e-200",
        "range_ends", "half_max",
    ):
        assert taken[name], name
    for name in (
        "neg_zero_diagonal", "neg_zero_off_diagonal", "neg_zero_off_diagonal_imag",
        "neg_zero_diagonal_imag",
        "nan_diagonal", "inf_diagonal", "nan_off_diagonal", "inf_off_diagonal",
        "nan_bottom_left", "imaginary_diagonal", "tiny_off_diagonal", "past_half_max",
        "non_square", "non_square_diagonal", "empty_stack", "empty_matrices",
        "strided_entries", "strided_stack", "fortran_order", "transposed",
    ):
        assert not taken[name], name
    assert fast["past_half_max"][0] is matcore.FinitenessError
    assert fast["nan_diagonal"][0] is matcore.FinitenessError
    assert fast["asymmetric_off_diagonal"][0] is matcore.HermiticityError


def _projection_corpus():
    """(name, chunk of validated matrices) for ``_nonneg_projections``."""
    rng = np.random.default_rng(2502)
    chunks = {}
    for name, d in _diagonals(rng).items():
        try:
            chunks[name] = [HermitianMatrix(m) for m in _diagonal_stack(d)]
        except matcore.InputError:
            continue  # past half the float range: no such matrix validates
    raw = {
        # rows given as they are, without the Hermitian check
        "neg_zero_diagonal": [[1.0, -0.0, -2.0]],
        "neg_zero_off_diagonal": [[1.0, 0.0, -2.0]],
        "nan_diagonal": [[1.0, np.nan, -2.0]],
        "inf_diagonal": [[np.inf, 0.0, -2.0]],
    }
    for name, d in raw.items():
        s = _diagonal_stack(d)
        if name == "neg_zero_off_diagonal":
            s[0, 0, 2] = s[0, 2, 0] = -0.0
        chunks[name] = [HermitianMatrix._of_valid(m) for m in s]
    dense = np.random.default_rng(7).normal(size=(3, 3))
    chunks["mixed_chunk"] = [
        HermitianMatrix(np.diag([1.0, -1.0, 0.0])),
        HermitianMatrix(dense + dense.T),
    ]
    return chunks


def test_diagonal_junction_projections_give_the_eigh_routes_bits(monkeypatch):
    chunks = _projection_corpus()

    def fresh(name):
        return [HermitianMatrix._of_valid(m.mat) for m in chunks[name]]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LAPACK on NaN and Inf
        fast = {name: _outcome(matcore._nonneg_projections, fresh(name)) for name in chunks}
        taken = {
            name: matcore._diagonal_nonneg_projections(np.stack([m.mat for m in chunks[name]]))
            is not None
            for name in chunks
        }
        with monkeypatch.context() as m:
            m.setattr(matcore, "_diagonal_nonneg_projections", lambda _s: None)
            general = {
                name: _outcome(matcore._nonneg_projections, fresh(name)) for name in chunks
            }
    for name in chunks:
        assert fast[name] == general[name], name
    # chunked: each matrix of a chunk gets the bits and the rank it gets alone
    for name, out in fast.items():
        if isinstance(out, list):
            alone = [matcore._nonneg_projections([m]) for m in fresh(name)]
            assert b"".join(p.tobytes() for p, _ in alone) == out[0][0], name
            assert [r for _, (r,) in alone] == out[1], name
    for name in ("ties", "zeros", "positive", "negative", "one", "scale_1e-200", "below_range"):
        assert taken[name], name
    assert sum(taken.values()) >= 80
    for name in (
        "scale_1e200", "range_ends", "tiny_negative_beside_huge", "neg_zero_diagonal",
        "neg_zero_off_diagonal", "nan_diagonal", "inf_diagonal", "mixed_chunk",
    ):
        assert not taken[name], name
    # scaled down by zheevd, the tiny negative entry becomes an eigenvalue of
    # -0.0, which the eigh route counts: diag(d >= 0) would not
    p, ranks = matcore._nonneg_projections(fresh("tiny_negative_beside_huge"))
    assert ranks == [4] and p[0].diagonal().real.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_diagonal_route_caches_no_decomposition():
    h = HermitianMatrix(np.diag([2.0, -1.0, 2.0, 0.0]))
    p, ranks = matcore._nonneg_projections([h])
    assert h._eig is None and ranks == [3]
    dense = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    matcore._nonneg_projections([dense])
    assert dense._eig is not None


def test_diagonal_routes_send_other_layouts_to_the_general_route():
    """An empty stack once raised IndexError in ``_stack_eigvalsh`` and
    ``_diagonal_nonneg_projections``, and a Fortran-ordered or strided stack
    of real diagonal matrices numpy's "last axis must be contiguous";
    ``_real_diagonals`` now sends them to LAPACK's eigenvalues and to the
    decomposition's projections."""
    s = _diagonal_stack([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    wide = np.zeros((2, 6, 6), dtype=np.complex128)
    wide[:, ::2, ::2] = s
    cases = {
        "empty": np.zeros((0, 3, 3), dtype=np.complex128),
        "fortran": np.asfortranarray(s),
        "strided": wide[:, ::2, ::2],
    }
    for name, a in cases.items():
        assert matcore._diagonal_nonneg_projections(a) is None, name
        got, want = matcore._stack_eigvalsh(a), np.linalg.eigvalsh(a)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name


def _lapack_eigvalsh(monkeypatch):
    """Send every stacked eigvalsh to LAPACK."""
    for module in (matcore, projpair, paths):
        monkeypatch.setattr(module, "_stack_eigvalsh", np.linalg.eigvalsh)


def _projection_inputs():
    rng = np.random.default_rng(2503)
    q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    cases = {
        "diagonal": _diagonal_stack([[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]]),
        "near": _diagonal_stack([[1.0 + 1e-11, 1e-11, 0.0]]),
        "off_by_2e-9": _diagonal_stack([[1.0, 1.0 + 2e-9, 0.0]]),
        "half": _diagonal_stack([[1.0, 0.5, 0.0]]),
        "neg_zero": _diagonal_stack([[1.0, -0.0, 0.0]]),
        "dense": (q[:, :2] @ q[:, :2].conj().T)[None],
        "chunk": np.concatenate(
            [_diagonal_stack([[0, 1, 1, 0, 1]]), (q[:, :3] @ q[:, :3].conj().T)[None]]
        ),
    }
    for j in range(30):
        n = int(rng.integers(1, 30))
        cases[f"random_{j}"] = _diagonal_stack(rng.integers(0, 2, size=(3, n)))
    return cases


def test_projection_and_pair_checks_give_the_lapack_bits(monkeypatch):
    cases = _projection_inputs()
    fast = {name: _outcome(matcore._projection_stack, a) for name, a in cases.items()}
    # the differences of consecutive checked projections with their rank
    # differences, and once with rank differences of 0, which disagree with
    # the eigenvalue count wherever the ranks differ
    pairs = {}
    for name, a in cases.items():
        if len(a) > 1 and isinstance(fast[name], list):
            s, ranks = matcore._projection_stack(a)
            diffs = np.ascontiguousarray(s[1:] - s[:-1])
            pairs[name] = (diffs, [r - q for q, r in zip(ranks, ranks[1:])])
            pairs[name + "_wrong_ranks"] = (diffs, [0] * len(diffs))

    def count(stacks):
        return {name: _outcome(projpair._pair_indices, *args) for name, args in stacks.items()}

    fast_pairs = count(pairs)
    with monkeypatch.context() as m:
        _lapack_eigvalsh(m)
        general = {name: _outcome(matcore._projection_stack, a) for name, a in cases.items()}
        general_pairs = count(pairs)
    assert fast == general
    assert fast_pairs == general_pairs
    assert fast["off_by_2e-9"][0] is matcore.InputError
    assert "idempotent" in fast["off_by_2e-9"][1]
    assert fast["half"][0] is matcore.InputError and "idempotent" in fast["half"][1]
    assert fast["diagonal"][1] == [3, 0, 5]
    assert [r.value for r in fast_pairs["diagonal"]] == [-3, 5]
    assert fast_pairs["diagonal_wrong_ranks"][0] is matcore.ConsistencyFault


LAPACK = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "inv", "pinv", "solve",
    "lstsq", "det", "slogdet", "qr", "cholesky", "matrix_rank",
)


def _count_lapack(monkeypatch):
    """Wrap numpy.linalg's LAPACK routines, and its norm where it takes
    singular values; returns the list of the names called."""
    calls = []

    def counted(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return call

    for name in LAPACK:
        if hasattr(np.linalg, name):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc"):
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


def test_diagonal_projections_and_pair_indices_call_no_lapack(monkeypatch):
    calls = _count_lapack(monkeypatch)
    p = Projection(np.diag([1.0, 0.0, 1.0, 1.0]))
    q = Projection(np.diag([0.0, 0.0, 1.0, 1.0]))
    assert (p.rank, q.rank) == (3, 2)
    assert pair_index(p, q).value == 1 and pair_index(q, p).value == -1
    assert calls == []
    # a dense projection still goes to LAPACK, which the wrapper counts
    Projection(np.full((2, 2), 0.5))
    assert calls == ["eigvalsh"]


@pytest.mark.parametrize("name, params", [
    ("fuglede_line", {"N": 16, "n": 5}),
    ("fuglede_line", {"N": 8, "n": 3, "law": "signed"}),
    ("toeplitz_line", {"m": 3}),
    ("toeplitz_line", {"m": 9, "power": 2}),
])
def test_diagonal_lines_certify_as_the_lapack_routes(name, params, monkeypatch):
    """sf_all_methods on diagonal lines: the same certificates and oracle
    report with every diagonal route patched off, and no LAPACK
    factorization of a junction with them on."""
    fast = sf_all_methods(family_path(name, params))
    calls = _count_lapack(monkeypatch)
    again = sf_all_methods(family_path(name, params))
    assert "eigh" not in calls and "eigvalsh" not in calls
    with monkeypatch.context() as m:
        m.setattr(matcore, "_valid_diagonals", lambda _a: None)
        m.setattr(matcore, "_diagonal_nonneg_projections", lambda _s: None)
        _lapack_eigvalsh(m)
        general = sf_all_methods(family_path(name, params))
    assert repr(fast) == repr(again) == repr(general)


def _diagonal_evaluator(entries, dim=3):
    """A path of dimension ``dim`` whose evaluator returns diag(entries(t))
    at each t, with the declared rate 4."""
    return OperatorPath(
        lambda ts: _diagonal_stack([entries(t) for t in ts.tolist()]),
        dim,
        regularity=piecewise_affine((), [4.0]),
    )


def _entry_at(at, value):
    """The diagonal t -> (t - 0.3, 1, 2) with ``value`` in place of 1 at
    t = ``at``."""
    return lambda t: [t - 0.3, value if t == at else 1.0, 2.0]


def _diagonal_path_corpus():
    """(name, factory) of paths whose samples are real diagonal stacks:
    the diagonal families across their chunk lengths, a sampled path,
    composites of diagonal lines, the line whose ends hold -0.0 entries,
    and evaluators that meet each refusal of the Hermitian check and of
    the evaluator contract."""
    lines = {f"fuglede_{n}": ("fuglede_line", {"N": n, "n": n // 3}) for n in (8, 64, 128)}
    lines.update({f"toeplitz_{m}": ("toeplitz_line", {"m": m}) for m in (1, 3, 24)})
    lines["toeplitz_power_2"] = ("toeplitz_line", {"m": 5, "power": 2})
    corpus = {name: (lambda f=f, p=p: family_path(f, p)) for name, (f, p) in lines.items()}
    negzero = {
        "kind": "family",
        "family": {"name": "linear_interp", "params": {
            "a": {"dim": 3, "re": [[-1, -0.0, 0], [-0.0, 2, 0], [0, 0, 3]],
                  "im": [[0, -0.0, 0], [-0.0, -0.0, 0], [0, 0, 0]]},
            "b": {"dim": 3, "re": [[1, -0.0, 0], [-0.0, 2, 0], [0, 0, 3]],
                  "im": [[0, -0.0, 0], [-0.0, 0, 0], [0, 0, 0]]},
        }},
    }
    corpus.update(
        from_samples=lambda: OperatorPath.from_samples(_diagonal_samples(5)),
        concat=lambda: _diagonal_concat(5),
        reverse=lambda: path_reverse(family_path("fuglede_line", {"N": 16, "n": 5})),
        reverse_of_concat=lambda: path_reverse(_diagonal_concat(4)),
        negzero_line=lambda: path_from_obj(negzero),
        neg_zero_inside=lambda: _diagonal_evaluator(_entry_at(0.5, -0.0)),
        nan_inside=lambda: _diagonal_evaluator(_entry_at(0.5, np.nan)),
        past_half_max=lambda: _diagonal_evaluator(_entry_at(0.75, 1e308)),
        singular_end=lambda: _diagonal_evaluator(lambda t: [t, 1.0, -2.0]),
        wrong_dim=lambda: _diagonal_evaluator(lambda t: [t - 0.3, 1.0, 2.0, 3.0]),
        wrong_count=lambda: OperatorPath(
            lambda ts: _diagonal_stack([[t - 0.3, 1.0] for t in ts.tolist() + [0.0]]),
            2,
            regularity=piecewise_affine((), [1.0]),
        ),
    )
    return corpus


def _path_outcome(make):
    """What the library gives on a diagonal path: a fresh path's ``stack``
    and ``matrices`` on a grid, then on one path the flow and the
    invertibility certificate, the points it keeps and those whose
    eigenvalues it holds, the ``stack`` and ``matrices`` of its kept points
    and a refused parameter."""
    grid = np.linspace(0.0, 1.0, 9)
    out = [
        _outcome(make().stack, grid),
        _outcome(lambda: [m.mat for m in make().matrices(grid)]),
    ]
    path = make()
    out.append(_outcome(lambda: repr(sf_all_methods(path))))
    out.append(_outcome(lambda: repr(certify_invertible(path))))
    kept = sorted(path._mats)
    out += [kept, sorted(path._vals)]
    out.append(_outcome(path.stack, np.array(kept + grid.tolist())))
    out.append(_outcome(lambda: [m.mat for m in path.matrices(kept)]))
    out.append(_outcome(path.matrices, [1.5]))
    return out


def _run_paths(corpus, guard, monkeypatch):
    """The outcomes of the corpus with ``guard`` as ``_valid_diagonals``,
    and, per path, whether it took any chunk."""
    outcomes, taken = {}, {}
    for name, make in corpus.items():
        hits = []

        def spy(a):
            d = guard(a)
            hits.append(d is not None)
            return d

        with monkeypatch.context() as m:
            for module in (matcore, paths):
                m.setattr(module, "_valid_diagonals", spy)
            outcomes[name] = _path_outcome(make)
        taken[name] = any(hits)
    return outcomes, taken


def test_diagonal_paths_give_the_dense_routes_bits(monkeypatch):
    """A path whose chunks are held as their diagonals gives, with the
    guard patched off (every chunk validated and kept dense), the same
    flows, certificates, refusals, kept points, matrices with their
    read-only flags, and stacks."""
    corpus = _diagonal_path_corpus()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LAPACK on NaN
        fast, taken = _run_paths(corpus, matcore._valid_diagonals, monkeypatch)
        general, _ = _run_paths(corpus, lambda _a: None, monkeypatch)
    for name in corpus:
        assert fast[name] == general[name], name
    assert all(taken.values()), taken
    flows = {name: out[2] for name, out in fast.items()}
    assert flows["neg_zero_inside"][0].startswith("{'value': 1,")
    assert flows["nan_inside"][0] is matcore.FinitenessError
    assert "overflows" in flows["past_half_max"][1]
    assert flows["singular_end"][0] is specflow.EndpointError
    assert flows["wrong_dim"][0] is matcore.DimensionMismatchError
    assert "returned 10 matrices for 9 points" in fast["wrong_count"][0][1]
    for name in ("fuglede_128", "toeplitz_24", "from_samples", "concat", "reverse_of_concat"):
        assert flows[name][0].startswith("{'value': "), name


def _complex_diagonal_stack(d):
    d = np.asarray(d, dtype=np.complex128)
    k, n = d.shape
    s = np.zeros((k, n, n), dtype=np.complex128)
    s[:, np.arange(n), np.arange(n)] = d
    return s


def _norm_corpus():
    """(name, stack) for ``_op_norms``: the diagonals corpus as real and as
    complex diagonals, signed zeros off the diagonal, zero matrices, the
    ends of zgesdd's unscaled range, and the dimensions around 2 and 128."""
    rng = np.random.default_rng(2504)
    cases = {}
    for name, d in _diagonals(rng).items():
        phase = np.exp(2j * np.pi * rng.uniform(size=d.shape))
        cases[name] = _diagonal_stack(d)
        cases[name + "_complex"] = _complex_diagonal_stack(d * phase)
    lo, hi = matcore._SVD_UNSCALED_MIN, matcore._SVD_UNSCALED_MAX
    ends = {
        "svd_range_ends": [[lo, 0.5, -1.0], [0.0, -hi, 2.0]],
        "below_svd_range": [[np.nextafter(lo, 0.0), lo / 8.0, 0.0]],
        "above_svd_range": [[np.nextafter(hi, np.inf), 1.0, 0.0]],
        "zheevd_below_svd_range": [[matcore._UNSCALED_MIN, 0.0, 0.0]],
        "zeros_beside_range_end": [[0.0, 0.0, 0.0], [lo, 0.0, 0.0]],
    }
    for name, d in ends.items():
        cases[name] = _diagonal_stack(d)
        cases[name + "_complex"] = _complex_diagonal_stack(np.asarray(d) * (0.6 + 0.8j))
    for n in (1, 2, 3, 127, 128, 129, 256):
        d = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        cases[f"dim_{n}"] = _complex_diagonal_stack(d)
        cases[f"dim_{n}_zero"] = np.zeros((1, n, n), dtype=np.complex128)
    signed = _complex_diagonal_stack(rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    signed.real[:, 0, 4] = -0.0
    signed.imag[:, 4, 0] = -0.0
    signed.imag[1, 2, 3] = -0.0
    cases["neg_zero_off_diagonal"] = signed
    nonzero = signed.copy()
    nonzero[1, 3, 1] = 1e-300
    cases["tiny_off_diagonal"] = nonzero
    cases["dense"] = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    cases["dense_bottom_left_zero"] = cases["dense"].copy()
    cases["dense_bottom_left_zero"][:, 3, 0] = 0.0
    cases["strided"] = _diagonal_stack(rng.normal(size=(4, 6)))[::2, ::2, ::2]
    cases["one_matrix"] = _diagonal_stack([[3.0, -4.0, 1.0]])[0]
    cases["nan_diagonal"] = _diagonal_stack([[1.0, np.nan, 2.0]])
    return cases


def test_diagonal_norms_give_the_svd_bits(monkeypatch):
    cases = _norm_corpus()
    fast = {name: _outcome(matcore._op_norms, a) for name, a in cases.items()}
    with monkeypatch.context() as m:
        m.setattr(matcore, "_route_norms", lambda _d: None)
        general = {name: _outcome(matcore._op_norms, a) for name, a in cases.items()}
    for name in cases:
        assert fast[name] == general[name], name
    # the record's norms of diagonals, given as (k, n) diagonals
    for name, a in cases.items():
        if a.ndim == 3 and a.shape[1] and isinstance(fast[name], list):
            d = np.ascontiguousarray(a.diagonal(axis1=1, axis2=2))
            if np.count_nonzero(a) == np.count_nonzero(d):
                assert _outcome(matcore._diagonal_op_norms, d) == fast[name], name
    taken = {
        name: a.ndim == 3 and matcore._route_norms(a.diagonal(axis1=1, axis2=2)) is not None
        for name, a in cases.items()
    }
    for name in (
        "ties", "zeros_complex", "positive", "negative_complex", "half_integers",
        "svd_range_ends", "svd_range_ends_complex", "zeros_beside_range_end", "dim_3",
        "dim_128", "dim_256_zero",
    ):
        assert taken[name], name
    for name in (
        "one", "range_ends", "scale_1e200_complex", "scale_1e-200", "half_max",
        "below_svd_range_complex", "above_svd_range",
        "zheevd_below_svd_range", "dim_1", "dim_2", "dim_2_zero",
    ):
        assert not taken[name], name
    assert sum(taken.values()) >= 120
    assert fast["nan_diagonal"][0] is matcore.FinitenessError


def test_dimension_two_stays_on_the_svd():
    """zgesdd's 2 x 2 singular values come from dlas2, which rounds: here
    the norm of diag(10.43, 7.58) is not max |d|, and the library gives the
    SVD's value; at n = 3 the route and the SVD agree."""
    d = np.array([[10.43, 7.58]])
    assert np.linalg.norm(_diagonal_stack(d)[0], 2) == 10.429999999999998
    assert matcore._diagonal_norms(d).tolist() == [10.43]
    assert matcore._op_norms(_diagonal_stack(d)).tolist() == [10.429999999999998]
    assert matcore._diagonal_op_norms(d).tolist() == [10.429999999999998]
    three = _diagonal_stack([[10.43, 7.58, 0.0]])
    assert matcore._op_norms(three).tolist() == [10.43] == np.linalg.norm(three, 2, axis=(1, 2)).tolist()


def _report(model, *args):
    return repr(metric_separation_report(model, *args))


@pytest.mark.parametrize("law", ["linear", "signed", "shifted"])
def test_metric_report_gives_the_svd_bits(law, monkeypatch):
    """The separation table with diagonal operand records and the norm
    route, then with both patched off; trunc-dim 3 is the first dimension
    of the route, and at 8, 32 and 64 diagonal chunks sit beside chunks
    with swap rows."""
    cases = [(DiagonalModel(n, law),) for n in (3, 8, 32, 64)]
    cases.append((DiagonalModel(40, law), ["swap", "lambda", "fuglede"], [7, 2, 39, 1, 13]))
    cases.append((DiagonalModel(64, law), ["rank_one", "lambda", "fuglede"], [1, 2, 31, 63]))
    fast = [_report(*args) for args in cases]
    with monkeypatch.context() as m:
        m.setattr(metrics, "_unscaled_real_diagonals", lambda _s: None)
        m.setattr(matcore, "_route_norms", lambda _d: None)
        general = [_report(*args) for args in cases]
    assert fast == general


def test_diagonal_records_take_no_decomposition(monkeypatch):
    """Rows of the three diagonal families and the base make no eigh and
    no SVD; only the resolvent keeps its inverse."""
    calls = _count_lapack(monkeypatch)
    model = DiagonalModel(16, "signed")
    rows = metric_separation_report(model, ["rank_one", "lambda", "fuglede"])
    assert len(rows) == 45
    assert set(calls) == {"inv"}
