"""Round trips and canonical bytes for the file formats."""

import json
import math

import numpy as np
import pytest

from specflowlab import (
    DiagonalModel,
    cli,
    GradedOperator,
    InputError,
    MetricReport,
    SfOptions,
    metric_separation_report,
    sf_phillips,
    trig_path,
)
from specflowlab.metrics import CSV_COLUMNS
from specflowlab.serialize import (
    block_from_obj,
    block_to_obj,
    certificate_to_obj,
    dumps_json,
    graded_from_obj,
    graded_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    metrics_csv,
    model_from_obj,
    path_from_obj,
    path_to_obj,
    read_json,
    write_text,
)


def test_matrix_literal_round_trip():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    obj = matrix_to_obj(h)
    assert obj["dim"] == 4
    back = matrix_from_obj(obj)
    np.testing.assert_array_equal(back.mat, h)


def test_matrix_literal_rejects_bad_shapes():
    with pytest.raises(InputError):
        matrix_to_obj(np.zeros((2, 3)))
    with pytest.raises(InputError):
        matrix_from_obj({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"dim": 1, "re": [["a"]], "im": [[0.0]]})


def test_block_literal_rectangular_round_trip():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]) + 1j
    obj = block_to_obj(a)
    assert (obj["rows"], obj["cols"]) == (2, 3)
    np.testing.assert_array_equal(block_from_obj(obj), a)
    with pytest.raises(InputError):
        block_from_obj({"rows": 2, "re": [[0.0]], "im": [[0.0]]})


def test_sampled_path_round_trip():
    path = trig_path(5, 3)
    obj = path_to_obj(path, samples=9)
    assert obj["kind"] == "sampled" and len(obj["samples"]) == 9
    back = path_from_obj(obj)
    assert back.dim == 3
    # the snapshot agrees exactly at its own sample points
    np.testing.assert_array_equal(back.matrix(0.0).mat, path.matrix(0.0).mat)
    np.testing.assert_array_equal(back.matrix(1.0).mat, path.matrix(1.0).mat)
    np.testing.assert_array_equal(back.matrix(0.5).mat, path.matrix(0.5).mat)


@pytest.mark.parametrize("samples", [1, 0, -3, 2.0, True])
def test_sampled_path_needs_two_samples(samples):
    """Fewer than two samples would write a file the reader refuses."""
    with pytest.raises(InputError, match="samples must be an int >= 2"):
        path_to_obj(trig_path(5, 2), samples=samples)


def test_family_path_from_obj_with_matrix_params():
    a = np.diag([1.0, -2.0])
    b = np.diag([3.0, 4.0])
    obj = {
        "kind": "family",
        "dim": 2,
        "family": {
            "name": "linear_interp",
            "params": {"a": matrix_to_obj(a), "b": matrix_to_obj(b)},
        },
    }
    path = path_from_obj(obj)
    np.testing.assert_array_equal(path.matrix(0.0).mat, a.astype(complex))
    np.testing.assert_array_equal(path.matrix(1.0).mat, b.astype(complex))


def test_path_from_obj_errors():
    with pytest.raises(InputError):
        path_from_obj({"kind": "nope"})
    with pytest.raises(InputError):
        path_from_obj({"kind": "sampled", "samples": [matrix_to_obj(np.eye(2))]})
    with pytest.raises(InputError):
        path_from_obj({"kind": "family", "family": {"params": {}}})
    with pytest.raises(InputError):
        path_from_obj(
            {
                "kind": "family",
                "dim": 5,  # declared dim contradicts the family
                "family": {"name": "toeplitz_line", "params": {"m": 1}},
            }
        )


def _sampled_file(*samples) -> dict:
    return {"kind": "sampled", "samples": [
        matrix_to_obj(s) if isinstance(s, np.ndarray) else s for s in samples
    ]}


_GOOD = [np.diag([-1.0, 2.0]), np.diag([0.5, 2.0]), np.diag([1.0, 2.0])]
_ASYMMETRIC = np.array([[1.0, 0.5], [0.1, 2.0]])
_NAN = {"dim": 2, "re": [[math.nan, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
#: one faulty middle sample each
_FAULTS = {
    "asymmetric": matrix_to_obj(_ASYMMETRIC),
    "nan": _NAN,
    "dim_0": {"dim": 0, "re": [], "im": []},
    "shape": {"dim": 2, "re": [[1, 0]], "im": [[0, 0]]},
    "no_im": {"dim": 2, "re": [[1, 0], [0, 1]]},
    "not_an_object": [1, 2],
    "bool": {"dim": 2, "re": [[True, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    "overflow": {"dim": 2, "re": [[1.5e308, 1.2e308], [1.2e308, -1.5e308]],
                 "im": [[0, 0], [0, 0]]},
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_sampled_file_with_one_fault_is_refused_as_its_sample_is(fault):
    """The file takes one stacked Hermitian check, and a single faulty
    sample is refused with the text the reading of that sample alone gives."""
    with pytest.raises(InputError) as alone:
        matrix_from_obj(_FAULTS[fault])
    with pytest.raises(InputError) as err:
        path_from_obj(_sampled_file(_GOOD[0], _FAULTS[fault], _GOOD[2]))
    assert (type(err.value), str(err.value)) == (type(alone.value), str(alone.value))


def test_a_sampled_file_of_two_dims_is_refused():
    with pytest.raises(InputError, match="^sample dimensions differ$"):
        path_from_obj(_sampled_file(_GOOD[0], np.eye(3), _GOOD[2]))


@pytest.mark.parametrize("second, message", [
    (_FAULTS["shape"], r"^matrix parts must have shape \(2, 2\)"),
    (np.eye(3), "^sample dimensions differ$"),
    (_NAN, r"^matrix entries must be finite"),
])
def test_which_of_two_faulty_samples_is_refused_first(second, message):
    """Every literal is read, and the dimensions compared, before the file's
    one Hermitian check, which tests finiteness before symmetry: so a later
    sample's fault of those kinds is refused before an earlier sample's
    asymmetry (read sample by sample, the asymmetry came first)."""
    with pytest.raises(InputError, match=message):
        path_from_obj(_sampled_file(_GOOD[0], _ASYMMETRIC, second))


def test_a_sampled_file_takes_one_stacked_hermitian_check():
    """Nine samples, one check of a (9, n, n) stack, not nine one-matrix
    checks; the kept samples are the stack's rows."""
    from specflowlab.matcore import _run_stats

    obj = path_to_obj(trig_path(5, 3), samples=9)
    with _run_stats() as stats:
        path = path_from_obj(obj)
    assert stats["hermitian.copy"] + stats["hermitian.formula"] == 1
    assert stats["path.factored"] == 9 and stats["path.evaluated"] == 0
    assert path.matrix(0.5).mat.tobytes() == matrix_from_obj(obj["samples"][4]).mat.tobytes()


def test_graded_round_trip():
    g = GradedOperator(3, 2, np.arange(6.0).reshape(2, 3) + 2j)
    back = graded_from_obj(graded_to_obj(g))
    assert (back.p, back.q) == (3, 2)
    np.testing.assert_array_equal(back.block, g.block)
    with pytest.raises(InputError):
        graded_from_obj({"p": 1, "q": 1})


@pytest.mark.parametrize(("p", "q"), [(2, 0), (0, 2)])
def test_graded_round_trip_with_an_empty_block(p, q):
    """A block with no rows is written as "re": [], which has no column
    count; the reader takes its shape from "rows" and "cols"."""
    g = GradedOperator(p, q, np.zeros((q, p)))
    obj = graded_to_obj(g)
    back = graded_from_obj(json.loads(dumps_json(obj)))
    assert (back.p, back.q) == (p, q) and back.block.shape == (q, p)
    assert back.kernel_index() == p - q
    with pytest.raises(InputError, match="block parts must have shape"):
        block_from_obj({**obj["A"], "re": [[0.0]]})


def test_model_from_obj_defaults_and_lists():
    model, families, ns = model_from_obj({"N": 16, "law": "linear"})
    assert isinstance(model, DiagonalModel)
    assert model.trunc_dim == 16 and ns is None
    assert families == ["rank_one", "lambda", "fuglede", "swap"]
    _, fams, ns2 = model_from_obj(
        {"N": 8, "law": "signed", "family": "swap", "n": [2, 3]}
    )
    assert fams == ["swap"] and ns2 == [2, 3]
    with pytest.raises(InputError):
        model_from_obj([1, 2])


def test_certificate_obj_shape():
    cert = sf_phillips(trig_path(1, 4), SfOptions())
    obj = certificate_to_obj(cert)
    assert obj["method"] == "phillips"
    assert obj["total"] == cert.total
    assert len(obj["segments"]) == len(cert.segments)
    seg = obj["segments"][0]
    assert set(seg) == {
        "t_left", "t_right", "eps", "rank_left", "rank_right", "weyl_margin",
    }
    # canonical JSON round-trips through the stdlib parser unchanged
    text = dumps_json(obj)
    assert text.endswith("\n")
    assert json.loads(text) == obj
    assert dumps_json(json.loads(text)) == text


def _reference_certificate_obj(cert):
    """The certificate layout written out key by key, as the reference the
    field-driven serializer must reproduce."""
    return {
        "method": cert.method,
        "total": cert.total,
        "soundness": cert.soundness,
        "endpoint_gaps": list(cert.endpoint_gaps),
        "options": {
            "samples": cert.opts.samples,
            "oracle_samples": cert.opts.oracle_samples,
            "max_depth": cert.opts.max_depth,
            "endpoint_gap": cert.opts.endpoint_gap,
        },
        "segments": [
            {
                "t_left": seg.t_left,
                "t_right": seg.t_right,
                "eps": seg.eps,
                "rank_left": seg.rank_left,
                "rank_right": seg.rank_right,
                "weyl_margin": seg.weyl_margin,
            }
            for seg in cert.segments
        ],
    }


def _reference_metric_row(row):
    return {
        "family": row.family,
        "n": row.n,
        "d_N": row.d_N,
        "d_W": row.d_W,
        "d_R": row.d_R,
        "d_G": row.d_G,
        "res_N": row.res_N,
        "res_W": row.res_W,
        "res_R": row.res_R,
        "res_G": row.res_G,
    }


def test_certificate_layout_is_pinned():
    # a field added to SfSegment or SfOptions must fail here, not change
    # the output bytes silently
    cert = sf_phillips(trig_path(3, 5), SfOptions(samples=17))
    obj = certificate_to_obj(cert)
    assert obj == _reference_certificate_obj(cert)
    assert dumps_json(obj) == dumps_json(_reference_certificate_obj(cert))


def test_metrics_layouts_are_pinned(capsys):
    # a field added to MetricReport must fail here: the JSON rows, the CSV
    # header and the CSV cells keep the hand-written layout
    assert cli.main(["metrics", "--trunc-dim", "8", "--law", "signed"]) == 0
    rows = metric_separation_report(DiagonalModel(8, "signed"))
    assert capsys.readouterr().out == dumps_json([_reference_metric_row(r) for r in rows])
    header = "family,n,d_N,d_W,d_R,d_G,res_N,res_W,res_R,res_G"
    lines = metrics_csv(rows).splitlines()
    assert lines[0] == header
    for line, row in zip(lines[1:], rows):
        ref = _reference_metric_row(row)
        cells = [ref["family"], str(ref["n"])] + [
            "" if ref[key] is None else "%.17g" % ref[key] for key in header.split(",")[2:]
        ]
        assert line == ",".join(cells)


def test_dumps_json_canonical_bytes():
    assert dumps_json({"b": 1, "a": [1.5, 2]}) == (
        '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'
    )
    # numpy scalars and arrays coerce; other objects are refused
    out = json.loads(dumps_json({"x": np.float64(0.5), "n": np.int64(3),
                                 "f": np.bool_(True), "v": np.arange(2)}))
    assert out == {"x": 0.5, "n": 3, "f": True, "v": [0, 1]}
    with pytest.raises(TypeError):
        dumps_json({"bad": object()})


def test_read_write_round_trip(tmp_path):
    target = tmp_path / "out.json"
    write_text(str(target), dumps_json({"k": [1, 2.25]}))
    assert read_json(str(target)) == {"k": [1, 2.25]}


def test_metrics_csv_golden_cells():
    # row built from the closed forms for the linear law at n = 3:
    # d_N = 1, d_W = 1/sqrt(10), both with zero residual
    d_w = 1.0 / math.sqrt(10.0)
    row = MetricReport(
        family="rank_one", n=3, d_N=1.0, d_W=d_w, d_R=0.25, d_G=0.5,
        res_N=0.0, res_W=abs(d_w - 0.31622776601683794), res_R=None, res_G=None,
    )
    text = metrics_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "rank_one" and cells[1] == "3"
    assert cells[2] == "1"
    assert cells[3] == "%.17g" % d_w == "0.31622776601683794"
    assert cells[8] == "" and cells[9] == ""  # no closed form -> empty cell
    assert float(cells[3]) == d_w  # %.17g loses nothing
