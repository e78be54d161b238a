"""In-process exercises of the command-line front end: formats, exit
codes, and byte-determinism of the emitted files."""

import json
import sys

import numpy as np
import pytest

from specflowlab import ConsistencyFault, cli
from specflowlab.metrics import dual_gap_watermark, reset_dual_gap_watermark
from specflowlab.serialize import dumps_json, graded_to_obj, matrix_to_obj
from specflowlab.graded import GradedOperator


def write_json(path, obj):
    path.write_text(dumps_json(obj), encoding="utf-8")
    return str(path)


def diag_path_obj(*diags):
    """Sampled path literal through the given diagonal snapshots."""
    return {
        "kind": "sampled",
        "dim": len(diags[0]),
        "samples": [matrix_to_obj(np.diag(list(map(float, d)))) for d in diags],
    }


@pytest.fixture
def crossing_file(tmp_path):
    # one eigenvalue flows up through zero, the other stays put
    return write_json(
        tmp_path / "path.json",
        diag_path_obj([-1.0, 2.0], [-0.25, 2.0], [0.5, 2.0], [1.0, 2.0]),
    )


def test_compute_exit_0_and_payload(crossing_file, tmp_path, capsys):
    out = tmp_path / "flow.json"
    assert cli.main(["compute", "--input", crossing_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == 1
    assert set(payload["methods"]) == {
        "phillips", "pairsum", "endpoints", "crossing_oracle",
    }
    assert set(payload["methods"].values()) == {1}
    assert payload["certificate"]["total"] == 1
    # without --out the same text goes to stdout
    assert cli.main(["compute", "--input", crossing_file]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_report_includes_ledger(crossing_file, capsys):
    assert cli.main(["report", "--input", crossing_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    ledger = payload["crossing_ledger"]
    assert ledger["up_crossings"] == 1 and ledger["down_crossings"] == 0
    assert payload["invertibility"]["certified"] is False  # it does cross zero


def test_missing_and_malformed_input_exit_1(tmp_path, capsys):
    assert cli.main(["compute"]) == 1
    assert "needs --input" in capsys.readouterr().err
    assert cli.main(["compute", "--input", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["compute", "--input", str(bad)]) == 1
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["compute", "--input", str(notdict)]) == 1


def test_usage_error_exit_1(crossing_file, capsys):
    # a flag only another subcommand reads, with a good and a bad value,
    # and an unknown flag: input errors, not argparse's exit 2
    for argv in (
        ["compute", "--input", crossing_file, "--tol", "1e-6"],
        ["metrics", "--samples", "x"],
        ["report", "--input", crossing_file, "--no-such-flag"],
    ):
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["graded", "--help"])
    assert done.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_singular_endpoint_exit_1(tmp_path, capsys):
    f = write_json(
        tmp_path / "sing.json", diag_path_obj([0.0, 1.0], [1.0, 1.0])
    )
    assert cli.main(["compute", "--input", f]) == 1
    assert "error:" in capsys.readouterr().err


def test_depth_exhaustion_exit_2(tmp_path, capsys):
    zigzag = [[1.0] if k % 2 == 0 else [-1.0] for k in range(41)]
    f = write_json(tmp_path / "zig.json", diag_path_obj(*zigzag))
    assert cli.main(["compute", "--input", f, "--max-depth", "2"]) == 2
    err = capsys.readouterr().err
    assert "certification failed" in err and "window" in err
    # the same data certifies once the depth cap is lifted
    assert cli.main(["compute", "--input", f]) == 0


def test_consistency_fault_exit_3(crossing_file, monkeypatch, capsys):
    def boom(path, opts):
        raise ConsistencyFault("methods disagree: {...}")

    monkeypatch.setattr(cli, "sf_all_methods", boom)
    assert cli.main(["compute", "--input", crossing_file]) == 3
    assert "internal cross-check failed" in capsys.readouterr().err


def test_csv_rejected_outside_metrics(crossing_file, capsys):
    assert cli.main(["compute", "--input", crossing_file, "--format", "csv"]) == 1
    assert "metrics" in capsys.readouterr().err


def test_metrics_csv_and_model_file(tmp_path, capsys):
    model = write_json(
        tmp_path / "model.json",
        {"N": 8, "law": "linear", "family": "rank_one", "n": [1, 2, 3]},
    )
    assert cli.main(["metrics", "--input", model, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("family,n,d_N")
    assert len(lines) == 4
    assert lines[1].split(",")[2] == "1"  # d_N = 1 for every rank_one row


def test_metrics_byte_identical_across_threads(tmp_path, monkeypatch):
    model = write_json(
        tmp_path / "model.json", {"N": 12, "family": ["rank_one", "swap"]}
    )
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        target = tmp_path / f"{name}.csv"
        monkeypatch.setenv("SPECFLOW_THREADS", threads)
        code = cli.main(
            ["metrics", "--input", model, "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_non_integer_thread_count_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("SPECFLOW_THREADS", "two")
    assert cli.main(["metrics", "--trunc-dim", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SPECFLOW_THREADS" in err


def test_dual_gap_watermark_of_a_threaded_table(monkeypatch, capsys):
    """Rows on more threads than cores, switching often, keep the maximum."""
    marks = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "4"):
            monkeypatch.setenv("SPECFLOW_THREADS", threads)
            reset_dual_gap_watermark()
            assert cli.main(["metrics", "--trunc-dim", "24"]) == 0
            marks.append(dual_gap_watermark())
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert marks[0] == marks[1]


def test_toeplitz_command(capsys):
    assert cli.main(["toeplitz", "--m-max", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["m"] for r in reports] == [1, 2]
    assert all(r["equal"] and r["cancellation"] for r in reports)


def test_graded_command(tmp_path, capsys):
    g = GradedOperator(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    f = write_json(tmp_path / "g.json", graded_to_obj(g))
    assert cli.main(["graded", "--input", f, "--trials", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_index"] == 1
    assert payload["window_dim"] == 1
    assert payload["stability"]["ok"]
    assert payload["cancellation"]["ok"]


def test_axioms_command_small(capsys):
    assert cli.main(["axioms", "--trials", "2", "--seed", "9"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 16
    assert all(r["ok"] for r in reports)
