"""In-process exercises of the command-line front end: formats, exit
codes, and byte-determinism of the emitted files."""

import json
import tracemalloc

import numpy as np
import pytest

from specflowlab import ConsistencyFault, cli, graded
from specflowlab.axioms import run_all_checks
from specflowlab.serialize import dumps_json, graded_to_obj, matrix_to_obj
from specflowlab.graded import GradedOperator
from specflowlab.specflow import SfOptions


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


_ONE = {"dim": 1, "re": [[1.0]], "im": [[0.0]]}
_TWO = matrix_to_obj(np.diag([1.0, 2.0]))
_BLOCK = {"rows": 1, "cols": 1, "re": [[1.0]], "im": [[0.0]]}


@pytest.mark.parametrize(
    "command, obj",
    [
        ("compute", {"kind": "sampled", "dim": "abc", "samples": [_ONE, _ONE]}),
        ("compute", {"kind": "sampled", "dim": 1e400, "samples": [_ONE, _ONE]}),
        ("compute", {"kind": "sampled", "samples": [dict(_ONE, dim="x"), _ONE]}),
        (
            "compute",
            {"kind": "family", "dim": 2, "family": {"name": "trig_random", "seed": "x"}},
        ),
        (
            "compute",
            {"kind": "family", "family": {"name": "toeplitz_line", "params": {"m": "big"}}},
        ),
        (
            "compute",
            {"kind": "family", "family": {"name": "fuglede_line", "params": {"n": "z"}}},
        ),
        (
            "compute",
            {"kind": "family", "family": {"name": "toeplitz_line", "params": [1, 2]}},
        ),
        ("compute", {"kind": "family", "family": {"name": ["x"]}}),
        ("metrics", {"N": "x"}),
        ("metrics", {"N": 8, "n": "q"}),
        ("metrics", {"N": 8, "family": 5}),
        ("metrics", {"N": 8, "law": ["x"]}),
        ("graded", {"p": "a", "q": 1, "A": _BLOCK}),
        ("graded", {"p": 1, "q": 1, "A": dict(_BLOCK, rows="r")}),
        (
            "compute",
            {"kind": "family", "family": {"name": "linear_interp", "params": {"a": _ONE, "b": "x"}}},
        ),
        ("compute", {"kind": "sampled", "dim": 2.9, "samples": [_TWO, _TWO]}),
        (
            "compute",
            {"kind": "family", "family": {"name": "toeplitz_line", "params": {"m": True}}},
        ),
        ("metrics", {"N": 8.9}),
        ("metrics", {"N": 8, "n": [1.5]}),
        (
            "compute",
            {
                "kind": "family",
                "dim": 4,
                "family": {"name": "trig_random", "seed": 1, "params": {"gap": True}},
            },
        ),
        (
            "compute",
            {
                "kind": "family",
                "dim": 4,
                "family": {"name": "trig_random", "seed": 1, "params": {"scale": "inf"}},
            },
        ),
        # entries numpy would read as numbers, or let out as an OverflowError
        ("compute", {"kind": "sampled", "samples": [dict(_TWO, re=[[True, 0], [0, "2"]]), _TWO]}),
        ("compute", {"kind": "sampled", "samples": [dict(_ONE, re=[[10**400]]), _ONE]}),
    ],
)
def test_malformed_field_exit_1(tmp_path, capsys, command, obj):
    f = write_json(tmp_path / "in.json", obj)
    assert cli.main([command, "--input", f]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_an_option_before_the_subcommand_is_named(crossing_file, capsys):
    """The top level reads only the command: an option put first is named,
    not reported as an invalid command named by its value."""
    for argv, opt in (
        (["--out", "x.json", "compute", "--input", crossing_file], "--out"),
        (["--samples", "9", "compute", "--input", crossing_file], "--samples"),
        (["--out=x.json", "compute", "--input", crossing_file], "--out"),
    ):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: option {opt} must follow the subcommand: specflow COMMAND {opt}\n"
    assert cli.main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


def test_a_huge_sample_count_is_refused_not_allocated(tmp_path, capsys):
    """10^8 samples on the README's sampled file once got the process
    killed: the grid is refused, with one error line, before it is built."""
    f = write_json(tmp_path / "p.json", diag_path_obj([-1.0, 2.0], [0.2, 2.0], [1.0, 2.0]))
    tracemalloc.start()
    try:
        code = cli.main(["compute", "--input", f, "--samples", "100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**22
    assert capsys.readouterr().err == (
        "error: samples 100000000 at dim 2 would hold about 6.40e+10 bytes; "
        "the grid cap is 1073741824 bytes\n"
    )


def test_a_family_file_whose_two_dims_disagree_exits_1(tmp_path, capsys):
    """A trig_random file's params dim that its top-level dim contradicts
    is refused with one error line naming both, not ignored."""
    f = write_json(tmp_path / "p.json", {
        "kind": "family", "dim": 4,
        "family": {"name": "trig_random", "seed": 1, "params": {"dim": 3}},
    })
    assert cli.main(["compute", "--input", f]) == 1
    assert capsys.readouterr().err == "error: trig_random params dim 3 does not match dim 4\n"


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


@pytest.mark.parametrize("m, code", [(31, 0), (32, 2)])
def test_toeplitz_line_oracle_guard_boundary(tmp_path, capsys, m, code):
    """The wrap-around eigenvalue moves 2m per unit t, so the oracle's step
    2m / 256 reaches half the endpoint gap 0.5 at m = 32: inconclusive."""
    obj = {"kind": "family", "family": {"name": "toeplitz_line", "params": {"m": m}}}
    f = write_json(tmp_path / "line.json", obj)
    assert cli.main(["compute", "--input", f]) == code
    if code == 0:
        assert json.loads(capsys.readouterr().out)["certificate"]["soundness"] == (
            "piecewise-affine"
        )
        assert cli.main(["report", "--input", f]) == 0
        ledger = json.loads(capsys.readouterr().out)["crossing_ledger"]
        assert (ledger["up_crossings"], ledger["down_crossings"]) == (1, 1)
    else:
        assert "half the endpoint gap" in capsys.readouterr().err


def test_consistency_fault_exit_3(crossing_file, monkeypatch, capsys):
    def boom(path, opts):
        raise ConsistencyFault("methods disagree: {...}")

    monkeypatch.setattr(cli, "sf_all_methods", boom)
    assert cli.main(["compute", "--input", crossing_file]) == 3
    assert "internal cross-check failed" in capsys.readouterr().err


def test_csv_rejected_outside_metrics(crossing_file, capsys):
    # only metrics reads --format, so every other command refuses the flag
    for fmt in ("csv", "json"):
        assert cli.main(["compute", "--input", crossing_file, "--format", fmt]) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert cli.main(["toeplitz", "--m-max", "1", "--format", "json"]) == 1
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--m-max", "0"], ["--m-max", "-3"], ["--m-max", "2", "--power", "0"]]
)
def test_toeplitz_refuses_an_empty_sweep(argv, capsys):
    assert cli.main(["toeplitz", *argv]) == 1
    err = capsys.readouterr()
    assert "must be at least 1" in err.err and err.out == ""


def test_sampling_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["toeplitz"])
    assert cli._sf_options(args) == SfOptions()


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


@pytest.mark.parametrize("given", [["--trunc-dim", "64"], ["--law", "signed"],
                                   ["--trunc-dim", "64", "--law", "signed"]])
def test_metrics_refuses_model_options_beside_a_model_file(tmp_path, capsys, given):
    """The file gives the model, so a --trunc-dim or --law beside it is a
    usage error, not an option silently ignored; either alone still reads."""
    model = write_json(tmp_path / "model.json", {"N": 4, "family": "rank_one"})
    assert cli.main(["metrics", "--input", model, *given]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == (
        "error: --input gives the model: --trunc-dim and --law do not apply\n"
    )
    assert cli.main(["metrics", *given, "--format", "csv"]) == 0
    # a header, then n = 1 ... 32 for each of the four families, swap from 2
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 32 - 1


def test_metrics_byte_identical_across_runs(tmp_path):
    model = write_json(
        tmp_path / "model.json", {"N": 12, "family": ["rank_one", "swap"]}
    )
    outs = []
    for name in ("a", "b"):
        target = tmp_path / f"{name}.csv"
        code = cli.main(
            ["metrics", "--input", model, "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


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


def test_graded_command_on_a_block_with_no_rows(tmp_path, capsys):
    """q = 0: the block is written as "re": [] and read back as (0, 2)."""
    f = write_json(tmp_path / "g.json", graded_to_obj(GradedOperator(2, 0, np.zeros((0, 2)))))
    assert cli.main(["graded", "--input", f]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_index"] == 2


def test_graded_stability_uses_the_tolerance(tmp_path, capsys):
    # --tol 0.5 excludes the singular value 0.3: the stability check must
    # protect the same gap the report prints, not the one at the default tol
    g = GradedOperator(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.0]]))
    f = write_json(tmp_path / "g.json", graded_to_obj(g))
    assert cli.main(["graded", "--input", f, "--tol", "0.5", "--trials", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectral_gap"] == 1.0
    assert payload["stability"]["gap"] == payload["spectral_gap"]
    assert payload["stability"]["ok"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tol", "nan"], "tol must be finite and nonnegative"),
        (["--tol", "-1"], "tol must be finite and nonnegative"),
        (["--tol", "inf"], "tol must be finite and nonnegative"),
        (["--trials", "-1"], "--trials: must be at least 0"),
        (["--trials", "2.7"], "--trials: invalid count value"),
    ],
)
def test_graded_refuses_impossible_arguments(argv, message, tmp_path, capsys):
    """A rank-one block whose singular values are [1, 0]: a negative or NaN
    tolerance once printed the gap 0.0 and skipped the stability check."""
    f = write_json(tmp_path / "g.json", graded_to_obj(GradedOperator(2, 1, [[1.0, 0.0]])))
    assert cli.main(["graded", "--input", f, *argv]) == 1
    err = capsys.readouterr()
    assert message in err.err and err.out == ""


def test_graded_computes_the_half_gap_window_once(tmp_path, capsys, monkeypatch):
    calls = []
    window_dim = graded._window_dim
    monkeypatch.setattr(graded, "_window_dim", lambda *a: calls.append(a[2]) or window_dim(*a))
    g = GradedOperator(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    f = write_json(tmp_path / "g.json", graded_to_obj(g))
    assert cli.main(["graded", "--input", f, "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["window_dim"] == 1
    assert calls == [0.5]


def test_graded_factors_the_block_and_the_odd_matrix_once(tmp_path, capsys, monkeypatch):
    """One SVD of the block serves both gaps, and one eigh of the odd
    matrix serves the cancellation check, the start window and the base
    operand, a stack of one; the trials' perturbed matrices are factored
    once each, as one stack."""
    calls = []
    for name in ("svd", "eigh"):
        inner = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg,
            name,
            lambda a, *args, _f=inner, _n=name, **kw: calls.append((_n, np.shape(a)))
            or _f(a, *args, **kw),
        )
    g = GradedOperator(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.0]]))
    f = write_json(tmp_path / "g.json", graded_to_obj(g))
    assert cli.main(["graded", "--input", f, "--tol", "0.5", "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["ok"]
    assert calls == [("svd", (2, 3)), ("eigh", (1, 5, 5)), ("eigh", (3, 5, 5))]


def test_axioms_command_small(capsys):
    assert cli.main(["axioms", "--trials", "2", "--seed", "9"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 16
    assert all(r["ok"] for r in reports)


def test_axioms_with_no_trials_runs_no_law_trial(capsys):
    assert cli.main(["axioms", "--trials", "0", "--seed", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 16
    assert [r["trials"] for r in reports] == [0] * 16


def test_axioms_command_splits_its_trials_in_the_library(capsys):
    """``--trials N`` is ``run_all_checks(trials=N)``: the 4:1:1:4 split
    lives in the library, not in the front end."""
    assert cli.main(["axioms", "--trials", "8", "--seed", "3"]) == 0
    expected = dumps_json(run_all_checks(seed=3, trials=8, opts=SfOptions()))
    assert capsys.readouterr().out == expected
    assert [r["trials"] for r in json.loads(expected)[:4]] == [8, 2, 2, 8]


@pytest.mark.parametrize("route", ["axioms", "graded", "compute"])
def test_negative_seed_exit_1(route, tmp_path, capsys):
    """A negative seed once ended in numpy's uncaught ValueError traceback,
    from a flag or, for ``compute``, from the path file."""
    if route == "axioms":
        argv = ["axioms", "--seed", "-1", "--trials", "1"]
    elif route == "graded":
        f = write_json(tmp_path / "g.json", graded_to_obj(GradedOperator(2, 1, [[1.0, 0.0]])))
        argv = ["graded", "--input", f, "--seed", "-1"]
    else:
        obj = {"kind": "family", "dim": 4, "family": {"name": "trig_random", "seed": -1}}
        argv = ["compute", "--input", write_json(tmp_path / "p.json", obj)]
    assert cli.main(argv) == 1
    err = capsys.readouterr()
    assert err.err == "error: seed must be an int >= 0, got -1\n" and err.out == ""


def test_main_reuses_its_parser_and_finds_the_handler_at_call_time(monkeypatch, capsys):
    """build_parser still gives a fresh parser, but main builds none; the
    handler is looked up by the command's name when main runs, so one
    rebound after the parser was built is the one called."""
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
    monkeypatch.setattr(cli, "_cmd_toeplitz", lambda args: f"m_max {args.m_max}\n")
    assert cli.main(["toeplitz", "--m-max", "3"]) == 0
    assert capsys.readouterr().out == "m_max 3\n"
