"""The flow corpus's run list (``corpus.RUNS``): each CLI run exits, reads
and refuses as recorded, on any host. The runs share one process, as the
digest script runs them."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus import RUNS, differences, main, outcome, run_all


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("corpus"))


def test_the_run_list_covers_every_subcommand_and_exit_code():
    assert len(RUNS) >= 64 and len({name for name, _, _ in RUNS}) == len(RUNS)
    commands = {argv[0] for _, argv, _ in RUNS if argv}
    assert commands >= {"compute", "report", "metrics", "toeplitz", "axioms", "graded"}
    assert {want[0] for _, _, want in RUNS} == {0, 1, 2}
    assert {"csv", "json"} <= {argv[-1] for _, argv, _ in RUNS if "--format" in argv}


@pytest.mark.parametrize("name, argv, want", RUNS, ids=[name for name, _, _ in RUNS])
def test_each_run_exits_reads_and_refuses_as_recorded(results, name, argv, want):
    code, value, line = outcome(argv, results[name])
    assert (code, value) == want[:2] and line.startswith(want[2])
    # a run that succeeds writes nothing to stderr, and one that fails one
    # line; a warning the run raised is a line of its own there
    assert results[name][2] == (line + "\n" if code else "")


def test_compare_names_the_runs_whose_bytes_differ(tmp_path, capsys):
    """``--compare`` prints each run or flow whose exit code or digests
    differ, or that one file lacks, and exits 1; equal files print
    nothing, exit 0."""
    same = {"code": 0, "out": "aa", "stderr": "bb"}
    flow = {"certify_invertible": "cc", "sf_all_methods": "dd"}
    runs = {
        "a.json": {"ok": same, "out": same, "codes": same, "gone": same, "flow:concat_d2": flow},
        "b.json": {"ok": same, "out": {**same, "out": "ab"},
                   "codes": {**same, "code": 1, "stderr": "cc"}, "new": same,
                   "flow:concat_d2": {**flow, "sf_all_methods": "de"}},
    }
    for name, found in runs.items():
        (tmp_path / name).write_text(json.dumps({"runs": len(found), "digests": found}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "codes: code stderr differ", "flow:concat_d2: sf_all_methods differ",
        f"gone: only in {a}", f"new: only in {b}", "out: out differ",
    ]
    assert main(["--compare", a, a]) == 0
    assert capsys.readouterr().out == ""


def test_the_corpus_gives_the_committed_digests(tmp_path):
    """Every run's and flow's digests, at one BLAS thread under
    PYTHONHASHSEED 0, are those of ``corpus_digests.json`` on the numpy
    version and machine that wrote it; the determinism contract ties the
    bytes to one build, so another build skips."""
    here = Path(__file__).parent
    pinned = json.loads((here / "corpus_digests.json").read_text())
    build = (np.__version__, platform.machine())
    if build != (pinned["numpy"], pinned["machine"]):
        pytest.skip(f"digests written on numpy {pinned['numpy']} {pinned['machine']}, "
                    f"this is numpy {build[0]} {build[1]}")
    out = tmp_path / "digests.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, str(here / "corpus.py"), "--digests", str(out)],
                   env=env, check=True)
    found = json.loads(out.read_text())["digests"]
    lines = differences(pinned["digests"], found, ("corpus_digests.json", "this run"))
    assert not lines, "\n".join(lines)
