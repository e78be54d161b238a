"""The flow corpus's run list (``corpus.RUNS``): each CLI run exits, reads
and refuses as recorded, on any host. The runs share one process, as the
digest script runs them."""

import pytest

from corpus import RUNS, outcome, run_all


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
