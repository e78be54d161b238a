"""The library keeps no module-global mutable state: per-run telemetry
belongs to the run, so callers on their own threads never mix counts."""

import ast
import sys
import threading
from pathlib import Path

import specflowlab
from specflowlab.generators import family_path, trig_path
from specflowlab.matcore import _run_stats
from specflowlab.paths import path_reverse
from specflowlab.specflow import sf_all_methods

SOURCES = sorted(Path(specflowlab.__file__).parent.glob("*.py"))


def test_no_module_rebinds_a_global():
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}: global {', '.join(node.names)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []


#: three flows whose runs count different routes: LAPACK's, diagonals', a composite's
FLOWS = {
    "trig": lambda: trig_path(7, 6),
    "fuglede": lambda: family_path("fuglede_line", {"N": 16, "n": 5}),
    "reverse": lambda: path_reverse(trig_path(3, 4)),
}


def _counts(name: str, runs: int = 1) -> dict:
    """The run record of ``runs`` flows of fresh ``FLOWS[name]`` paths."""
    with _run_stats() as stats:
        for _ in range(runs):
            sf_all_methods(FLOWS[name]())
    return dict(stats)


def test_threads_count_only_their_own_runs():
    """Three threads each open a run record and run a different flow three
    times, at once and switching often: each record holds exactly three
    times the counts of its flow run alone, and a record the caller holds
    open counts nothing of theirs."""
    alone = {name: _counts(name) for name in FLOWS}
    assert len({tuple(sorted(c.items())) for c in alone.values()}) == len(FLOWS)
    start, got = threading.Barrier(len(FLOWS)), {}

    def run(name):
        start.wait(timeout=60)
        got[name] = _counts(name, runs=3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _run_stats() as caller:
            threads = [threading.Thread(target=run, args=(name,)) for name in FLOWS]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert caller == {}
    assert got == {name: {k: 3 * n for k, n in counts.items()} for name, counts in alone.items()}
