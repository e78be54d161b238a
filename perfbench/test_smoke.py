"""Smoke test of the benchmark itself: one tiny operation per workload
(run once per pass).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flow_small", "flow_large", "cli_mixed")

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")
PER_LAYER = (
    "matcore.op_norm.calls", "matcore.op_norm.s", "matcore.op_norm.repeat_ratio",
    "matcore.eigh.calls", "matcore.eigh.s",
    "matcore.HermitianMatrix.calls", "matcore.HermitianMatrix.s",
    "matcore.Projection.calls", "matcore.Projection.s", "matcore.rank_eps.s",
    "specflow.OperatorPath.matrix.calls", "specflow.OperatorPath.matrix.misses",
    "specflow.OperatorPath.matrix.s", "specflow.OperatorPath.matrix.hit_ratio",
    "specflow.OperatorPath.values.calls", "specflow.OperatorPath.values.s",
    "specflow.OperatorPath.eig.calls", "specflow.OperatorPath.eig.s",
    "specflow.sf_phillips.s", "specflow.sf_pairsum.s", "specflow.crossing_oracle_report.s",
    "specflow.sf_endpoints.s", "specflow.certify_invertible.s",
    "specflow.phillips.segments", "specflow.pairsum.segments", "specflow.phillips.max_depth",
    "projpair.pair_index.calls", "projpair.pair_index.s", "generators.path_build.s",
    "metrics.d_N.s", "metrics.d_W.s", "metrics.d_R.s", "metrics.d_G.s",
    "transforms.riesz.s", "transforms.cayley.s",
    "toeplitz.verify_toeplitz_theorem.s", "axioms.run_all_checks.s",
    "graded.index_stability_check.s",
    "serialize.path_from_obj.s", "serialize.certificate_to_obj.s", "serialize.dumps_json.s",
    "cli.compute.s", "cli.report.s", "cli.toeplitz.s", "cli.metrics.s", "cli.axioms.s",
    "cli.graded.s", "trace.coverage.ratio", "trace.overhead.ratio",
)


def bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    got = bench(ROOT, workload, trace)
    assert got.returncode == 0, got.stderr
    lines = got.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    names = PER_LAYER if trace else END_TO_END
    units = declared()[trace]
    assert set(result["metrics"]) == set(names) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    error_rate = [line.split() for line in lines if line.startswith("error_rate ")]
    assert error_rate and error_rate[0][2] == "ratio"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = bench(str(tmp_path), "flow_small", 0)
    assert got.returncode != 0
    assert not got.stdout.strip()
