"""specflowlab benchmark: certified-flow latency and throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``). Each workload runs in a fresh process with one caller in a closed
loop: the next operation starts when the previous one returns. Workloads:

* ``flow_small``: build a seeded path of dimension 2-8 from its spec, then
  ``sf_all_methods``; per-call Python overhead dominates.
* ``flow_large``: the same at dimension 48-128; dense kernels dominate.
* ``cli_mixed``: in-process ``specflowlab.cli.main`` calls over every
  subcommand, sampled path files, and two inputs expected to exit 2.

A run executes a fixed number of whole cycles of operation kinds, sized to
``--seconds``, in two passes; an operation's latency is the mean of its
passes at reference host speed (below).
BLAS runs on one thread. ``setup_s`` is the median over five processes of
the time from process start to the end of the warm-up (imports plus one
tiny call of each operation kind).

The timing metrics are given at reference host speed: every timed interval
is divided by the host's slowdown, measured with a fixed kernel that uses
no library code just before and just after the operation (for the set-up,
just after it; see ``hostspeed.py``). The wall-clock timings (fastest pass)
are printed too, for information.

Every outcome is checked against an answer the benchmark computes itself;
a mismatch, a wrong exit code or an unexpected exception counts in
``error_rate``. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
runs the workload untraced and then traced (spans around the public
functions of every module, see ``tracing.py``), fails if the two runs
disagree on any integer or exit code, and prints the per-layer metrics.
The last line of standard output is one JSON object; details, per-kind
latencies and the sha256 of every CLI output file go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("SPECFLOW_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one caller, one BLAS thread: on 2 cores a second BLAS thread slows the
    # 128-dimensional SVD and makes it contend with the host's other load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, root, out_dir, *, trace=0, setup_only=False, deadline):
    """Start one workload process; returns (setup seconds, host slowdown
    right after the set-up, result dict)."""
    result = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", out_dir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        speed = proc.stdout.readline()
        proc.stdout.read()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran out of time")
    finally:
        proc.stdout.close()
    if (proc.returncode != 0 or not line.startswith("READY ")
            or not speed.startswith("SLOWDOWN ")):
        raise BenchError(f"workload process exited with code {proc.returncode}")
    setup -= float(line.split()[1])  # the benchmark's own input generation
    slowdown = float(speed.split()[1])
    if setup_only:
        return setup, slowdown, None
    with open(result, encoding="utf-8") as fh:
        return setup, slowdown, json.load(fh)


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it: the
    (n - 10)-th smallest value. Below 11 samples, the largest."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def outcomes(res):
    return [json.dumps(op["outcome"]) for op in res["ops"]]


def source_identity(root):
    src = os.path.join(root, "src", "specflowlab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return commit, h.hexdigest()[:16]


def latencies(res, at_reference_speed=True):
    """Per operation, the mean of its passes, each divided by the host
    slowdown measured around it; as measured, its fastest pass."""
    if not at_reference_speed:
        return [min(op["seconds"]) for op in res["ops"]]
    return [statistics.fmean(s / x for s, x in zip(op["seconds"], op["slowdown"]))
            for op in res["ops"]]


def timings(lat, setups):
    t_value, t_pct, beyond = tail(lat)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
        "ops_per_s": (len(lat) / sum(lat), "1/s", ""),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms", f"n={len(lat)}"),
        "latency_tail_ms": (1e3 * t_value, "ms",
                            f"p{t_pct:.1f}, {beyond} of {len(lat)} samples beyond"),
    }


def end_to_end(res, setups):
    """The end-to-end metrics at reference host speed, and the same timings
    as measured (wall clock, for information)."""
    metrics = timings(latencies(res), [s / x for s, x in setups])
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB", "")
    measured = timings(latencies(res, at_reference_speed=False), [s for s, _ in setups])
    return metrics, measured


def per_kind(res):
    kinds = {}
    for op, seconds in zip(res["ops"], latencies(res)):
        kinds.setdefault(op["kind"], []).append(seconds)
    return {k: (1e3 * statistics.median(v), len(v)) for k, v in kinds.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("flow_small", "flow_large", "cli_mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny operation and one set-up probe (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "specflowlab", "__init__.py")):
        print("error: run from the root of a specflowlab checkout (src/specflowlab missing)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace:
            _, _, base = run_child(args, root, out_dir, trace=0, deadline=deadline)
            _, _, traced = run_child(args, root, out_dir, trace=1, deadline=deadline)
            setups = []
        else:
            probes = 1 if args.smoke else SETUP_PROBES
            setups = [run_child(args, root, out_dir, setup_only=True, deadline=deadline)[:2]
                      for _ in range(probes)]
            setup, slowdown, base = run_child(args, root, out_dir, deadline=deadline)
            setups.append((setup, slowdown))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(op["seconds"]) for op in base["ops"])
    failed = sum(op["failed"] for op in base["ops"])
    commit, source = source_identity(root)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  one caller, closed loop")
    blas = base["blas"]
    print(f"env: python {base['python']}  numpy {base['numpy']}  blas {blas['name']} "
          f"{blas['version']}  blas_threads {blas['threads']}  nproc {os.cpu_count()}  "
          f"commit {commit or 'n/a'}  source {source}")
    print(f"error_rate {failed / attempted:.4g} ratio  ({failed} of {attempted} operations)")
    share = traced["trace"]["op_norm_share"] if args.trace else {}
    for kind, (ms, n) in per_kind(base).items():
        note = f"  op_norm share {share[kind]:.3f} (traced)" if kind in share else ""
        print(f"  kind {kind:20s} p50 {ms:10.2f} ms at reference speed  n={n}{note}")
    digests = [d for op in base["ops"] for d in op["digests"] if d]
    if digests:
        print(f"cli output digests: {len(digests)} files, combined sha256 "
              f"{hashlib.sha256(''.join(digests).encode()).hexdigest()[:16]} "
              f"(per file in .perfbench_out/)")

    if args.trace:
        if outcomes(base) != outcomes(traced):
            diff = [k for k, (a, b) in enumerate(zip(outcomes(base), outcomes(traced))) if a != b]
            print(f"error: traced run changed outcomes of operations {diff[:10]}",
                  file=sys.stderr)
            return 1
        import tracing

        lat = latencies(base)
        t_lat = latencies(traced)
        layer = dict(traced["trace"]["metrics"])
        layer["trace.overhead.ratio"] = (len(t_lat) / sum(t_lat)) / (len(lat) / sum(lat)) - 1.0
        units = tracing.metric_units()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    else:
        values, measured = end_to_end(base, setups)
        slowdowns = [x for op in base["ops"] for x in op["slowdown"]]
        print(f"host slowdown against the reference machine: median "
              f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
              f"{max(slowdowns):.3f} over {len(slowdowns)} measurements")
        print("timings at reference host speed (the metrics):")
        for name, (v, u, note) in values.items():
            print(f"  {name:18s} {v:14.6g} {u:5s} {note}")
        print("the same timings as measured (wall clock, information only):")
        for name, (v, u, note) in measured.items():
            print(f"  {name:18s} {v:14.6g} {u:5s} {note}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
