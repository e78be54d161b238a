"""One workload process: import, warm up, run the closed loop, write results.

Started by ``run.py``; prints ``READY <seconds of input generation>`` once
its set-up (imports plus one untimed call of each operation kind) is done,
so the parent can time the set-up from process start, then ``SLOWDOWN <x>``,
the host's speed right after the set-up (see ``hostspeed.py``). With
``--setup-only`` it stops there. Each timed operation is bracketed by two
host-speed measurements, and its slowdown is their geometric mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def blas_info(numpy) -> dict:
    """BLAS library, version and the thread count it runs with."""
    import ctypes
    import glob

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    return info


def run_op(op, tracer, op_id):
    """Time one operation; returns (seconds, result, exception)."""
    ctx = tracer.operation(op_id) if tracer is not None else None
    t0 = perf_counter()
    try:
        if ctx is None:
            result = op.run()
        else:
            with ctx:
                result = op.run()
    except Exception as exc:  # an unexpected exception is an outcome to count
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, result, None


def judge(op, result, exc):
    """(ok, outcome, detail) of one execution against the reference."""
    if exc is not None:
        return False, None, "".join(traceback.format_exception(exc)).strip()
    try:
        return op.check(result)
    except Exception as check_exc:  # malformed output is a wrong outcome
        return False, None, repr(check_exc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    import numpy
    import specflowlab  # noqa: F401  (set-up cost every CLI user pays)
    import specflowlab.cli  # noqa: F401

    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    gen_s = 0.0
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        g0 = perf_counter()
        warm = workloads.make_ops(args.workload, args.seed, args.seconds, tmp, warmup=True)
        gen_s += perf_counter() - g0
        for op in warm:
            g0 = perf_counter()
            op.prepare()
            gen_s += perf_counter() - g0
            _, result, exc = run_op(op, None, -1)
            if exc is not None:
                raise exc
            ok, _, detail = op.check(result)
            if not ok:
                raise RuntimeError(f"warm-up operation failed its check: {detail}")
        print(f"READY {gen_s!r}", flush=True)
        import hostspeed

        hostspeed.warm_up()
        print(f"SLOWDOWN {hostspeed.slowdown(hostspeed.SETUP_KERNEL, repeats=5)!r}", flush=True)
        if args.setup_only:
            return 0
        kernel, repeats = hostspeed.WORKLOAD_KERNELS[args.workload]

        tracer = None
        hook = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            hook = tracer.span
        ops = workloads.make_ops(args.workload, args.seed, args.seconds, tmp,
                                 tiny=args.tiny, trace_hook=hook)
        if tracer is not None:
            tracing.install(tracer)
        gc.freeze()  # keeps the per-op collections below short
        records = [{"kind": op.kind, "seconds": [], "slowdown": [], "failed": 0,
                    "outcome": None, "digests": [], **op.info} for op in ops]
        for pass_no in range(workloads.PASSES):
            for k, op in enumerate(ops):
                op.prepare()
                before = hostspeed.slowdown(kernel, repeats)
                seconds, result, exc = run_op(op, tracer, pass_no * len(ops) + k)
                after = hostspeed.slowdown(kernel, repeats)
                ok, outcome, detail = judge(op, result, exc)
                rec = records[k]
                if pass_no == 0:
                    rec["outcome"] = outcome
                elif outcome != rec["outcome"]:
                    ok, detail = False, f"outcome {outcome} differs from the first pass"
                if not ok:
                    print(f"operation {k} ({op.kind}) failed: {detail}", file=sys.stderr)
                    rec["failed"] += 1
                rec["seconds"].append(seconds)
                rec["slowdown"].append(math.sqrt(before * after))
                rec["digests"].append(op.digest())
                # each CLI user's command runs in its own process: free the
                # op's garbage (paths and their caches) before the next starts
                gc.collect()

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_info(numpy),
    }
    if tracer is not None:
        out["trace"] = tracer.aggregate([op.kind for op in ops] * workloads.PASSES)
        tracer.save(os.path.splitext(args.result)[0] + "-spans.npz")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
