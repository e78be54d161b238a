"""Spans around the public functions of every specflowlab module.

``install`` replaces each public function, and the methods the per-layer
table names, with a wrapper that records a span (name, start, end, parent
span, op id). Modules import functions by name (``from .matcore import
op_norm``), so every binding of an original in every ``specflowlab`` module
is replaced, and ``install`` fails if one is left behind. Spans are kept in
flat arrays while the run lasts and written out when it ends; self time is a
span's duration minus the durations of its children and minus the time the
tracer itself spent inside it (hashing ``op_norm`` arguments).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("matcore", "specflow", "projpair", "generators", "metrics", "transforms",
          "opmodel", "toeplitz", "graded", "axioms", "serialize", "cli")

#: CLI handlers are private; they are traced under their subcommand names
CLI_HANDLERS = {"_cmd_compute": "compute", "_cmd_report": "report",
                "_cmd_toeplitz": "toeplitz", "_cmd_metrics": "metrics",
                "_cmd_axioms": "axioms", "_cmd_graded": "graded"}

#: spans whose ``.s`` metric is inclusive: eigh with its Gram and
#: reconstruction checks, and path building with the generators it calls
INCLUSIVE = ("matcore.eigh", "generators.path_build")

#: the per-layer table: (span name, metric suffixes)
TABLE = (
    ("matcore.op_norm", ("calls", "s", "repeat_ratio")),
    ("matcore.eigh", ("calls", "s")),
    ("matcore.HermitianMatrix", ("calls", "s")),
    ("matcore.Projection", ("calls", "s")),
    ("matcore.rank_eps", ("s",)),
    ("specflow.OperatorPath.matrix", ("calls", "misses", "s", "hit_ratio")),
    ("specflow.OperatorPath.values", ("calls", "s")),
    ("specflow.OperatorPath.eig", ("calls", "s")),
    ("specflow.sf_phillips", ("s",)),
    ("specflow.sf_pairsum", ("s",)),
    ("specflow.crossing_oracle_report", ("s",)),
    ("specflow.sf_endpoints", ("s",)),
    ("specflow.certify_invertible", ("s",)),
    ("projpair.pair_index", ("calls", "s")),
    ("generators.path_build", ("s",)),
    ("metrics.d_N", ("s",)),
    ("metrics.d_W", ("s",)),
    ("metrics.d_R", ("s",)),
    ("metrics.d_G", ("s",)),
    ("transforms.riesz", ("s",)),
    ("transforms.cayley", ("s",)),
    ("toeplitz.verify_toeplitz_theorem", ("s",)),
    ("axioms.run_all_checks", ("s",)),
    ("graded.index_stability_check", ("s",)),
    ("serialize.path_from_obj", ("s",)),
    ("serialize.certificate_to_obj", ("s",)),
    ("serialize.dumps_json", ("s",)),
    ("cli.compute", ("s",)),
    ("cli.report", ("s",)),
    ("cli.toeplitz", ("s",)),
    ("cli.metrics", ("s",)),
    ("cli.axioms", ("s",)),
    ("cli.graded", ("s",)),
)

UNITS = {"calls": "calls/op", "s": "s/op", "misses": "misses/op", "repeat_ratio": "ratio",
         "hit_ratio": "ratio", "segments": "segments/call", "max_depth": "depth"}

#: certificate-derived rows and the trace's own checks
EXTRA = (("specflow.phillips.segments", "segments/call"),
         ("specflow.pairsum.segments", "segments/call"),
         ("specflow.phillips.max_depth", "depth"),
         ("trace.coverage.ratio", "ratio"),
         ("trace.overhead.ratio", "ratio"))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in table order."""
    out = {f"{name}.{suffix}": UNITS[suffix] for name, suffixes in TABLE for suffix in suffixes}
    out.update(EXTRA)
    return out


class Tracer:
    """In-memory span recorder; records only while an op is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.skip = array("d")  # instrumentation time inside a span, not its own
        self._stack = [-1]
        self._op_id = -1
        self._seen: set = set()
        self.norm_repeats = 0
        self.matrix_misses = 0
        self.segments = {"phillips": [0, 0, 0], "pairsum": [0, 0, 0]}  # calls, segments, max depth

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.skip.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        if self._op_id < 0:
            yield
            return
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """The root span of one benchmark operation."""
        self._op_id = op_id
        self._seen.clear()
        try:
            with self.span("op"):
                yield
        finally:
            self._op_id = -1

    def wrap(self, name: str, fn, kind: str = "plain"):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            if kind == "op_norm":
                h0 = perf_counter()
                key = hash(np.asarray(args[0], dtype=np.complex128).tobytes())
                if key in self._seen:
                    self.norm_repeats += 1
                self._seen.add(key)
                self.skip[self._stack[-1]] += perf_counter() - h0
            elif kind == "matrix":
                before = len(args[0]._mats)
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if kind == "matrix" and len(args[0]._mats) > before:
                self.matrix_misses += 1
            elif kind in self.segments:
                widths = [s.t_right - s.t_left for s in result.segments]
                rec = self.segments[kind]
                rec[0] += 1
                rec[1] += len(widths)
                rec[2] = max(rec[2], max(round(-math.log2(w)) for w in widths))
            return result

        return traced

    def aggregate(self, kinds: list[str]) -> dict:
        """Per-layer metrics, normalised per operation (all but the
        overhead ratio, which needs the untraced run), and the share of
        ``op_norm`` self time in the operations of each kind; ``kinds[i]``
        is the kind of op id ``i``."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        n = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child - np.frombuffer(self.skip)
        calls = np.bincount(nid, minlength=n)
        self_s = np.bincount(nid, weights=self_t, minlength=n)
        incl_s = np.bincount(nid, weights=dur, minlength=n)
        op_id = self._ids["op"]
        n_ops = int(calls[op_id])
        op_time = float(incl_s[op_id])

        def get(arr, name):
            return float(arr[self._ids[name]]) if name in self._ids else 0.0

        out = {}
        covered = 0.0
        for name, suffixes in TABLE:
            covered += get(self_s, name)
            for suffix in suffixes:
                if suffix == "calls":
                    value = get(calls, name) / n_ops
                elif suffix == "s":
                    value = get(incl_s if name in INCLUSIVE else self_s, name) / n_ops
                elif suffix == "misses":
                    value = self.matrix_misses / n_ops
                elif suffix == "hit_ratio":
                    c = get(calls, name)
                    value = 1.0 - self.matrix_misses / c if c else 0.0
                else:  # repeat_ratio
                    c = get(calls, name)
                    value = self.norm_repeats / c if c else 0.0
                out[f"{name}.{suffix}"] = value
        for method in ("phillips", "pairsum"):
            calls_, segs, depth = self.segments[method]
            out[f"specflow.{method}.segments"] = segs / calls_ if calls_ else 0.0
        out["specflow.phillips.max_depth"] = float(self.segments["phillips"][2])
        out["trace.coverage.ratio"] = covered / op_time
        every = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }
        op = np.frombuffer(self.op, dtype=np.int32)
        norm = nid == self._ids.get("matcore.op_norm", -1)
        root = nid == op_id
        norm_s = np.bincount(op[norm], weights=self_t[norm], minlength=len(kinds))
        op_s = np.bincount(op[root], weights=dur[root], minlength=len(kinds))
        share = {}
        for kind in dict.fromkeys(kinds):
            mask = np.array([k == kind for k in kinds])
            share[kind] = float(norm_s[mask].sum() / op_s[mask].sum())
        return {"metrics": out, "spans": every, "ops": n_ops, "op_time_s": op_time,
                "op_norm_share": share}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
            skip=np.frombuffer(self.skip),
        )


def install(tracer: Tracer) -> int:
    """Wrap every traced function in every module that binds it; returns
    the number of bindings replaced."""
    wrapped = {}  # id(original) -> (original, wrapper)

    def add(name, fn, kind="plain"):
        wrapped[id(fn)] = (fn, tracer.wrap(name, fn, kind))

    for layer in LAYERS:
        mod = importlib.import_module(f"specflowlab.{layer}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                kind = {"op_norm": "op_norm", "sf_phillips": "phillips",
                        "sf_pairsum": "pairsum"}.get(attr, "plain")
                add(f"{layer}.{attr}", obj, kind)
    cli = importlib.import_module("specflowlab.cli")
    for attr, sub in CLI_HANDLERS.items():
        add(f"cli.{sub}", getattr(cli, attr))

    matcore = importlib.import_module("specflowlab.matcore")
    specflow = importlib.import_module("specflowlab.specflow")
    for cls in (matcore.HermitianMatrix, matcore.Projection):
        cls.__init__ = tracer.wrap(f"matcore.{cls.__name__}", cls.__dict__["__init__"])
    for meth in ("matrix", "values", "eig"):
        fn = specflow.OperatorPath.__dict__[meth]
        setattr(specflow.OperatorPath, meth, tracer.wrap(
            f"specflow.OperatorPath.{meth}", fn, "matrix" if meth == "matrix" else "plain"))

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "specflowlab" or name.startswith("specflowlab."))]
    replaced = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                replaced += 1
    for mod in modules:
        for attr, value in vars(mod).items():
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                raise RuntimeError(f"unwrapped binding {mod.__name__}.{attr}")
    return replaced
