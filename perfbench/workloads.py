"""The three benchmark workloads: seeded inputs, the operation each input
drives, and the benchmark's own reference answer for it.

A workload is a fixed cycle of operation kinds. A run executes a whole
number of cycles, sized to ``--seconds`` by the nominal cycle time measured
on the reference machine (2 cores, OpenBLAS 0.3.31, numpy 2.4), so every run
of a workload has the same composition and its median and tail fall on the
same ranks. The seed only changes the random content of each input.

Every operation is a ``Op``: ``prepare`` writes its input files (benchmark
work, untimed), ``run`` is the timed call into the library, and ``check``
compares the outcome with an answer the benchmark computes itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import specflowlab.cli as cli
import specflowlab.generators as generators
import specflowlab.specflow as specflow


# ---------------------------------------------------------------- references

def _nonneg_count(mat) -> int:
    return int(np.sum(np.linalg.eigvalsh(np.asarray(mat)) >= 0.0))


def _endpoint_flow(path) -> int:
    """Nonnegative-eigenvalue count at t = 1 minus the count at t = 0."""
    return _nonneg_count(path.matrix(1.0).mat) - _nonneg_count(path.matrix(0.0).mat)


# ----------------------------------------------------------- flow operations

def build_path(spec: dict):
    """Build the library path named by a (family, params, seed, dim) spec."""
    fam = spec["family"]
    if fam == "trig_random":
        return generators.family_path(
            "trig_random", spec["params"], seed=spec["seed"], dim=spec["dim"]
        )
    if fam == "normalization":
        return generators.normalization_path(spec["seed"], spec["dim"])
    if fam == "invertible_drift":
        return generators.invertible_trig_path(spec["seed"], spec["dim"])
    if fam in ("toeplitz_line", "fuglede_line"):
        return generators.family_path(fam, spec["params"])
    if fam == "concat":
        f, g = generators.concat_compatible_pair(spec["seed"], spec["dim"])
        return specflow.path_concat(f, g)
    raise ValueError(f"unknown family {fam!r}")


def expected_flow(spec: dict) -> int:
    """The benchmark's own answer for a flow spec.

    Normalization paths carry flow 1 by construction, invertible drifts and
    Toeplitz lines 0, the Fuglede line with the linear law -1 (one positive
    eigenvalue changes sign). Random trig paths and the parts of a
    concatenation are judged by endpoint eigenvalue counts from numpy.
    """
    fam = spec["family"]
    if fam == "normalization":
        return 1
    if fam in ("invertible_drift", "toeplitz_line"):
        return 0
    if fam == "fuglede_line":
        return -1
    if fam == "concat":
        f, g = generators.concat_compatible_pair(spec["seed"], spec["dim"])
        return _endpoint_flow(f) + _endpoint_flow(g)
    return _endpoint_flow(build_path(spec))


@dataclass
class Op:
    """One operation of a workload."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, object, str]]
    prepare: Callable[[], None] = lambda: None
    digest: Callable[[], str | None] = lambda: None
    info: dict = field(default_factory=dict)


def flow_op(spec: dict, kind: str, trace_hook=None) -> Op:
    """Build the path from its spec, then ``sf_all_methods``."""

    def run():
        if trace_hook is None:
            path = build_path(spec)
        else:
            with trace_hook("generators.path_build"):
                path = build_path(spec)
        return specflow.sf_all_methods(path)

    def check(result):
        want = expected_flow(spec)
        got = int(result["value"])
        ok = got == want and set(result["methods"].values()) == {want}
        return ok, got, f"{spec} gave {result['methods']}, expected {want}"

    return Op(kind=kind, run=run, check=check, info={"spec": spec})


# ------------------------------------------------------------ CLI operations

def _herm(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / (2.0 * math.sqrt(dim))


def _clamp(h: np.ndarray, gap: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    w = np.where(np.abs(w) < gap, np.where(w >= 0.0, gap, -gap), w)
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matrix_obj(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def sampled_path_samples(rng: np.random.Generator, dim: int, count: int = 9) -> list:
    """Eigenvalue levels spread over [-1.5, 1.5] rise by 0.8 in a seeded
    basis, with a small seeded coupling bump, so every seed crosses zero with
    the same levels and costs about the same. Every sample is kept at least
    0.05 from singular (the endpoints 0.2), so crossings fall between samples."""
    levels = np.linspace(-1.5, 1.5, dim + 2)[1:-1]
    u, c = _unitary(rng, dim), _herm(rng, dim)
    out = []
    for k, t in enumerate(np.linspace(0.0, 1.0, count)):
        m = (u * (levels + 0.8 * t)) @ u.conj().T + 0.1 * math.sin(math.pi * t) * c
        out.append(_clamp(m, 0.05 if 0 < k < count - 1 else 0.2))
    return out


def zigzag_samples(rng: np.random.Generator, dim: int) -> list:
    """One eigenvalue flips between +1 and -1 at each of 41 samples while the
    rest stay put; subdivision cannot certify it within depth 2."""
    u = _unitary(rng, dim)
    rest = rng.uniform(0.5, 1.5, dim - 1) * rng.choice([-1.0, 1.0], dim - 1)
    out = []
    for k in range(41):
        d = np.concatenate([[1.0 if k % 2 == 0 else -1.0], rest])
        m = (u * d) @ u.conj().T
        out.append((m + m.conj().T) / 2.0)
    return out


class CliCall:
    """One in-process ``specflowlab.cli.main`` call with its files."""

    def __init__(self, workdir: str, name: str, argv: list, inputs: dict | None = None):
        self.out = os.path.join(workdir, f"{name}.out")
        self.argv = list(argv) + ["--out", self.out]
        self.inputs = inputs or {}

    def prepare(self) -> None:
        for path, obj in self.inputs.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        if os.path.exists(self.out):
            os.remove(self.out)

    def run(self) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv)

    def output(self) -> str:
        with open(self.out, "r", encoding="utf-8") as fh:
            return fh.read()

    def digest(self) -> str | None:
        if not os.path.exists(self.out):
            return None
        with open(self.out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def cli_op(call: CliCall, kind: str, want_exit: int, judge=None) -> Op:
    """``judge(output_text)`` returns (ok, integers) for an exit-0 call."""

    def check(code):
        if code != want_exit:
            return False, (code,), f"{call.argv} exited {code}, expected {want_exit}"
        if judge is None:
            return True, (code,), ""
        ok, ints = judge(call.output())
        return ok, (code,) + tuple(ints), f"{call.argv} output failed its check: {ints}"

    return Op(
        kind=kind, run=call.run, check=check, prepare=call.prepare, digest=call.digest,
        info={"argv": call.argv[:-2]},
    )


def _judge_flow(want: int):
    def judge(text):
        obj = json.loads(text)
        methods = obj["methods"]
        return obj["value"] == want and set(methods.values()) == {want}, [obj["value"]]

    return judge


def _judge_report(want: int):
    def judge(text):
        obj = json.loads(text)
        ledger = obj["crossing_ledger"]
        ok = obj["value"] == want and ledger["up_crossings"] - ledger["down_crossings"] == want
        return ok, [obj["value"], ledger["up_crossings"], ledger["down_crossings"]]

    return judge


def _judge_toeplitz(m_max: int):
    def judge(text):
        reps = json.loads(text)
        ints = [r["sf_conjugation_path"] for r in reps]
        ok = [r["m"] for r in reps] == list(range(1, m_max + 1)) and all(
            r["sf_conjugation_path"] == 0
            and r["compression_index"] == 0
            and r["up_crossings"] == r["down_crossings"] == 1
            for r in reps
        )
        return ok, ints

    return judge


def _judge_metrics(trunc_dim: int):
    """Closed forms of the plain norm distance on the linear diagonal model:
    rank_one 1, lambda n, fuglede 2n, swap 1; swap starts at n = 2."""
    ns = range(1, min(33, trunc_dim))
    d_n = {"rank_one": lambda n: 1.0, "lambda": float, "fuglede": lambda n: 2.0 * n,
           "swap": lambda n: 1.0}

    def judge(text):
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        want_rows = [(f, n) for f in d_n for n in ns if not (f == "swap" and n < 2)]
        got_rows = [(r[0], int(r[1])) for r in rows]
        ok = lines[0].startswith("family,n,d_N,d_W,d_R,d_G") and got_rows == want_rows
        ok = ok and all(abs(float(r[2]) - d_n[r[0]](int(r[1]))) <= 1e-9 * (1 + int(r[1])) for r in rows)
        return ok, [len(rows)]

    return judge


def _judge_axioms(text):
    reps = json.loads(text)
    ok = len(reps) == 16 and all(r["ok"] for r in reps)
    return ok, [sum(len(r["failures"]) for r in reps)]


def _judge_graded(kernel_index: int):
    def judge(text):
        obj = json.loads(text)
        ok = (
            obj["kernel_index"] == kernel_index
            and obj["cancellation"]["ok"]
            and obj["stability"]["ok"]
            and obj["window_dim"] == kernel_index
        )
        return ok, [obj["kernel_index"], obj["window_dim"]]

    return judge


def _sampled_obj(samples) -> dict:
    return {"kind": "sampled", "dim": int(samples[0].shape[0]),
            "samples": [_matrix_obj(m) for m in samples]}


def make_cli_op(kind: str, rng: random.Random, workdir: str, k: int, tiny: bool) -> Op:
    nrng = np.random.default_rng(rng.randrange(2**63))
    seed = rng.randrange(2**31)
    name = f"op{k}"
    inp = os.path.join(workdir, f"{name}.json")
    if kind.startswith(("compute/", "report/")):
        sub, dim = kind.split("/")
        samples = sampled_path_samples(nrng, 4 if tiny else int(dim[1:]))
        want = _nonneg_count(samples[-1]) - _nonneg_count(samples[0])
        call = CliCall(workdir, name, [sub, "--input", inp], {inp: _sampled_obj(samples)})
        judge = _judge_flow(want) if sub == "compute" else _judge_report(want)
        return cli_op(call, kind, 0, judge)
    if kind == "toeplitz":
        m_max = 2 if tiny else 6
        return cli_op(CliCall(workdir, name, ["toeplitz", "--m-max", str(m_max)]),
                      kind, 0, _judge_toeplitz(m_max))
    if kind == "metrics":
        n = 4 if tiny else 32
        argv = ["metrics", "--trunc-dim", str(n), "--format", "csv"]
        return cli_op(CliCall(workdir, name, argv), kind, 0, _judge_metrics(n))
    if kind == "axioms":
        # the law checks' seed follows the op's position, not the run seed:
        # their cost varies 2x between seeds, which would swamp the spread
        argv = ["axioms", "--trials", "1" if tiny else "2", "--seed", str(k)]
        return cli_op(CliCall(workdir, name, argv), kind, 0, _judge_axioms)
    if kind == "graded":
        p, q = rng.randint(3, 6), rng.randint(2, 5)
        r = rng.randint(1, min(p, q) - 1)
        block = (nrng.standard_normal((q, r)) + 1j * nrng.standard_normal((q, r))) @ (
            nrng.standard_normal((r, p)) + 1j * nrng.standard_normal((r, p))
        )
        rank = int(np.linalg.matrix_rank(block))
        obj = {"p": p, "q": q, "A": {"rows": q, "cols": p, "re": block.real.tolist(),
                                     "im": block.imag.tolist()}}
        argv = ["graded", "--input", inp, "--seed", str(seed)]
        return cli_op(CliCall(workdir, name, argv, {inp: obj}), kind, 0,
                      _judge_graded((p - rank) - (q - rank)))
    if kind == "zigzag":
        obj = _sampled_obj(zigzag_samples(nrng, rng.randint(4, 8)))
        argv = ["compute", "--input", inp, "--max-depth", "2"]
        return cli_op(CliCall(workdir, name, argv, {inp: obj}), kind, 2)
    if kind == "toeplitz_file":
        m = 4 if tiny else 32
        obj = {"kind": "family", "family": {"name": "toeplitz_line", "params": {"m": m}}}
        # m = 32 is inconclusive (exit 2): the oracle's 257-point grid is too
        # coarse for the wrap-around eigenvalue, after phillips and pairsum ran
        return cli_op(CliCall(workdir, name, ["compute", "--input", inp], {inp: obj}),
                      kind, 2 if m == 32 else 0, None if m == 32 else _judge_flow(0))
    raise ValueError(f"unknown CLI kind {kind!r}")


# ------------------------------------------------------------------ schedule

#: flow_small: per-call overhead at dimension 2-8, the axiom-suite regime
FLOW_SMALL = ("trig_random", "normalization", "invertible_drift", "toeplitz_line",
              "trig_random_deg8", "concat")
#: flow_large: dense kernels at dimension 48-128; trig paths use endpoint gap
#: 0.5 so each certifies in one segment and its cost is set by its dimension.
#: With 21 ops the median and the tail rank (10 samples beyond) both fall in
#: the middle of the twelve dimension-64 paths.
FLOW_LARGE = ("trig_random/64", "toeplitz_line/49", "trig_random/64", "trig_random/48",
              "trig_random/64", "fuglede_line/128", "trig_random/64", "toeplitz_line/49",
              "trig_random/64", "trig_random/96", "trig_random/64", "trig_random/48",
              "trig_random/64", "toeplitz_line/49", "trig_random/64", "trig_random/128",
              "trig_random/64", "trig_random/48", "trig_random/64", "trig_random/64",
              "trig_random/64")
#: cli_mixed: every subcommand, sampled paths, and two inputs that end
#: inconclusive. Three cycles (48 ops, ``--seconds 30``) put as many
#: operations below the six dimension-16 computes as above them, so the
#: median is the middle of that group, and the tail rank (10 samples beyond)
#: in the middle of the nine Toeplitz tables.
CLI_MIXED = ("compute/d4", "toeplitz", "report/d4", "compute/d16", "metrics", "compute/d8",
             "toeplitz", "graded", "report/d8", "axioms", "compute/d16", "graded",
             "report/d16", "toeplitz", "zigzag", "toeplitz_file")

WORKLOADS = {"flow_small": FLOW_SMALL, "flow_large": FLOW_LARGE, "cli_mixed": CLI_MIXED}

#: seconds one pass over one cycle takes on the reference machine, with the
#: host-speed probes around each operation
NOMINAL_CYCLE_S = {"flow_small": 0.40, "flow_large": 15.5, "cli_mixed": 4.8}


#: every operation runs once per pass; its latency is the mean of its passes
#: at reference host speed (see ``hostspeed.py``)
PASSES = 2


def cycles_for(workload: str, seconds: float) -> int:
    """Cycles in one pass, so that all passes take about ``seconds``; at
    least one."""
    return max(1, round(seconds / (PASSES * NOMINAL_CYCLE_S[workload])))


def flow_spec(kind: str, rng: random.Random, tiny: bool) -> dict:
    seed = rng.randrange(2**31)
    dim = rng.randint(2, 8)
    fam, _, size = kind.partition("/")
    if fam == "trig_random":
        if tiny or not size:
            return {"family": fam, "params": {"degree": 3}, "seed": seed, "dim": dim}
        return {"family": fam, "params": {"gap": 0.5}, "seed": seed, "dim": int(size)}
    if fam == "trig_random_deg8":
        return {"family": "trig_random", "params": {"degree": 8, "scale": 4.0},
                "seed": seed, "dim": dim}
    if fam == "toeplitz_line":
        m = rng.randint(1, 3) if tiny or not size else (int(size) - 1) // 2
        return {"family": fam, "params": {"m": m}}
    if fam == "fuglede_line":
        # fixed n: the certified segments, cost and memory of the line all
        # change with n, which would swamp the spread of a one-per-pass op
        return {"family": fam, "params": {"N": 8, "n": 3} if tiny else {"N": 128, "n": 40}}
    return {"family": fam, "seed": seed, "dim": dim}


def make_ops(workload: str, seed: int, seconds: float, workdir: str, *,
             tiny: bool = False, warmup: bool = False, trace_hook=None) -> list[Op]:
    """The operations of one run, in order.

    ``warmup`` gives one tiny operation of each kind (the set-up calls);
    ``tiny`` gives the first operation of the cycle at a tiny size.
    """
    cycle = WORKLOADS[workload]
    if warmup:
        kinds, tiny = list(dict.fromkeys(cycle)), True
    elif tiny:
        kinds = [cycle[0]]
    else:
        kinds = list(cycle) * cycles_for(workload, seconds)
    ops = []
    for k, kind in enumerate(kinds):
        # warm-up inputs do not depend on the seed, so set-up costs the same
        rng = random.Random(f"{workload}:{'warm-up' if warmup else seed}:{k}")
        if workload == "cli_mixed":
            ops.append(make_cli_op(kind, rng, workdir, k, tiny))
        else:
            ops.append(flow_op(flow_spec(kind, rng, tiny), kind, trace_hook))
    return ops
