"""Command-line front end.

Subcommands: compute (flow of a path file), metrics (separation table),
toeplitz (index-vs-flow sweeps), axioms (law checks), graded (off-diagonal
block reports), report (flow + certificate + crossing ledger bundle).

Outputs are canonical JSON (or CSV for tables), so a given input, seed
and tolerance always produce byte-identical files. Exit codes: 0 success,
1 bad input, 2 certification could not be completed, 3 internal
cross-check disagreement. SPECFLOW_THREADS>1 maps independent table rows
over a thread pool; results keep their order, so output bytes do not
depend on the thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import serialize as sz
from .axioms import run_all_checks
from .errors import CertificationError, ConsistencyFault, InputError
from .graded import eigenpair_cancellation_check, index_stability_check
from .metrics import metric_separation_report
from .specflow import SfOptions, certify_invertible, sf_all_methods
from .toeplitz import cyclic_shift_sweep, power_sweep

__all__ = ["main", "build_parser"]


def _pmap(fn, items):
    """Ordered map, threaded when SPECFLOW_THREADS asks for it."""
    items = list(items)
    setting = os.environ.get("SPECFLOW_THREADS", "1")
    try:
        threads = int(setting)
    except ValueError:
        raise InputError(f"SPECFLOW_THREADS must be an integer, got {setting!r}") from None
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _emit(text: str, out: str | None) -> None:
    if out:
        sz.write_text(out, text)
    else:
        sys.stdout.write(text)


def _sf_options(args) -> SfOptions:
    return SfOptions(samples=args.samples, max_depth=args.max_depth)


def _load_input(args) -> dict:
    if not args.input:
        raise InputError("this command needs --input FILE")
    try:
        obj = sz.read_json(args.input)
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{args.input} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{args.input} must hold a JSON object")
    return obj


def _require_json(args) -> None:
    if args.format != "json":
        raise InputError("only the metrics table supports --format csv")


def _cmd_compute(args) -> str:
    _require_json(args)
    path = sz.path_from_obj(_load_input(args))
    opts = _sf_options(args)
    result = sf_all_methods(path, opts)
    return sz.dumps_json(
        {
            "value": result["value"],
            "methods": result["methods"],
            "certificate": sz.certificate_to_obj(result["phillips_certificate"]),
        }
    )


def _cmd_report(args) -> str:
    _require_json(args)
    path = sz.path_from_obj(_load_input(args))
    opts = _sf_options(args)
    result = sf_all_methods(path, opts)
    return sz.dumps_json(
        {
            "value": result["value"],
            "methods": result["methods"],
            "certificate": sz.certificate_to_obj(result["phillips_certificate"]),
            "crossing_ledger": result["crossing_ledger"],
            "invertibility": certify_invertible(path, opts),
        }
    )


def _metric_row_obj(row) -> dict:
    return {
        "family": row.family,
        "n": row.n,
        "d_N": row.d_N,
        "d_W": row.d_W,
        "d_R": row.d_R,
        "d_G": row.d_G,
        "res_N": row.res_N,
        "res_W": row.res_W,
        "res_R": row.res_R,
        "res_G": row.res_G,
    }


def _cmd_metrics(args) -> str:
    if args.input:
        model, families, ns = sz.model_from_obj(_load_input(args))
    else:
        from .opmodel import FAMILIES, DiagonalModel

        model = DiagonalModel(args.trunc_dim, args.law)
        families = list(FAMILIES)
        ns = None
    if ns is None:
        ns = list(range(1, min(33, model.trunc_dim)))
    tasks = [(fam, n) for fam in families for n in ns]

    def one(task):
        fam, n = task
        got = metric_separation_report(model, [fam], [n])
        return got[0] if got else None  # e.g. swap skips n = 1

    rows = [r for r in _pmap(one, tasks) if r is not None]
    if args.format == "csv":
        return sz.metrics_csv(rows)
    return sz.dumps_json([_metric_row_obj(r) for r in rows])


def _cmd_toeplitz(args) -> str:
    _require_json(args)
    opts = _sf_options(args)
    if args.power is not None:
        reports = power_sweep(args.m_max, range(1, args.power + 1), opts)
    else:
        reports = _pmap(
            lambda m: cyclic_shift_sweep([m], opts)[0], range(1, args.m_max + 1)
        )
    return sz.dumps_json(reports)


def _cmd_axioms(args) -> str:
    _require_json(args)
    reports = run_all_checks(
        seed=args.seed,
        concat_trials=args.trials,
        homotopy_trials=max(1, args.trials // 4),
        normalization_trials=max(1, args.trials // 4),
        vanishing_trials=args.trials,
        opts=_sf_options(args),
    )
    return sz.dumps_json(reports)


def _cmd_graded(args) -> str:
    _require_json(args)
    g = sz.graded_from_obj(_load_input(args))
    out = {
        "p": g.p,
        "q": g.q,
        "kernel_index": g.kernel_index(tol=args.tol),
        "spectral_gap": g.spectral_gap(tol=args.tol),
        "cancellation": eigenpair_cancellation_check(g),
    }
    if out["spectral_gap"] > 0.0:
        from .graded import graded_window_dim

        out["window_dim"] = graded_window_dim(g, 0.5 * out["spectral_gap"])
        out["stability"] = index_stability_check(g, trials=args.trials, seed=args.seed)
    return sz.dumps_json(out)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1); argparse's own
    exit code 2 would read as an inconclusive certification."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specflow",
        description="Certified spectral flow for paths of Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, fn, summary, *, input_help=None, sampling=False):
        p = sub.add_parser(name, help=summary)
        if input_help:
            p.add_argument("--input", help=input_help)
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )
        if sampling:
            p.add_argument("--max-depth", type=int, default=24, help="bisection depth cap")
            p.add_argument("--samples", type=int, default=33, help="initial grid size")
        p.set_defaults(fn=fn)
        return p

    subcommand(
        "compute", _cmd_compute, "spectral flow of a path file, all methods",
        input_help="input JSON file", sampling=True,
    )
    subcommand(
        "report", _cmd_report, "flow plus certificate and crossing ledger",
        input_help="input JSON file", sampling=True,
    )

    p = subcommand(
        "metrics", _cmd_metrics, "four-distance separation table",
        input_help="input JSON file (optional)",
    )
    p.add_argument("--trunc-dim", type=int, default=64, help="diagonal model size")
    p.add_argument("--law", default="linear", help="diagonal growth law")

    p = subcommand(
        "toeplitz", _cmd_toeplitz, "compression index vs conjugation flow", sampling=True
    )
    p.add_argument("--m-max", type=int, default=8, help="largest truncation radius")
    p.add_argument(
        "--power", type=int, default=None,
        help="sweep shift powers 1..POWER at fixed radius instead of radii",
    )

    p = subcommand("axioms", _cmd_axioms, "run the behavioral law checks", sampling=True)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--trials", type=int, default=20, help="trials per law")

    p = subcommand(
        "graded", _cmd_graded, "off-diagonal block report", input_help="input JSON file"
    )
    p.add_argument("--tol", type=float, default=1e-8, help="rank tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--trials", type=int, default=20, help="stability trials")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except ConsistencyFault as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
