"""Command-line front end.

Subcommands: compute (flow of a path file), metrics (separation table),
toeplitz (index-vs-flow sweeps), axioms (law checks), graded (off-diagonal
block reports), report (flow + certificate + crossing ledger bundle).

Outputs are canonical JSON (or CSV for tables), so a given input, seed
and tolerance always produce byte-identical files. Exit codes: 0 success,
1 bad input, 2 certification could not be completed, 3 internal
cross-check disagreement.

The module imports errors, paths, specflow and serialize, which every
subcommand runs, and builds its parser once, at import. Each handler
imports the layers only it runs when it runs, so ``compute`` and ``report``
never load the metric, Toeplitz, graded or axiom layers.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize as sz
from .errors import CertificationError, ConsistencyFault, InputError
from .paths import OperatorPath
from .specflow import SfOptions, certify_invertible, sf_all_methods

__all__ = ["main", "build_parser"]


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


def _flow(args) -> tuple[dict, dict, OperatorPath, SfOptions]:
    """Every method on the input path: the compute payload, the methods'
    result, and the path and options they ran with."""
    path = sz.path_from_obj(_load_input(args))
    opts = _sf_options(args)
    result = sf_all_methods(path, opts)
    payload = {
        "value": result["value"],
        "methods": result["methods"],
        "certificate": sz.certificate_to_obj(result["phillips_certificate"]),
    }
    return payload, result, path, opts


def _cmd_compute(args) -> str:
    return sz.dumps_json(_flow(args)[0])


def _cmd_report(args) -> str:
    payload, result, path, opts = _flow(args)
    payload["crossing_ledger"] = result["crossing_ledger"]
    payload["invertibility"] = certify_invertible(path, opts)
    return sz.dumps_json(payload)


def _cmd_metrics(args) -> str:
    from .metrics import CSV_COLUMNS, metric_separation_report
    from .opmodel import FAMILIES, DiagonalModel

    if args.input:
        model, families, ns = sz.model_from_obj(_load_input(args))
    else:
        model = DiagonalModel(args.trunc_dim, args.law)
        families = list(FAMILIES)
        ns = None
    rows = metric_separation_report(model, families, ns)
    if args.format == "csv":
        return sz.metrics_csv(rows)
    return sz.dumps_json([{col: getattr(r, col) for col in CSV_COLUMNS} for r in rows])


def _cmd_toeplitz(args) -> str:
    from .toeplitz import cyclic_shift_sweep, power_sweep

    opts = _sf_options(args)
    if args.power is not None:
        reports = power_sweep(args.m_max, range(1, args.power + 1), opts)
    else:
        reports = cyclic_shift_sweep(range(1, args.m_max + 1), opts)
    return sz.dumps_json(reports)


def _cmd_axioms(args) -> str:
    from .axioms import run_all_checks

    reports = run_all_checks(seed=args.seed, trials=args.trials, opts=_sf_options(args))
    return sz.dumps_json(reports)


def _cmd_graded(args) -> str:
    from .graded import eigenpair_cancellation_check, index_stability_check

    g = sz.graded_from_obj(_load_input(args))
    out = {
        "p": g.p,
        "q": g.q,
        "kernel_index": g.kernel_index(),
        "spectral_gap": g.spectral_gap(tol=args.tol),
        "cancellation": eigenpair_cancellation_check(g),
    }
    if out["spectral_gap"] > 0.0:
        stability = index_stability_check(g, trials=args.trials, seed=args.seed, tol=args.tol)
        # the check starts by requiring the window dimension at half the
        # gap to equal the kernel index, and raises otherwise
        out["window_dim"] = stability["base_index"]
        out["stability"] = stability
    return sz.dumps_json(out)


def _count(low: int):
    """An argparse type: an int of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


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

    def subcommand(name, summary, *, input_help=None, sampling=False):
        p = sub.add_parser(name, help=summary)
        if input_help:
            p.add_argument("--input", help=input_help)
        p.add_argument("--out", help="write output here instead of stdout")
        if sampling:
            p.add_argument(
                "--max-depth", type=int, default=SfOptions.max_depth, help="bisection depth cap"
            )
            p.add_argument(
                "--samples", type=int, default=SfOptions.samples, help="initial grid size"
            )
        return p

    subcommand(
        "compute", "spectral flow of a path file, all methods",
        input_help="input JSON file", sampling=True,
    )
    subcommand(
        "report", "flow plus certificate and crossing ledger",
        input_help="input JSON file", sampling=True,
    )

    p = subcommand(
        "metrics", "four-distance separation table",
        input_help="input JSON file (optional)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--trunc-dim", type=int, default=64, help="diagonal model size")
    p.add_argument("--law", default="linear", help="diagonal growth law")

    p = subcommand("toeplitz", "compression index vs conjugation flow", sampling=True)
    p.add_argument("--m-max", type=_count(1), default=8, help="largest truncation radius")
    p.add_argument(
        "--power", type=_count(1), default=None,
        help="sweep shift powers 1..POWER at fixed radius instead of radii",
    )

    p = subcommand("axioms", "run the behavioral law checks", sampling=True)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--trials", type=_count(0), default=20, help="trials per law")

    p = subcommand("graded", "off-diagonal block report", input_help="input JSON file")
    p.add_argument(
        "--tol", type=float, default=1e-8,
        help="singular values at or below TOL do not count for the spectral gap",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--trials", type=_count(0), default=20, help="stability trials")

    return parser


#: the parser ``main`` uses, built once per process (``build_parser`` builds
#: a fresh one)
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # the handler is looked up by name at call time, so a rebound
        # ``_cmd_<command>`` is the one that runs
        text = globals()[f"_cmd_{args.command}"](args)
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
