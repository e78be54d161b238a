"""The flow corpus: named paths, and a run list of CLI argument vectors.

``CORPUS`` maps a name to a builder of a fresh path. ``FILES`` holds the
input files, and ``RUNS`` the argument vectors run on them: every
subcommand, both output formats, and every input expected to exit 1 or 2.
This run list is the one list of CLI runs that CI checks. A run records
only what holds on any host: its exit code, a value read from its output
(``_value``), and the prefix of its stderr, one line on a failure and none
on a success; a warning raised in a run is written to its stderr too.
``test_corpus.py`` checks those.

    python tests/corpus.py --digests out.json

runs the list once in this process and writes the sha256 of each run's
output file and stderr, and of each ``CORPUS`` flow: the repr of
``sf_all_methods`` and of ``certify_invertible`` on one fresh path, or
their refusal's class and text, and then the bytes of the path's
``matrices`` (``matrices``), with the numpy version and machine that
wrote them.

    python tests/corpus.py --compare a.json b.json

prints each run or flow whose exit code or digests differ between two
such files, or that only one of them holds, and exits 1 if there is any.
CI writes two such files, under PYTHONHASHSEED 0 and 1, and compares them.
Two such files, written from two checkouts on one host with the same BLAS
thread count, decide a "same bytes" claim. Tier-1 pins the digests of
``corpus_digests.json``, written at one BLAS thread under PYTHONHASHSEED 0,
and skips them on another numpy version or machine: the determinism
contract ties the bytes to one BLAS build, CPU and thread count. The
script uses the package of its own checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from conftest import narrow_dip, random_hermitian, random_invertible_hermitian  # noqa: E402
from specflowlab import cli  # noqa: E402
from specflowlab.axioms import connect_invertibles  # noqa: E402
from specflowlab.errors import SpecFlowError  # noqa: E402
from specflowlab.generators import (  # noqa: E402
    concat_compatible_pair,
    family_path,
    homotopy_family,
    invertible_trig_path,
    normalization_path,
    random_unitary,
    trig_path,
)
from specflowlab.matcore import HermitianMatrix  # noqa: E402
from specflowlab.paths import OperatorPath, lipschitz, path_concat, path_reverse  # noqa: E402
from specflowlab.specflow import certify_invertible, sf_all_methods  # noqa: E402


def _sampled(dim, count):
    rng = np.random.default_rng(300 + dim)
    return OperatorPath.from_samples([random_hermitian(rng, dim) for _ in range(count)])


def _there_and_back(f):
    """f then f backwards: knots at f's, halved and mirrored, and at 1/2."""
    return path_concat(f, path_reverse(f))


def _connector(dim):
    rng = np.random.default_rng(dim)
    t1 = random_invertible_hermitian(rng, dim)
    w = random_unitary(rng, dim).mat
    return connect_invertibles(t1, HermitianMatrix(2.0 * w @ t1.mat @ w.conj().T))


def _homotopy_row(seed, dim):
    row, _s_grid, _label = homotopy_family(seed, dim)
    return row(0.6)


def _trig(seed, dim, **kwargs):
    return lambda: trig_path(seed, dim, **kwargs)


CORPUS = {
    **{f"trig_d{d}_s{s}": _trig(s, d) for d in (2, 5, 16, 64) for s in (1, 2)},
    **{f"trig_gap_d{d}": _trig(3, d, gap=0.5) for d in (48, 64, 128)},
    **{f"trig_deg8_d{d}_s{s}": _trig(s, d, degree=8, scale=4.0) for d in (2, 4, 8) for s in (0, 2)},
    **{f"concat_d{d}": (lambda d=d: path_concat(*concat_compatible_pair(4, d)))
       for d in (2, 6, 48)},
    "concat_partner_d7": lambda: concat_compatible_pair(2, 7)[1],
    "concat_affine_d5": lambda: _there_and_back(_sampled(5, 5)),
    "concat_thirds_d6": lambda: _there_and_back(_sampled(6, 4)),
    "sampled_d3": lambda: _sampled(3, 9),
    # real diagonal samples: two eigenvalues cross up, one down
    "sampled_diag_d5": lambda: OperatorPath.from_samples([np.diag(d) for d in np.linspace(
        [-1.0, 0.5, -2.0, 1.5, 3.0], [1.0, 2.5, 0.7, -1.2, 3.5], 6)]),
    "reverse_concat_d4": lambda: path_reverse(path_concat(*concat_compatible_pair(5, 4))),
    **{f"normalization_d{d}": (lambda d=d: normalization_path(3, d)) for d in (2, 8)},
    **{f"invertible_drift_d{d}": (lambda d=d: invertible_trig_path(3, d)) for d in (3, 64)},
    "linear_interp_d4": lambda: family_path(
        "linear_interp",
        {"a": random_invertible_hermitian(np.random.default_rng(1), 4),
         "b": random_invertible_hermitian(np.random.default_rng(2), 4)},
    ),
    "connector_d5": lambda: _connector(5),
    "homotopy_row_d4": lambda: _homotopy_row(2, 4),
    "homotopy_row_d5": lambda: _homotopy_row(3, 5),
    "fuglede_N8": lambda: family_path("fuglede_line", {"N": 8, "n": 3}),
    "fuglede_N32_signed": lambda: family_path("fuglede_line", {"N": 32, "n": 3, "law": "signed"}),
    "fuglede_N128": lambda: family_path("fuglede_line", {"N": 128, "n": 5}),
    "toeplitz_m4_power3": lambda: family_path("toeplitz_line", {"m": 4, "power": 3}),
    "toeplitz_m31": lambda: family_path("toeplitz_line", {"m": 31}),
    "toeplitz_m32": lambda: family_path("toeplitz_line", {"m": 32}),
    "narrow_dip_declared": lambda: OperatorPath.from_callable(
        narrow_dip, 2, regularity=lipschitz((), [1.29e5])
    ),
}


def _sampled_file(mats) -> dict:
    return {"kind": "sampled", "dim": len(mats[0]), "samples": [
        {"dim": len(m), "re": m.real.tolist(), "im": m.imag.tolist()} for m in mats]}


def _sampled17() -> dict:
    """17 samples at dim 6, read and then checked as one stack."""
    rng = np.random.default_rng(6)
    g = rng.standard_normal((17, 6, 6)) + 1j * rng.standard_normal((17, 6, 6))
    t = np.linspace(0.0, 1.0, 17)[:, None, None]
    h = (np.diag([-2.25, -1.25, -0.25, 0.75, 1.75, 2.75]) + (t - 0.5) * np.eye(6)
         + 0.01 * (g + g.conj().transpose(0, 2, 1)))
    return _sampled_file(h)


def _graded40() -> dict:
    """A dim-40 block (p = 24, q = 16): 20 trials in two stacks of 10."""
    re, im = np.random.default_rng(4).standard_normal((2, 16, 24))
    return {"p": 24, "q": 16, "A": {"rows": 16, "cols": 24, "re": re.tolist(), "im": im.tolist()}}


#: file name -> its text, or a JSON object that ``run_all`` writes by ``json.dumps``
FILES = {
    "trig48.json": '{"kind": "family", "dim": 48, "family": {"name": "trig_random", "seed": 5}}',
    "trig64.json": '{"kind": "family", "dim": 64, "family": {"name": "trig_random", "seed": 5}}',
    "trig48d8.json": (
        '{"kind": "family", "dim": 48, "family": {"name": "trig_random", "seed": 5, '
        '"params": {"degree": 8, "scale": 4}}}'
    ),
    "trig3d16.json": (
        '{"kind": "family", "dim": 3, "family": {"name": "trig_random", "seed": 5, '
        '"params": {"degree": 16}}}'
    ),
    "fuglede128.json": (
        '{"kind": "family", "family": {"name": "fuglede_line", "params": {"N": 128, '
        '"n": 40}}}'
    ),
    "line24.json": '{"kind": "family", "family": {"name": "toeplitz_line", "params": {"m": 24}}}',
    "fuglede.json": (
        '{"kind": "family", "family": {"name": "fuglede_line", "params": {"N": 8, '
        '"n": 3}}}'
    ),
    "graded.json": (
        '{"p": 3, "q": 2, "A": {"rows": 2, "cols": 3, "re": [[1, 0, 0], [0, 0.3, 0]], '
        '"im": [[0, 0, 0], [0, 0, 0]]}}'
    ),
    "sampled3.json": (
        '{"kind": "sampled", "dim": 3, "samples": [{"dim": 3, "re": [[-1, 0.5, 0], [0.5, '
        '2, 0.25], [0, 0.25, -3]], "im": [[0, 0.1, 0], [-0.1, 0, 0], [0, 0, 0]]}, '
        '{"dim": 3, "re": [[-0.5, 0, 0], [0, 1.5, 0], [0, 0, -2]], "im": [[0, 0, 0], [0, '
        '0, 0], [0, 0, 0]]}, {"dim": 3, "re": [[0.1, 0, 0], [0, 1, 0], [0, 0, -1]], '
        '"im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}, {"dim": 3, "re": [[0.7, 0, 0], [0, '
        '0.5, 0], [0, 0, 1.5]], "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}, {"dim": 3, '
        '"re": [[1, 0.5, 0], [0.5, 2, 0.25], [0, 0.25, 3]], "im": [[0, -0.2, 0], [0.2, '
        '0, 0], [0, 0, 0]]}]}'
    ),
    "negzero.json": (
        '{"kind": "family", "family": {"name": "linear_interp", '
        '"params": {"a": {"dim": 3, "re": [[-1, -0.0, 0], [-0.0, 2, 0], [0, 0, 3]], '
        '"im": [[0, -0.0, 0], [-0.0, -0.0, 0], [0, 0, 0]]}, "b": {"dim": 3, "re": [[1, '
        '-0.0, 0], [-0.0, 2, 0], [0, 0, 3]], "im": [[0, -0.0, 0], [-0.0, 0, 0], [0, 0, '
        '0]]}}}}'
    ),
    "model.json": '{"N": 32, "law": "signed", "family": ["swap", "fuglede"], "n": [2, 5, 9, 17]}',
    "model_diag.json": (
        '{"N": 64, "law": "signed", "family": ["rank_one", "lambda", "fuglede"], '
        '"n": [1, 2, 31, 63]}'
    ),
    "rank1.json": '{"p": 2, "q": 1, "A": {"rows": 1, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}}',
    "fuglede8.json": (
        '{"kind": "family", "family": {"name": "fuglede_line", "params": {"N": 8, '
        '"n": 3}}}'
    ),
    "negseed.json": '{"kind": "family", "dim": 4, "family": {"name": "trig_random", "seed": -1}}',
    "gaptrue.json": (
        '{"kind": "family", "dim": 4, "family": {"name": "trig_random", "seed": 1, '
        '"params": {"gap": true}}}'
    ),
    "scaleinf.json": (
        '{"kind": "family", "dim": 4, "family": {"name": "trig_random", "seed": 1, '
        '"params": {"scale": "inf"}}}'
    ),
    "slackend.json": (
        '{"kind": "sampled", "dim": 3, "samples": [{"dim": 3, "re": [[1.5e-8, 0, 0], [0, '
        '1e8, 0], [0, 0, -3]], "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}, {"dim": 3, '
        '"re": [[2, 0, 0], [0, 1e8, 0], [0, 0, -3]], "im": [[0, 0, 0], [0, 0, 0], [0, 0, '
        '0]]}]}'
    ),
    "interpx.json": (
        '{"kind": "family", "family": {"name": "linear_interp", "params": {"a": "x", '
        '"b": {"dim": 1, "re": [[1]], "im": [[0]]}}}}'
    ),
    "boolstr.json": (
        '{"kind": "sampled", "dim": 2, "samples": [{"dim": 2, "re": [[true, 0], [0, '
        '"2"]], "im": [[0, 0], [0, 0]]}, {"dim": 2, "re": [[-1, 0], [0, 2]], "im": [[0, '
        '0], [0, 0]]}]}'
    ),
    "twodims.json": (
        '{"kind": "sampled", "samples": [{"dim": 1, "re": [[1]], "im": [[0]]}, '
        '{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}'
    ),
    "sampled.json": (
        '{"kind": "sampled", "samples": [{"dim": 2, "re": [[-1, 0], [0, 2]], "im": [[0, '
        '0], [0, 0]]}, {"dim": 2, "re": [[0.5, 0], [0, 2]], "im": [[0, 0], [0, 0]]}, '
        '{"dim": 2, "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]}]}'
    ),
    "graded40.json": _graded40(),
    "sampled17.json": _sampled17(),
    # 9 diagonal samples of dim 5 whose first entry crosses zero once
    "sampled_diag.json": _sampled_file(
        [np.diag([t - 0.45, -2.0, 3.0, -4.0, 5.0]) + 0j for t in np.linspace(0.0, 1.0, 9).tolist()]
    ),
    **{f"line{m}.json": json.dumps({"kind": "family", "family": {
        "name": "toeplitz_line", "params": {"m": m}}}) for m in range(31, 41)},
    "digits401.json": '{"kind": "sampled", "samples": [' + ", ".join(
        ['{"dim": 1, "re": [[' + "9" * 401 + ']], "im": [[0]]}'] * 2) + "]}",
    # diagonal ends with no -0.0: two entries cross up, one down
    "interp_diag.json": (
        '{"kind": "family", "family": {"name": "linear_interp", "params": {"a": {"dim": 4, '
        '"re": [[-1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -0.5, 0], [0, 0, 0, 3]], "im": [[0, 0, '
        '0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}, "b": {"dim": 4, "re": [[1.5, 0, '
        '0, 0], [0, 2, 0, 0], [0, 0, 0.75, 0], [0, 0, 0, -1]], "im": [[0, 0, 0, 0], [0, 0, '
        '0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}}}}'
    ),
    # inputs at the edges of the diagonal test: one entry; entries beyond
    # zheevd's unscaled band; a middle sample whose entries all lie below it
    "dim1.json": _sampled_file([np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]])]),
    "diag1e200.json": _sampled_file([np.diag(d) * 1e200 + 0j for d in (
        [-1.0, 2.0, 3.0], [0.5, 2.0, 1.0], [1.0, 2.0, 3.0])]),
    "diag_tiny.json": _sampled_file([np.diag(d) + 0j for d in (
        [-1.0, -1.0, 2.0], [1e-150, -1e-150, 2e-150], [1.0, 1.0, 2.0])]),
    "notjson.json": "{",
    "list.json": "[]",
}

_GUARD = ("certification failed: oracle sample tolerance {} is not below half the endpoint "
          "gap 5.000e-01; increase oracle_samples")
_REACH = {32: "2.500e-01", 33: "2.578e-01", 34: "2.656e-01", 35: "2.734e-01", 36: "2.813e-01",
          37: "2.891e-01", 38: "2.969e-01", 39: "3.047e-01", 40: "3.125e-01"}

#: (name, argv, (exit code, value, prefix of the first stderr line)); the
#: runner appends ``--out NAME.out``
RUNS = [
    ("compute_trig48", ["compute", "--input", "trig48.json"], (0, 0, "")),
    ("metrics_d32_csv", ["metrics", "--trunc-dim", "32", "--format", "csv"], (0, 123, "")),
    ("metrics_d64_signed", ["metrics", "--trunc-dim", "64", "--law", "signed"], (0, 127, "")),
    ("report_trig64", ["report", "--input", "trig64.json"], (0, 0, "")),
    ("report_trig48d8", ["report", "--input", "trig48d8.json"], (0, 0, "")),
    ("report_trig3d16", ["report", "--input", "trig3d16.json"], (0, 0, "")),
    ("report_fuglede128", ["report", "--input", "fuglede128.json"], (0, -1, "")),
    ("report_line24", ["report", "--input", "line24.json"], (0, 0, "")),
    ("report_fuglede", ["report", "--input", "fuglede.json"], (0, -1, "")),
    ("graded", ["graded", "--input", "graded.json"], (0, 1, "")),
    ("graded_tol", ["graded", "--input", "graded.json", "--tol", "0.5"], (0, 1, "")),
    ("graded40", ["graded", "--input", "graded40.json"], (0, 8, "")),
    ("metrics_model", ["metrics", "--input", "model.json"], (0, 8, "")),
    ("metrics_d2_csv", ["metrics", "--trunc-dim", "2", "--format", "csv"], (0, 3, "")),
    ("metrics_d3_shifted", ["metrics", "--trunc-dim", "3", "--law", "shifted"], (0, 7, "")),
    ("metrics_model_diag", ["metrics", "--input", "model_diag.json"], (0, 12, "")),
    ("metrics_model_csv", ["metrics", "--input", "model.json", "--format", "csv"], (0, 8, "")),
    ("compute_sampled17", ["compute", "--input", "sampled17.json"], (0, 1, "")),
    ("report_sampled17", ["report", "--input", "sampled17.json"], (0, 1, "")),
    ("compute_sampled_diag", ["compute", "--input", "sampled_diag.json"], (0, 1, "")),
    ("report_sampled_diag", ["report", "--input", "sampled_diag.json"], (0, 1, "")),
    ("toeplitz_m8", ["toeplitz", "--m-max", "8"], (0, [0] * 8, "")),
    ("toeplitz_m12", ["toeplitz", "--m-max", "12"], (0, [0] * 12, "")),
    ("toeplitz_power5", ["toeplitz", "--m-max", "4", "--power", "5"], (0, [0, 0, 0, 0, 0], "")),
    ("report_negzero", ["report", "--input", "negzero.json"], (0, 1, "")),
    ("report_interp_diag", ["report", "--input", "interp_diag.json"], (0, 1, "")),
    ("report_sampled3", ["report", "--input", "sampled3.json"], (0, 2, "")),
    *[(f"{sub}_{name}", [sub, "--input", f"{name}.json"], (0, value, ""))
      for name, value in (("dim1", 1), ("diag1e200", 1), ("diag_tiny", 2))
      for sub in ("compute", "report")],
    ("compute_sampled3_s17", ["compute", "--input", "sampled3.json", "--samples", "17"],
     (0, 2, "")),
    ("axioms_t8_s3", ["axioms", "--trials", "8", "--seed", "3"], (0, 16, "")),
    ("axioms_t2_s9", ["axioms", "--trials", "2", "--seed", "9"], (0, 16, "")),
    ("axioms_t2_s3", ["axioms", "--trials", "2", "--seed", "3"], (0, 16, "")),
    ("axioms_t0", ["axioms", "--trials", "0", "--seed", "2"], (0, 16, "")),
    ("compute_sampled", ["compute", "--input", "sampled.json"], (0, 1, "")),
    ("compute_line31", ["compute", "--input", "line31.json"], (0, 0, "")),
    *[(f"{sub}_line{m}", [sub, "--input", f"line{m}.json"], (2, None, _GUARD.format(reach)))
      for m, reach in _REACH.items() for sub in ("compute", "report")],
    ("report_fuglede128_depth2", ["report", "--input", "fuglede128.json", "--max-depth", "2"],
     (2, None, "certification failed: subdivision exhausted at depth 2 (window t in [0, 0.25])")),
    *[(name, argv, (1, None, "error: " + prefix)) for name, argv, prefix in [
        ("graded_trials_neg", ["graded", "--input", "rank1.json", "--trials", "-1"],
         "argument --trials: must be at least 0, got -1"),
        ("graded_tol_nan", ["graded", "--input", "rank1.json", "--tol", "nan"],
         "tol must be finite and nonnegative, got nan"),
        ("toeplitz_m0", ["toeplitz", "--m-max", "0"],
         "argument --m-max: must be at least 1, got 0"),
        ("compute_format", ["compute", "--input", "fuglede8.json", "--format", "json"],
         "unrecognized arguments: --format json"),
        ("metrics_model_trunc_dim",
         ["metrics", "--input", "model.json", "--trunc-dim", "64", "--law", "signed"],
         "--input gives the model: --trunc-dim and --law do not apply"),
        ("axioms_seed_neg", ["axioms", "--seed", "-1", "--trials", "1"],
         "seed must be an int >= 0, got -1"),
        ("graded_seed_neg", ["graded", "--input", "rank1.json", "--seed", "-1"],
         "seed must be an int >= 0, got -1"),
        ("compute_negseed", ["compute", "--input", "negseed.json"],
         "seed must be an int >= 0, got -1"),
        ("axioms_trials_neg", ["axioms", "--trials", "-1"],
         "argument --trials: must be at least 0, got -1"),
        ("compute_gaptrue", ["compute", "--input", "gaptrue.json"],
         "gap: cannot read True as float"),
        # the slack, not the gap itself, decides this refusal
        ("compute_slackend", ["compute", "--input", "slackend.json"],
         "path endpoints must be invertible: min |spec| = ("),
        ("compute_interpx", ["compute", "--input", "interpx.json"],
         "matrix entries must be numbers, got str entries"),
        ("compute_boolstr", ["compute", "--input", "boolstr.json"],
         "matrix entries must be numbers, got bool entries"),
        ("compute_digits401", ["compute", "--input", "digits401.json"],
         "matrix entries must be numbers: int too large to convert to float"),
        ("compute_twodims", ["compute", "--input", "twodims.json"],
         "sample dimensions differ"),
        ("compute_scaleinf", ["compute", "--input", "scaleinf.json"],
         "scale must be finite, got inf"),
        ("graded_no_input", ["graded"], "this command needs --input FILE"),
        ("compute_missing", ["compute", "--input", "missing.json"], "cannot read missing.json: "),
        ("compute_notjson", ["compute", "--input", "notjson.json"],
         "notjson.json is not valid JSON: "),
        ("report_list", ["report", "--input", "list.json"], "list.json must hold a JSON object"),
        ("unknown_command", ["frobnicate"], "argument command: invalid choice: "),
        ("option_first", ["--out", "x.json", "compute", "--input", "fuglede8.json"],
         "option --out must follow the subcommand: specflow COMMAND --out"),
    ]],
]


def _value(command: str, text: str):
    """What a run's output says on any host: the flow, the kernel index,
    the conjugation flows of a sweep, the passed law checks, the rows of a
    table."""
    if command == "metrics" and not text.startswith("["):
        return text.count("\n") - 1
    obj = json.loads(text)
    if command in ("compute", "report"):
        return obj["value"]
    if command == "graded":
        return obj["kernel_index"]
    if command == "toeplitz":
        return [r["sf_conjugation_path"] for r in obj]
    if command == "axioms":
        return sum(r["ok"] for r in obj)
    return len(obj)


def run_all(workdir) -> dict:
    """Write ``FILES`` into ``workdir`` and run ``RUNS`` there in this
    process; returns name -> (exit code, output text or None, stderr). The
    warnings a run raises are appended to its stderr, one line each."""
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in FILES.items():
            Path(name).write_text(text if isinstance(text, str) else json.dumps(text))
        for name, argv, _ in RUNS:
            out, err = Path(f"{name}.out"), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([*argv, "--out", out.name])
            err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
            results[name] = code, out.read_text() if out.exists() else None, err.getvalue()
    finally:
        os.chdir(cwd)
    return results


def outcome(argv: list, result: tuple) -> tuple:
    """A run's exit code, value and first stderr line."""
    code, text, err = result
    value = _value(argv[0], text) if code == 0 else None
    return code, value, err.partition("\n")[0]


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def digests(results: dict) -> dict:
    """Per run: its exit code and the sha256 of its output and stderr."""
    return {name: {"code": code, "out": _sha256(text), "stderr": _sha256(err)}
            for name, (code, text, err) in results.items()}


def _refused_or_repr(call, path) -> str:
    try:
        return repr(call(path))
    except SpecFlowError as exc:
        return f"{type(exc).__name__}: {exc}"


def matrices(path) -> str:
    """The sha256 of the bytes of ``path.matrices`` on 9 uniform points and
    the path's knots: asked after the flows, it reads the matrices they
    kept and evaluates the others."""
    ts = np.linspace(0.0, 1.0, 9).tolist() + list(path.regularity.knots)
    return hashlib.sha256(b"".join(m.mat.tobytes() for m in path.matrices(ts))).hexdigest()


def flow_digests() -> dict:
    """Per ``CORPUS`` path, named ``flow:NAME``: the sha256 of the repr of
    ``sf_all_methods``, then ``certify_invertible``, then ``matrices`` on
    one fresh path, or of the refusal's class and text."""
    found = {}
    for name, make in CORPUS.items():
        path = make()
        found[f"flow:{name}"] = {call.__name__: _sha256(_refused_or_repr(call, path))
                                 for call in (sf_all_methods, certify_invertible, matrices)}
    return found


def differences(a: dict, b: dict, names: tuple[str, str]) -> list[str]:
    """One line per run or flow whose exit code or digests differ between
    the digest maps ``a`` and ``b``, or that only one holds; ``names`` are
    the two files' names."""
    lines = []
    for run in sorted(a.keys() | b.keys()):
        if run not in a or run not in b:
            lines.append(f"{run}: only in {names[run in b]}")
        elif a[run] != b[run]:
            fields = " ".join(k for k in sorted(a[run]) if a[run][k] != b[run].get(k))
            lines.append(f"{run}: {fields} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--digests", metavar="OUT",
                        help="write each run's exit code and output and stderr sha256, "
                             "and each flow's sha256, here")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the runs and flows whose digests differ between two such files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(name).read_text())["digests"] for name in args.compare)
        lines = differences(a, b, tuple(args.compare))
        for line in lines:
            print(line)
        return 1 if lines else 0
    with tempfile.TemporaryDirectory() as work:
        found = digests(run_all(work))
    flows = flow_digests()
    Path(args.digests).write_text(json.dumps(
        {"runs": len(found), "flows": len(flows), "digests": {**found, **flows},
         "numpy": np.__version__, "machine": platform.machine()},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
