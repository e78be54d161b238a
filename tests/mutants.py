"""Soundness mutants: one-line changes of the code a certificate rests on,
each with the tests that must kill it.

``MUTANTS`` holds one entry per mutant: a name, the file under
``src/specflowlab``, the exact text replaced, which occurs once in ``src/``
(``test_mutants.py`` checks it, so a refactor updates the table), the
replacement, and a level. A soundness entry names the tests that must
kill it and the level of the kill: ``claim`` when the mutant gives a wrong
value, certificate or refusal on a path, ``digit`` when its answers stay
true and only a pinned boundary, digit or formula tells it apart. An
``equivalent`` entry changes no result, names no test and says why.

    python tests/mutants.py

copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory per soundness mutant, applies it there, runs its tests with
``pytest -x`` at one BLAS thread and prints killed or survived per entry.
It exits 1 if a soundness mutant survives, if its tests cannot run, or if
a replaced text does not occur exactly once. The named tests pass on the
unmutated code: tier-1 runs them.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specflowlab"


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    level: str  # "claim", "digit" or "equivalent"
    tests: tuple[str, ...]
    note: str


MUTANTS = (
    Mutant(
        "phillips_tolerance_without_step_share", "specflow.py",
        "float(np.min(dist - _tolerances(path, steps, mags)))",
        "float(np.min(dist - _rounding_slack(path, mags)))",
        "claim", ("tests/test_acceptance.py::test_criterion_04_axiom_suite",),
        "phillips certifies a segment without the motion between its samples",
    ),
    Mutant(
        "ledger_infers_when_either_end_clears", "specflow.py",
        "if clear[i] > tol and clear[j] > tol:",
        "if clear[i] > tol or clear[j] > tol:",
        "claim", ("tests/test_acceptance.py::test_criterion_02_four_way_agreement",),
        "the oracle fills counts across a step that one end does not clear",
    ),
    Mutant(
        "affine_path_given_half_its_step", "specflow.py",
        'return 0.5 if path.regularity.soundness == "lipschitz" else 1.0',
        "return 0.5",
        "digit", ("tests/test_cli.py::test_toeplitz_line_oracle_guard_boundary[32-2]",),
        "an affine path's samples need beat only half the step to a neighbour",
    ),
    Mutant(
        "tolerance_without_rounding_slack", "specflow.py",
        "return _neighbour_steps(steps) * _step_share(path) + _rounding_slack(path, mags)",
        "return _neighbour_steps(steps) * _step_share(path)",
        "digit",
        ("tests/test_corpus.py::test_each_run_exits_reads_and_refuses_as_recorded[compute_line36]",),
        "sample tolerances leave out the rounding of eigvalsh and the evaluator",
    ),
    Mutant(
        "clearance_without_rounding_slack", "specflow.py",
        "return np.min(mags, axis=-1) - 2.0 * _rounding_slack(path, mags)",
        "return np.min(mags, axis=-1)",
        "digit",
        ("tests/test_crossing_ledger.py::test_clearance_gives_up_twice_the_rounding_slack",),
        "the ledger's clearance leaves out the rounding of both ends' eigenvalues",
    ),
    Mutant(
        "gamma_zero", "paths.py",
        "return 4 * dim * 2.0**-53",
        "return 0.0",
        "digit",
        ("tests/test_axioms.py::test_component_label_refuses_what_the_end_check_refuses",),
        "no declared margin gives up any rounding slack",
    ),
    Mutant(
        "ledger_counts_positive_for_nonnegative", "specflow.py",
        "np.count_nonzero(w >= 0.0, axis=1)",
        "np.count_nonzero(w > 0.0, axis=1)",
        "claim",
        ("tests/test_diagonal_routes.py::test_diagonal_paths_give_the_dense_routes_bits",),
        "the oracle counts an eigenvalue at zero as negative, and refuses a true "
        "declaration where one crosses",
    ),
    Mutant(
        "rank_below_includes_eps", "specflow.py",
        "(v >= 0.0) & (v < eps)",
        "(v >= 0.0) & (v <= eps)",
        "equivalent", (),
        "_rank_below is read only at the ends of a certified segment, whose Weyl "
        "margin is positive: each |eigenvalue| there is farther from eps than its "
        "tolerance, which is >= 0, so none equals eps",
    ),
)


def occurrences(text: str) -> int:
    """How often ``text`` occurs in the package's source."""
    return sum(f.read_text().count(text) for f in sorted(PACKAGE.glob("*.py")))


def run(m: Mutant) -> int:
    """pytest's exit code for the tests of ``m`` on a mutated copy: 1 when
    a test failed (killed), 0 when all passed (survived)."""
    with tempfile.TemporaryDirectory() as work:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(work) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = Path(work) / "src" / "specflowlab" / m.file
        target.write_text(target.read_text().replace(m.text, m.replacement))
        env = {**os.environ, "PYTHONPATH": str(Path(work) / "src"),
               "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
    return done.returncode


def main() -> int:
    bad = 0
    for m in MUTANTS:
        if occurrences(m.text) != 1 or m.text not in (PACKAGE / m.file).read_text():
            print(f"{m.name}: its text does not occur exactly once, in {m.file}")
            bad += 1
            continue
        if m.level == "equivalent":
            print(f"{m.name}: equivalent, not run")
            continue
        start = time.perf_counter()
        code = run(m)
        outcome = {0: "survived", 1: "killed"}.get(code, f"not run (pytest exit {code})")
        print(f"{m.name}: {outcome} ({m.level}), {time.perf_counter() - start:.1f} s")
        bad += code != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
