"""Each command loads only the layers it runs: the package exports its names
lazily, and the CLI imports a subcommand's layers when the subcommand runs.
Every check starts a fresh interpreter, since this test process has
imported every layer already. The path layer loads no method, and the
methods read none of a path's privates."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from specflowlab.generators import line_path
from specflowlab.matcore import HermitianMatrix
from specflowlab.serialize import path_to_obj

SRC = Path(__file__).resolve().parents[1] / "src"

#: the layers a flow computation never runs
UNUSED_BY_FLOWS = {"metrics", "graded", "axioms", "toeplitz"}
#: and those a flow on a sampled file never runs: the closed-form families
UNUSED_BY_SAMPLED_FLOWS = UNUSED_BY_FLOWS | {"generators", "opmodel", "transforms"}


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with the package on its path;
    ``code`` leaves its findings in ``out``, printed as JSON with the
    specflowlab modules loaded by then."""
    tail = (
        "\nimport json, sys\n"
        "out['loaded'] = sorted(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('specflowlab.'))\n"
        "print(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", "out = {}\n" + code + tail],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_flow_modules_load_no_other_layer():
    out = _run("import specflowlab.cli, specflowlab.generators, specflowlab.specflow")
    assert out["loaded"] == [
        "cli", "errors", "generators", "matcore", "opmodel", "paths", "projpair", "serialize",
        "specflow", "transforms",
    ]


def test_the_path_layer_loads_no_method():
    assert _run("import specflowlab.paths")["loaded"] == ["errors", "matcore", "paths"]


def test_the_methods_read_no_private_attribute():
    """``specflow`` reads a path, and every other object, through public
    names only; dunders aside, no ``x._name`` appears in it."""
    tree = ast.parse((SRC / "specflowlab" / "specflow.py").read_text())
    private = [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert private == []


def test_compute_and_report_load_no_other_layer(tmp_path):
    """On a sampled file they load no family builder either, nor
    ``numpy.ma``, unless ``import numpy`` loads it (numpy 1)."""
    path = line_path(HermitianMatrix(np.diag([-1.0, 2.0])), HermitianMatrix(np.diag([1.0, 2.0])))
    f = tmp_path / "path.json"
    f.write_text(json.dumps(path_to_obj(path, samples=5)))
    for sub in ("compute", "report"):
        out = _run(
            "import sys, numpy\n"
            "out['ma_by_numpy'] = 'numpy.ma' in sys.modules\n"
            "from specflowlab import cli\n"
            f"out['code'] = cli.main([{sub!r}, '--input', {str(f)!r},"
            f" '--out', {str(tmp_path / sub)!r}])\n"
            "out['ma'] = 'numpy.ma' in sys.modules"
        )
        assert out["code"] == 0
        assert json.loads((tmp_path / sub).read_text())["value"] == 1
        assert "serialize" in out["loaded"]
        assert UNUSED_BY_SAMPLED_FLOWS.isdisjoint(out["loaded"]), out["loaded"]
        assert out["ma"] == out["ma_by_numpy"]


def test_every_export_is_its_module_binding():
    out = _run(
        "import importlib, sys, specflowlab\n"
        "out['dir'] = dir(specflowlab)\n"
        "out['metrics_before'] = 'specflowlab.metrics' in sys.modules\n"
        "out['metrics_by_name'] = specflowlab.metrics is sys.modules['specflowlab.metrics']\n"
        "out['all'] = specflowlab.__all__\n"
        "star = {}\n"
        "exec('from specflowlab import *', star)\n"
        "out['star'] = sorted(set(star) - {'__builtins__'})\n"
        "out['mismatched'] = [\n"
        "    name for module, names in specflowlab._EXPORTS.items() for name in names\n"
        "    if getattr(specflowlab, name) is not\n"
        "    getattr(importlib.import_module('specflowlab.' + module), name)\n"
        "    or star[name] is not getattr(specflowlab, name)]\n"
        "out['modules'] = [module for module in specflowlab._EXPORTS\n"
        "    if getattr(specflowlab, module) is not sys.modules['specflowlab.' + module]\n"
        "    or star[module] is not getattr(specflowlab, module)]\n"
        "try:\n"
        "    specflowlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    out['unknown'] = str(exc)\n"
    )
    assert len(out["all"]) > 50 and len(set(out["all"])) == len(out["all"])
    assert out["mismatched"] == []
    assert out["modules"] == []
    assert not out["metrics_before"] and out["metrics_by_name"]
    assert out["star"] == sorted(out["all"])
    assert set(out["all"]) <= set(out["dir"])
    assert out["unknown"] == "module 'specflowlab' has no attribute 'no_such_name'"
