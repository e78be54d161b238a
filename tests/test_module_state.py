"""The library keeps no module-global mutable state: per-run telemetry
belongs to the run, so callers on their own threads never mix counts."""

import ast
from pathlib import Path

import specflowlab

SOURCES = sorted(Path(specflowlab.__file__).parent.glob("*.py"))


def test_no_module_rebinds_a_global():
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}: global {', '.join(node.names)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []
