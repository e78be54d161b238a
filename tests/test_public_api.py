"""Every name the package exports earns its place: the library itself uses
it, or the README names it in a code span, where it ties the name to a
claim of the paper and the criterion that asserts it. A name that only
the tests use belongs in ``tests/``."""

import ast
import re
from pathlib import Path

import specflowlab

PACKAGE = Path(specflowlab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _exported() -> list[str]:
    """The names the package table exports (not its submodules)."""
    return [name for names in specflowlab._EXPORTS.values() for name in names]


def _used_in_library() -> set[str]:
    """Names read anywhere in the modules, outside the top-level definition
    of the same name; imports and ``__all__`` strings are not uses."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {getattr(top, "name", None)}
    return used


def _named_in_readme() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_export_has_a_library_use_or_a_readme_claim():
    exported = _exported()
    assert len(exported) > 50
    used = _used_in_library() | _named_in_readme()
    assert [name for name in exported if name not in used] == []
