"""Every name the package exports, and every public member of an exported
class, earns its place: the library itself uses it, or the README names it
in a code span, where it ties the name to a claim of the paper and the
criterion that asserts it. A name that only the tests use belongs in
``tests/``.

The checks go by name, not by binding: a member passes when any library
module reads an attribute of that name, on whatever object. So a
test-only member that shares its name with a used one (a ``zeros``
classmethod beside ``np.zeros``, a ``dim`` property beside every other
``.dim``) is not caught here and has to be found by reading."""

import ast
import inspect
import re
from functools import cached_property
from pathlib import Path

import specflowlab

PACKAGE = Path(specflowlab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _exported() -> list[str]:
    """The names the package table exports (not its submodules)."""
    return [name for names in specflowlab._EXPORTS.values() for name in names]


def _public_members() -> list[str]:
    """``Class.member`` for each public method, classmethod, staticmethod
    and property an exported class defines itself (dataclass fields are
    data, not members)."""
    kinds = (classmethod, staticmethod, property, cached_property)
    return [
        f"{name}.{member}"
        for name in _exported()
        if inspect.isclass(cls := getattr(specflowlab, name))
        for member, value in vars(cls).items()
        if not member.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


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


def test_every_public_member_has_a_library_use_or_a_readme_claim():
    members = _public_members()
    assert len(members) > 30
    used = _used_in_library() | _named_in_readme()
    assert [m for m in members if m.split(".")[1] not in used] == []
