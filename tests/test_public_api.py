"""Every name the package exports, and every public member of an exported
class, earns its place: the library itself uses it, or the README names it
in a code span, where it ties the name to a claim of the paper and the
criterion that asserts it. A name that only the tests use belongs in
``tests/``.

The checks go by name, not by binding: a member passes when any library
module reads an attribute of that name, on whatever object. So a
test-only member that shares its name with a used one (a ``zeros``
classmethod beside ``np.zeros``, a ``dim`` property beside every other
``.dim``) is not caught here and has to be found by reading. Nor can a
name-based audit see an operator or a conversion (``a + b``, ``int(r)``
call ``__add__`` and ``__int__`` by syntax, not by name), so the last
check fails on any numeric-operator or conversion method an exported
class defines: the library combines matrices as arrays (``.mat``) and
reads results by field."""

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


def _used_in_library(attribute_reads: bool = False) -> set[str]:
    """Names read anywhere in the modules, outside the top-level definition
    of the same name; imports and ``__all__`` strings are not uses. With
    ``attribute_reads``, only the attributes the modules load count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if attribute_reads:
                names = {node.attr for node in ast.walk(top)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            else:
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
    """A member is used only through an attribute read: a local variable
    that shares its name (``ok``, ``dim``) does not count."""
    members = _public_members()
    assert len(members) > 30
    used = _used_in_library(attribute_reads=True) | _named_in_readme()
    assert [m for m in members if m.split(".")[1] not in used] == []


#: numeric-operator and conversion methods, which syntax calls, not a name
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__neg__", "__pos__", "__int__", "__float__", "__index__")


def test_no_exported_class_defines_a_numeric_operator():
    classes = [cls for name in _exported() if inspect.isclass(cls := getattr(specflowlab, name))]
    assert len(classes) > 10
    found = [f"{cls.__name__}.{op}" for cls in classes for op in OPERATORS if op in vars(cls)]
    assert found == []
