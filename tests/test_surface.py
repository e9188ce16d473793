"""The package keeps no public code that only the tests call.

A public function, class or method (a name without a leading underscore)
must be referenced somewhere in ``src/stormlens`` besides its own
definition: called, subclassed, named in an annotation, or read as an
attribute. The scan goes by name, so a reference to any attribute of that
name counts. ``console_main`` is exempt: ``pyproject.toml`` names it as the
console entry point.

A public annotated class field (a dataclass field) must be read as an
attribute somewhere in the package; writing it or passing it by keyword
does not count. ``Feature.description`` and ``Feature.units`` are exempt:
they document the feature catalog for a reader of ``features.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stormlens"

EXEMPT = {"console_main"}
FIELD_EXEMPT = {"features.Feature.description", "features.Feature.units"}


def _definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(name, qualified name) of the public module-level functions and
    classes and of the public methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, f"{module}.{node.name}"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((item.name, f"{module}.{node.name}.{item.name}"))
    return found


def _fields(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(name, qualified name) of the public annotated fields of the
    module-level classes."""
    return [
        (item.target.id, f"{module}.{node.name}.{item.target.id}")
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_used_in_the_package():
    definitions, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += _definitions(tree, path.stem)
        referenced |= _references(tree)
    unused = sorted(qual for name, qual in definitions
                    if name not in referenced and name not in EXEMPT)
    assert unused == []


def test_every_public_field_is_read_in_the_package():
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields += _fields(tree, path.stem)
        read |= _attribute_reads(tree)
    unread = sorted(qual for name, qual in fields
                    if name not in read and qual not in FIELD_EXEMPT)
    assert unread == []
