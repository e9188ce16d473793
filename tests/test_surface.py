"""The package keeps no public code that only the tests call.

A public function, class or method (a name without a leading underscore)
must be referenced somewhere in ``src/stormlens`` besides its own
definition: called, subclassed, named in an annotation, or read as an
attribute. Functions and classes, and methods whose name no other class
has, are matched by name. A method whose name is shared, by another class
of the package or by a method of a builtin container or of ``ndarray`` (as
``items`` is by ``dict.items``), is matched by class: only an attribute
reference whose receiver resolves to that class counts (see
:class:`Receivers`). ``console_main`` is exempt: ``pyproject.toml`` names
it as the console entry point.

A public annotated class field (a dataclass field) must be read as an
attribute somewhere in the package; writing it or passing it by keyword
does not count. ``Feature.description`` and ``Feature.units`` are exempt:
they document the feature catalog for a reader of ``features.py``.

A public module-level constant (a name that a module-level assignment
binds) must be read somewhere in the package, as a name or as a module
attribute, matched by name; assigning or importing it does not count.

No module imports ``xml``, ``urllib``, ``http``, ``email`` or ``ssl``:
``xml.sax.saxutils`` alone loads the last four, some 37 modules and 3 MB,
into every process that imports the CLI. Importing the CLI loads no
``logging`` either: the package writes its messages to stderr itself.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "stormlens"

EXEMPT = {"console_main"}
BUILTIN_METHODS = set().union(*(dir(t) for t in (dict, list, tuple, set, str, np.ndarray)))
FIELD_EXEMPT = {"features.Feature.description", "features.Feature.units"}


def _definitions(tree: ast.Module, module: str) -> list[tuple[str, str | None, str]]:
    """(name, class or None, qualified name) of the public module-level
    functions and classes and of the public methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, None, f"{module}.{node.name}"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((item.name, node.name, f"{module}.{node.name}.{item.name}"))
    return found


class Receivers:
    """Which package classes an expression may be an instance of, or be.

    A static over-approximation from annotations (parameters, returns and
    class fields), constructor calls, ``self``, assignments to a name or
    to an attribute of ``self``, iteration over an annotated container and
    ``or``. An expression it cannot resolve gives no class.
    """

    def __init__(self, trees: list[ast.Module]):
        self.functions = [node for tree in trees for node in tree.body
                          if isinstance(node, ast.FunctionDef)]
        self.classes = {node.name: node for tree in trees for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        self.returns = {node.name: self.named(node.returns) for node in self.functions}
        self.attrs: dict[tuple[str, str], set[str]] = {}  # (class, attribute) -> classes
        for name, cls in self.classes.items():
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    self.attrs[(name, item.target.id)] = self.named(item.annotation)
                elif isinstance(item, ast.FunctionDef):
                    self.attrs[(name, item.name)] = self.named(item.returns)
        for name, method in self.methods():  # attributes that methods assign to self
            env = self.scope(method, name)
            for node in ast.walk(method):
                for target in getattr(node, "targets", []):
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and env.get(target.value.id) == {name}):
                        self.attrs.setdefault((name, target.attr), set()).update(
                            self.of(node.value, env))

    def methods(self):
        for name, cls in self.classes.items():
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    yield name, item

    def named(self, annotation: ast.AST | None) -> set[str]:
        """The package classes named anywhere in an annotation."""
        if annotation is None:
            return set()
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(annotation)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        return names & self.classes.keys()

    def of(self, node: ast.AST, env: dict[str, set[str]]) -> set[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id) or ({node.id} & self.classes.keys())
        if isinstance(node, ast.Attribute):
            if node.attr in self.classes:  # a module-qualified class
                return {node.attr}
            return set().union(*(self.attrs.get((c, node.attr), set())
                                 for c in self.of(node.value, env)))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and self.of(func.value, env):
                return self.of(func, env)  # a method: its return annotation
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return {name} & self.classes.keys() or self.returns.get(name, set())
        if isinstance(node, ast.BoolOp):
            return set().union(*(self.of(value, env) for value in node.values))
        return set()

    def scope(self, func: ast.FunctionDef, cls: str | None = None) -> dict[str, set[str]]:
        """The classes of each local name of ``func``, nested functions included."""
        env: dict[str, set[str]] = {}

        def bind(target: ast.AST, classes: set[str]) -> None:
            if isinstance(target, ast.Name) and classes:
                env.setdefault(target.id, set()).update(classes)

        for node in ast.walk(func):
            if isinstance(node, ast.FunctionDef):
                for arg in node.args.args + node.args.kwonlyargs:
                    bind(ast.Name(arg.arg), self.named(arg.annotation))
        if cls is not None and func.args.args:
            bind(ast.Name(func.args.args[0].arg), {cls})
        for _ in range(2):  # an assignment may read a name bound further down
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        bind(target, self.of(node.value, env))
                elif isinstance(node, ast.AnnAssign):
                    bind(node.target, self.named(node.annotation))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    bind(node.target, self.of(node.iter, env))
        return env

    def references(self) -> list[tuple[str, set[str]]]:
        """(attribute, receiver classes) of every attribute read inside a
        function or method."""
        refs = []
        for cls, func in [(None, f) for f in self.functions] + list(self.methods()):
            env = self.scope(func, cls)
            refs += [(node.attr, self.of(node.value, env)) for node in ast.walk(func)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        return refs


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


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """Qualified names of the public definitions in ``sources`` (module name
    -> source text) that nothing else in them references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    definitions, referenced = [], set()
    for module, tree in trees.items():
        definitions += _definitions(tree, module)
        referenced |= _references(tree)
    by_class = Receivers(list(trees.values())).references()
    methods: dict[str, int] = {}
    for name, cls, _ in definitions:
        if cls is not None:
            methods[name] = methods.get(name, 0) + 1

    def used(name: str, cls: str | None) -> bool:
        if cls is None or (methods[name] == 1 and name not in BUILTIN_METHODS):
            return name in referenced
        return any(attr == name and cls in classes for attr, classes in by_class)

    return sorted(qual for name, cls, qual in definitions
                  if name not in EXEMPT and not used(name, cls))


def test_every_public_name_is_used_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_public_names(sources) == []


def test_a_shared_method_name_is_matched_by_class():
    source = """
class Shape:
    def to_dict(self): ...
    def items(self): ...

class Point:
    def to_dict(self): ...
    def norm(self) -> float: ...

def make() -> Point: ...

def _report(shape: Shape, table: dict):
    point = make()
    return shape.to_dict(), point.norm(), table.items()
"""
    assert unused_public_names({"m": source}) == ["m.Point.to_dict", "m.Shape.items"]


def test_every_public_field_is_read_in_the_package():
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields += _fields(tree, path.stem)
        read |= _attribute_reads(tree)
    unread = sorted(qual for name, qual in fields
                    if name not in read and qual not in FIELD_EXEMPT)
    assert unread == []


def _constants(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(name, qualified name) of the public names that the module-level
    assignments bind."""
    targets = [target for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return [(node.id, f"{module}.{node.id}") for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("_")]


def _reads(tree: ast.Module) -> set[str]:
    """The names and attributes that ``tree`` reads."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | _attribute_reads(tree)


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Qualified names of the public module-level constants in ``sources``
    (module name -> source text) that nothing in them reads."""
    constants, read = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        constants += _constants(tree, module)
        read |= _reads(tree)
    return sorted(qual for name, qual in constants if name not in read)


def test_every_public_constant_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def test_an_unread_constant_is_found():
    source = """
from other import IMPORTED
READ = 1
UNREAD, ATTRIBUTE_READ = 2, 3
ANNOTATED: int = 4
_PRIVATE = 5

def f(module):
    return READ, module.ATTRIBUTE_READ
"""
    assert unread_constants({"m": source}) == ["m.ANNOTATED", "m.UNREAD"]


NETWORK_PACKAGES = ("xml", "urllib", "http", "email", "ssl")
UNLOADED_PACKAGES = NETWORK_PACKAGES + ("logging",)


def imported_packages(source: str) -> set[str]:
    """The top-level packages that the absolute imports of ``source`` name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_the_network_stack():
    found = {path.stem: sorted(imported_packages(path.read_text(encoding="utf-8"))
                               & set(NETWORK_PACKAGES))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def test_an_import_of_the_network_stack_is_found():
    source = """
from xml.sax.saxutils import escape
import http.client as client, json
from . import plot
"""
    assert imported_packages(source) & set(NETWORK_PACKAGES) == {"xml", "http"}


def test_importing_the_cli_loads_no_network_module():
    # numpy itself imports urllib.parse, so count only what the package adds
    code = ("import sys, numpy; before = set(sys.modules); import stormlens.cli; "
            f"print(sorted(m for m in set(sys.modules) - before "
            f"if m.split('.')[0] in {UNLOADED_PACKAGES!r}))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"
