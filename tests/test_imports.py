"""Every import in the package is used by its module, every module-level
private function or class is used by the package, and every public method
of a package class is read somewhere.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules: a
name bound by an import, at the top of a module or inside a function, must
be read somewhere in the same module, or be re-exported through __all__;
a name that is only assigned over is not read; a top-level `_name` def or
class must be referenced somewhere in the package outside its own body; a
public method or property of a class must be named by an attribute access
(or a string constant, as getattr takes) in the package, its tests or its
benchmark.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cptate"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(system.argv, dumps)\n"
              "def f():\n    import csv, gzip\n    csv = gzip.open\n")
    assert unused_imports(source) == ["line 2: os", "line 7: csv"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_privates(sources: dict) -> list:
    """module:name of each top-level private def or class in sources (a
    {module: source} mapping) that no other top-level statement names."""
    defined = []
    references = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            names |= {n.name for n in ast.walk(node) if isinstance(n, ast.alias)}
            key = (module, node.lineno)
            references[key] = names
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((module, node.name, key))
    return sorted(f"{module}:{name}" for module, name, key in defined
                  if not any(name in names for k, names in references.items() if k != key))


def test_private_detector_flags_only_unreferenced_names():
    sources = {"a": ("def _used():\n    return 1\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\n"
                     "class _Imported:\n    pass\n"
                     "def public():\n    return _used()\n"),
               "b": "from .a import _Imported\n"}
    assert unreferenced_privates(sources) == ["a:_recursive"]


def test_every_private_function_and_class_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def unaccessed_methods(package: list, readers: list) -> list:
    """Class.name of each public method or property of a class in package
    (a list of sources) that no attribute access or string constant in
    readers (a list of sources) names."""
    accessed = set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute):
                accessed.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                accessed.add(n.value)
    return sorted(f"{cls.name}.{f.name}" for source in package
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for f in cls.body
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not f.name.startswith("_") and f.name not in accessed)


def test_method_detector_flags_only_unaccessed_names():
    package = ("class A:\n"
               "    def used(self):\n        return self.prop\n"
               "    @property\n    def prop(self):\n        return 1\n"
               "    def fetched(self):\n        pass\n"
               "    def columns(self):\n        pass\n"
               "    def _private(self):\n        pass\n")
    reader = "columns = A()\ncolumns.used()\ngetattr(columns, 'fetched')\n"
    assert unaccessed_methods([package], [package, reader]) == ["A.columns"]


def test_every_public_method_is_accessed():
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    readers = package + [p.read_text(encoding="utf-8")
                         for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unaccessed_methods(package, readers) == []


def test_all_lists_exactly_the_imported_names_in_order():
    # a name dropped from the imports but left in __all__ breaks
    # `from cptate import *`; one imported but left out is not exported
    import cptate

    imported = {alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert cptate.__all__ == sorted(imported)
    for name in cptate.__all__:
        getattr(cptate, name)
