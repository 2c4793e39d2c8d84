"""Every name a module of the package imports is used in that module, and
every private helper is used somewhere in the package.

No linter runs on the package, so this stands in for the unused-import
and unused-definition rules.  A name counts as used when it occurs as a
name anywhere in the module's syntax tree, including a string annotation
such as "TriangularX".  The re-exports of __init__.py and
`from __future__ import annotations` are exempt.  A module-level def or
class whose name starts with one underscore counts as used when another
module, or its own module outside its definition, names it or reads it as
an attribute; an import alone does not count."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "jaccoord")
SOURCES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
MODULES = [n for n in SOURCES if n != "__init__.py"]


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    annotations = [
        a for node in ast.walk(tree)
        for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(name for name in imported_names(tree) if name not in used)


def referenced_names(tree):
    return used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def private_definitions(tree):
    return [
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name.startswith("_") and not n.name.startswith("__")
    ]


def orphaned_helpers(sources):
    """module:name for each private module-level def or class of the
    {module: source} map that nothing outside its own definition uses."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = {name: referenced_names(tree) for name, tree in trees.items()}
    out = []
    for name, tree in trees.items():
        for node in private_definitions(tree):
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            elsewhere = any(node.name in refs[other] for other in trees if other != name)
            if not elsewhere and node.name not in referenced_names(rest):
                out.append(f"{name}:{node.name}")
    return sorted(out)


def test_modules_found():
    assert {"cli.py", "qpoly.py", "fibre.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], name


def test_detects_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List as L, Tuple\n"
        "from .qpoly import Rat, rat\n"
        "def f(x: 'Tuple[int]') -> L:\n"
        "    return rat(x)\n"
    )
    assert unused_imports(source) == ["Rat", "os"]


def test_no_orphaned_private_helpers():
    sources = {}
    for name in SOURCES:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            sources[name] = fh.read()
    assert orphaned_helpers(sources) == []


def test_detects_orphaned_helpers():
    sources = {
        "a.py": (
            "import b\n"
            "def _orphan():\n    return _orphan()\n"
            "def _local():\n    return 1\n"
            "class _Shared:\n    pass\n"
            "def _imported_only():\n    pass\n"
            "def __getattr__(name):\n    return _local()\n"
            "def f():\n    return b._by_attribute()\n"
        ),
        "b.py": (
            "from a import _Shared, _imported_only\n"
            "def _by_attribute() -> '_Shared':\n    pass\n"
        ),
    }
    assert orphaned_helpers(sources) == ["a.py:_imported_only", "a.py:_orphan"]
