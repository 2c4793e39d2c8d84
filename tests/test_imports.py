"""Every name a module of the package imports is used in that module.

No linter runs on the package, so this stands in for the unused-import
rule.  A name counts as used when it occurs as a name anywhere in the
module's syntax tree, including a string annotation such as "TriangularX".
The re-exports of __init__.py and `from __future__ import annotations` are
exempt."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "jaccoord")
MODULES = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py") and n != "__init__.py")


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
