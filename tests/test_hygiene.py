"""Source hygiene: no module of the package imports a name it never uses.

An AST check, so it needs no linter.  Names re-exported through
``__all__`` and ``from __future__ import annotations`` are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semiweyl"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """``(name, line)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used | exported]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import numpy as np\nfrom .jets import Jet, values_of\nvalues_of(1)\n") == [
        ("np", 1),
        ("Jet", 2),
    ]
    assert unused_imports("from __future__ import annotations\nfrom .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
