"""Checks a linter would make, written with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import mcel

MODULES = sorted(Path(mcel.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads; a name listed in __all__ is read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("import time\nimport os.path\nfrom dataclasses import dataclass, field\n"
              "__all__ = ['os']\n\n@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == [(1, "time"), (3, "field")]
