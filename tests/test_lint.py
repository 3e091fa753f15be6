"""Checks a linter would make, written with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import mcel

MODULES = sorted(Path(mcel.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("import time\nimport os.path\nfrom dataclasses import dataclass, field\n"
              "print(os.sep)\n\n@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == [(1, "time"), (3, "field")]


# definitions in src/mcel that no module of it reads, each with its reason
UNREAD = {
    "cli.Parser.error": "argparse calls it",
    "net.load_checkpoint": "the README's reader of model.ckpt, which no subcommand reads",
    "lda.uniform_similarity": "label smoothing's prior, kept for the studies ROADMAP.md plans",
}


def unread_definitions(sources):
    """Top-level functions and classes, and methods other than dunders,
    that no source reads as a Name or an Attribute, by name alone:
    'module.function', 'module.Class' or 'module.Class.method'."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    return sorted(qualified for qualified, name in defined if name not in read)


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(sources) == sorted(UNREAD)


def test_unread_definition_is_found():
    sources = {
        "a": ("def used():\n    pass\n\ndef unused():\n    pass\n\nclass C:\n"
              "    def __init__(self):\n        self.stored = 1\n\n"
              "    def called(self):\n        pass\n\n    def stored(self):\n        pass\n"),
        "b": "from .a import C, used, unused\nused()\nC().called()\n",
    }
    assert unread_definitions(sources) == ["a.C.stored", "a.unused"]
