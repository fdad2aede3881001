"""Every module of the package uses each name it imports; `__init__.py`
files, whose imports are re-exports, are left out."""

import ast
from pathlib import Path

import pytest

import hermhecke

PACKAGE = Path(hermhecke.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import json\nimport re\nre.compile('')\n") == \
        [(1, "json")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
