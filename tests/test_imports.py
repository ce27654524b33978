"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "solfold"


def imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree: ast.AST):
    # ast.walk reaches the Name at the root of every attribute chain
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(name for name in set(imported_names(tree)) if name not in used)
    assert unused == [], f"{path.name} imports but never uses {unused}"
