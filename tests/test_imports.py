"""Every import in src/histchain is used, so a deletion leaves no import behind."""

import ast
from pathlib import Path

import pytest

import histchain

MODULES = sorted(Path(histchain.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a.b import c, d as e\n__all__ = ['c']\nprint(e)\n")
    assert imported_names(tree) - used_names(tree) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(imported_names(tree) - used_names(tree))
    assert unused == [], f"{path.name} imports {unused} and never uses them"
