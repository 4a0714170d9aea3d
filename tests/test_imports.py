"""Every import in src/histchain is used, so a deletion leaves no import behind,
and every top-level symbol there is read by the program, its benchmark or its
scripts, so a symbol used by nothing, or only by its own tests, is found."""

import ast
from pathlib import Path

import pytest

import histchain

MODULES = sorted(Path(histchain.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
READERS = MODULES + sorted(path for folder in ("bench", "scripts")
                           for path in (ROOT / folder).glob("*.py")
                           if not path.name.startswith("test_"))


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


def top_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names - {"__all__"}


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute (`ev.ALARM` reads ALARM)."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_an_unread_symbol_is_found():
    defining = ast.parse("LIMIT = 3\n__all__ = []\ndef used(): return LIMIT\n"
                         "def unused(): pass\nclass Gone: pass\nWIDTH: int = 2\n")
    reader = ast.parse("from m import used, unused\nused()\nm.WIDTH\n")
    read = read_names(defining) | read_names(reader)
    assert top_level_names(defining) - read == {"unused", "Gone"}


def test_every_top_level_symbol_is_read():
    read = set().union(*(read_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in READERS))
    unread = sorted(f"{path.name}:{name}" for path in MODULES
                    for name in top_level_names(ast.parse(path.read_text(encoding="utf-8")))
                    if name not in read)
    assert unread == [], f"read by no module in src/histchain, bench or scripts: {unread}"
