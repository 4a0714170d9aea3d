"""audit.py is the oracle the storage validator is checked against, so it takes
only the record store from storage.py: it imports `Historian` and nothing else
from there, and names no part of the validator. An audit that reached for the
validator's code would share its faults and could no longer catch them."""

import ast
from pathlib import Path

import histchain

AUDIT = Path(histchain.__file__).parent / "audit.py"
VALIDATOR_PARTS = {"StorageNode", "validate_cycle", "_check_index", "_extend_duties",
                   "recover", "ValidationFinding", "owed", "lost"}


def storage_imports(tree: ast.Module) -> list[str]:
    """Each name imported from the storage module, relatively or by its
    full name; an import of the module itself counts as `*`."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".storage", "histchain.storage"):
                names += [alias.name for alias in node.names]
            elif module in (".", "histchain"):
                names += ["*" for alias in node.names if alias.name == "storage"]
        elif isinstance(node, ast.Import):
            names += ["*" for alias in node.names if alias.name == "histchain.storage"]
    return names


def names_used(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, binds, imports, defines or reads as
    an attribute, plus every string constant, so `getattr(x, "recover")`
    counts too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_finder_sees_every_way_to_reach_storage():
    tree = ast.parse("from .storage import Historian, StorageNode as Node\n"
                     "from . import storage\n"
                     "from histchain.storage import ValidationFinding\n"
                     "import histchain.storage\n"
                     "def f(node, chain):\n"
                     "    getattr(node, 'recover')\n"
                     "    return node.validate_cycle(chain)\n")
    assert storage_imports(tree) == ["Historian", "StorageNode", "*", "ValidationFinding", "*"]
    assert names_used(tree) & VALIDATOR_PARTS == {"StorageNode", "ValidationFinding",
                                                  "validate_cycle", "recover"}


def test_audit_takes_only_the_record_store_from_storage():
    tree = ast.parse(AUDIT.read_text(encoding="utf-8"))
    assert storage_imports(tree) == ["Historian"]
    assert names_used(tree) & VALIDATOR_PARTS == set()
