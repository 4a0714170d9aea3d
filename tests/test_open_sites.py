"""Envelopes are opened in two places in src/histchain: Simulation.intake, for
every frame a receiver takes unasked, and StorageNode._request_vector, for the
replica answer a node asked for. A third place would be a second copy of the
authentication and sender-role policy the intake keeps in one place."""

import ast
from pathlib import Path

import histchain

MODULES = sorted(Path(histchain.__file__).parent.glob("*.py"))


def open_sites(tree: ast.Module) -> list[str]:
    """The dotted scope (`Class.method`) of each read of `open_envelope`, by
    bare name or as an attribute, so a call, an alias or a stored reference
    all count."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Name) and child.id == "open_envelope"
                    and isinstance(child.ctx, ast.Load)) or \
                    (isinstance(child, ast.Attribute) and child.attr == "open_envelope"):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return sites


def test_a_third_open_is_found():
    tree = ast.parse("from e import open_envelope\n"
                     "class A:\n    def f(self, env):\n        return open_envelope(env)\n"
                     "def g(env):\n    return e.open_envelope(env)\n"
                     "OPEN = open_envelope\n")
    assert open_sites(tree) == ["A.f", "g", ""]


def test_envelopes_are_opened_only_by_the_intake_and_the_replica_asker():
    sites = [(path.name, scope) for path in MODULES
             for scope in open_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(sites) == [("sim.py", "Simulation.intake"),
                             ("storage.py", "StorageNode._request_vector")]
