"""A value is built through its constructor, except where a parser has
already matched the text in full: parse_canonical and LedgerIndex._parsed
build with object.__new__ so that the matched fields are not formatted again.
A third bypass would be a second way to build a value, one that skips what
its constructor does."""

import ast
from pathlib import Path

import histchain

MODULES = sorted(Path(histchain.__file__).parent.glob("*.py"))


def bypass_sites(tree: ast.Module) -> list[str]:
    """The dotted scope (`Class.method`) of each read of `object.__new__`,
    so a call, an alias or a stored reference all count."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return sites


def test_a_third_bypass_is_found():
    tree = ast.parse("class A:\n    def f(self):\n        return object.__new__(A)\n"
                     "def g():\n    make = object.__new__\n    return make(A)\n"
                     "NEW = object.__new__\n"
                     "def h():\n    return super().__new__(A)\n")
    assert bypass_sites(tree) == ["A.f", "g", ""]


def test_only_the_two_full_line_parsers_bypass_a_constructor():
    sites = [(path.name, scope) for path in MODULES
             for scope in bypass_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(sites) == [("envelope.py", "parse_canonical"),
                             ("ledger.py", "LedgerIndex._parsed")]
