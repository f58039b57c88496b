"""No library code that only the tests reach.

Every function, class and method defined in src is referenced from src or
bench: by name, as an attribute, in an import, or in a string, the way
bench/tracing.py names the functions it wraps. The scan goes by name, so a
method that shares its name with a used one is not found.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {
    "main",  # the console entry point
    # only tests and bench/corpus.py write TextGrids; the benchmark revision
    # (ROADMAP item 2) moves it to tests/helpers.py
    "write_textgrid",
}


def _trees(directory: str) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / directory).rglob("*.py"))]


def _definitions(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced(defining: list[ast.Module], using: list[ast.Module]) -> list[str]:
    """The names defined in defining that no tree of using refers to, dunder
    methods and ALLOWED aside."""
    used = set().union(*map(_references, using))
    return sorted(name for name in set().union(*map(_definitions, defining))
                  if name not in used | ALLOWED and not name.startswith("__"))


def test_every_definition_in_src_is_used_by_src_or_bench():
    src = _trees("src")
    assert unreferenced(src, src + _trees("bench")) == []


@pytest.mark.parametrize("code", [
    "def f(): pass",
    "class C: pass",
    "class C:\n    def method(self): pass",
    "def f():\n    def inner(): pass",
])
def test_the_scan_finds_a_definition_nothing_uses(code):
    assert unreferenced([ast.parse(code)], []) != []


@pytest.mark.parametrize("code", [
    "def f(): pass\nf()",
    "class C:\n    def method(self): pass\nC().method()",
    "def f(): pass\nhandlers = {'f': f}",
    "def f(): pass\nLAYERS = (('module', 'f'),)",
    "def main(): pass",
    "class C:\n    def __len__(self): return 0\nC()",
])
def test_the_scan_passes_what_is_used_or_allowed(code):
    tree = ast.parse(code)
    assert unreferenced([tree], [tree]) == []
