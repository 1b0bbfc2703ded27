"""Every top-level function and class in src/bdfvac is used by the package.

A name counts as used when code refers to it (an ast.Name or ast.Attribute,
never a string) from another module of the package, from its own module
outside its own definition, or from bench/.  The package __init__ only
re-exports names, so it neither defines nor uses any.  Reference
implementations that only the tests call belong in tests/oracles.py.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "bdfvac").glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text()) for p in MODULES}


def _used_names(nodes) -> set:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


BENCH_NAMES = _used_names(ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py")))


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"numerics", "dispersion", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_top_level_definition_is_used(path):
    tree = TREES[path]
    elsewhere = BENCH_NAMES | _used_names(TREES[p] for p in MODULES if p != path)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        own = _used_names(other for other in tree.body if other is not node)
        if node.name not in own | elsewhere:
            unused.append(node.name)
    assert not unused, f"{path.name}: nothing in the package or bench/ uses {unused}"
