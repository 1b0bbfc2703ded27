"""Every top-level function and class in src/bdfvac is used by the package.

A name counts as used when code refers to it (an ast.Name or ast.Attribute,
never a string) from another module of the package, from its own module
outside its own definition, or from bench/.  The package __init__ only
re-exports names, so it neither defines nor uses any.  Reference
implementations that only the tests call belong in tests/oracles.py.

Each pipeline stage is also set up in one place: the geometric momentum
grid and the radial B(0) each have a single caller in src/bdfvac.
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


def _callers(callee: str, matches=lambda call: True) -> set:
    """module.name of each top-level definition in src/bdfvac whose body
    calls `callee` (by name or attribute) with a call that `matches`."""
    found = set()
    for path, tree in TREES.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee and matches(sub):
                    found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def _geometric(call: ast.Call) -> bool:
    args = [*call.args, *(kw.value for kw in call.keywords)]
    return any(isinstance(a, ast.Constant) and a.value == "geometric" for a in args)


def test_b0_has_one_caller():
    allowed = {"polarization.polarization_table"}
    found = _callers("b_lambda_zero_radial")
    assert found == allowed, f"b_lambda_zero_radial is also called from {sorted(found - allowed)}"


def test_geometric_grid_is_built_in_one_place():
    # the cli's grid helper, and solve_dispersion's default when no grid is given
    allowed = {"cli._momentum_grid", "dispersion.solve_dispersion"}
    found = _callers("make_grid", _geometric)
    assert found == allowed, f"a geometric grid is also built in {sorted(found - allowed)}"
