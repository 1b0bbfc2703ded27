"""Every top-level function and class in src/bdfvac is used by the package.

A name counts as used when code refers to it (an ast.Name or ast.Attribute,
never a string) from another module of the package, from its own module
outside its own definition, or from bench/.  The package __init__ holds
only its docstring and version and imports nothing: callers import from
the modules.  Reference implementations that only the tests call belong in
tests/oracles.py.

Each pipeline stage is also set up in one place: the geometric momentum
grid, the uniform direct-space grid and the radial B(0) each have a single
caller in src/bdfvac.

Each default value of a parameter of a top-level function, or of a method
of a top-level class, is used, and is needed: some call in src/bdfvac or
bench/ leaves the parameter at its default, and some call passes it.  A
parameter that every caller passes is required; one that no caller passes
is a constant, not a parameter.

The README's INI example is a complete default config: it sets every key
but the derived model.L, to its default.
"""

import ast
import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from bdfvac.cli import RunConfig, load_config

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


BENCH_TREES = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
BENCH_NAMES = _used_names(BENCH_TREES)


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"numerics", "dispersion", "cli"}


def test_package_root_imports_nothing():
    tree = ast.parse((ROOT / "src" / "bdfvac" / "__init__.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports, "bdfvac/__init__.py re-exports; import from the modules instead"


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
                if isinstance(sub, ast.Call) and _callee(sub) == callee and matches(sub):
                    found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def _clustering(kind: str):
    def matches(call: ast.Call) -> bool:
        args = [*call.args, *(kw.value for kw in call.keywords)]
        return any(isinstance(a, ast.Constant) and a.value == kind for a in args)

    return matches


def test_b0_has_one_caller():
    allowed = {"polarization.polarization_table"}
    found = _callers("b_lambda_zero_radial")
    assert found == allowed, f"b_lambda_zero_radial is also called from {sorted(found - allowed)}"


def test_geometric_grid_is_built_in_one_place():
    allowed = {"cli._momentum_grid"}
    found = _callers("make_grid", _clustering("geometric"))
    assert found == allowed, f"a geometric grid is also built in {sorted(found - allowed)}"


def test_uniform_grid_is_built_in_one_place():
    allowed = {"cli._solve_pekar"}
    found = _callers("make_grid", _clustering("uniform"))
    assert found == allowed, f"a uniform grid is also built in {sorted(found - allowed)}"


def _defaulted(fn: ast.FunctionDef):
    """(name, position or None if keyword-only) of each defaulted parameter."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return found + [(a.arg, None) for a, default in kwonly if default is not None]


def _callables(tree: ast.Module):
    """(label, definition, name its calls use, leading parameters no call
    passes) of each top-level function and each method of a top-level
    class; a constructor is called by its class name, and no call passes a
    method's self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, node.name, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    callee = node.name if fn.name == "__init__" else fn.name
                    yield f"{node.name}.{fn.name}", fn, callee, 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_default_is_passed_and_left(path):
    calls = [
        sub
        for tree in [*TREES.values(), *BENCH_TREES]
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Call)
    ]
    bad = []
    for label, fn, callee, skip in _callables(TREES[path]):
        own = [call for call in calls if _callee(call) == callee]
        for name, pos in _defaulted(fn):
            passed = [
                any(kw.arg == name for kw in call.keywords)
                or (pos is not None and len(call.args) > pos - skip)
                for call in own
            ]
            if all(passed) or not any(passed):
                bad.append(f"{label}({name})")
    assert not bad, f"{path.name}: always or never passed by src/ and bench/: {bad}"


def test_readme_ini_example_is_the_default_config(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    ini = tmp_path / "example.ini"
    ini.write_text(example)
    assert load_config(str(ini), []) == RunConfig()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(example)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    cfg = RunConfig()
    every = {(s.name, f.name) for s in fields(cfg) for f in fields(getattr(cfg, s.name))}
    assert keys == every - {("model", "L")}
