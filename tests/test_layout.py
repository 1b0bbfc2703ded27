"""Every top-level function and class in src/bdfvac is used by the package.

A name counts as used when code refers to it (an ast.Name or ast.Attribute,
never a string) from another module of the package, from its own module
outside its own definition, or from bench/.  The package __init__ holds
only its docstring and version and imports nothing: callers import from
the modules.  Reference implementations that only the tests call belong in
tests/oracles.py.

The profiles have one PCHIP slope routine, dispersion._pchip_slopes: no
module refers to scipy's PchipInterpolator, which the tests keep as the
oracle, or to polyfit, which would read a profile past its interpolant.

Each pipeline stage is also set up in one place: the geometric momentum
grid, the uniform direct-space grid, the SCF kernel rules and the radial
B(0) each have a single caller in src/bdfvac.

Each default value of a parameter of a top-level function, or of a method
of a top-level class, is used, and is needed: some call in src/bdfvac or
bench/ leaves the parameter at its default, and some call passes it.  A
parameter that every caller passes is required; one that no caller passes
is a constant, not a parameter.

Turning the coupling off runs the general code: the self-consistency
map, its solver and the energy assembly hold no comparison with 0, so
alpha = 0 is computed, not special-cased.

The README's INI example is a complete default config: it sets every key
but the derived model.L, to its default.

The traced benchmark run reads the import times of bdfvac.cli and
scipy.interpolate from `python -X importtime`; bench/run.py's
parse_importtime must find both in the import of bdfvac.cli.

bench/spans.py instruments package functions by name and reads the fields
of each FixedPointReport: every name it wraps is a top-level definition
in src/bdfvac, and every report field it reads is a FixedPointReport
field, so a rename cannot silently zero a per-layer timing or counter.
"""

import ast
import configparser
import os
import re
import subprocess
import sys
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


def test_profiles_have_one_pchip_slope_routine():
    # Dispersion.interpolant takes its slopes from _pchip_slopes, like the
    # SCF operators, and the values and slopes at p = 0 are read from it;
    # scipy's PchipInterpolator is the tests' oracle only
    forbidden = {"PchipInterpolator", "polyfit"}
    users = {p.stem: sorted(forbidden & _used_names([TREES[p]])) for p in MODULES}
    users = {stem: names for stem, names in users.items() if names}
    assert not users, f"a second profile-read path: {users}"


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


def test_kernel_rules_are_built_in_one_place():
    allowed = {"dispersion.solve_dispersion"}
    found = _callers("KernelRules")
    assert found == allowed, f"KernelRules is also built in {sorted(found - allowed)}"


def _compares_with_zero(fn: ast.FunctionDef) -> bool:
    operands = (
        operand
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Compare)
        for operand in (sub.left, *sub.comparators)
    )
    return any(
        isinstance(op, ast.Constant) and type(op.value) in (int, float) and op.value == 0
        for op in operands
    )


def test_coupling_off_takes_the_general_path():
    defs = {
        f"{path.stem}.{node.name}": node
        for path, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    general = ("dispersion.scf_step", "dispersion.solve_dispersion", "energy.assemble_breakdown")
    forks = [name for name in general if _compares_with_zero(defs[name])]
    assert not forks, f"alpha = 0 is special-cased in {forks}"


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


def test_benchmark_reads_the_import_times(monkeypatch):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-X", "importtime", "-c", "import bdfvac.cli"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from run import parse_importtime

    times = parse_importtime(proc.stderr)
    assert set(times) == {"cli.import_s", "cli.import.scipy_interpolate_s"}


def _spans_tree():
    return ast.parse((ROOT / "bench" / "spans.py").read_text())


def test_benchmark_instruments_names_the_package_defines():
    tree = _spans_tree()
    traced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if target in ("SPANNED", "COUNTED"):
                traced |= {key.value for key in node.value.keys}
            elif target == "traced":
                traced |= {
                    sub.value
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                }
    assert "fixed_point_solve" in traced and "solve_dispersion" in traced
    defined = {
        node.name
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    missing = sorted(traced - defined)
    assert not missing, f"bench/spans.py instruments names src/bdfvac does not define: {missing}"


def test_benchmark_reads_fields_the_fixed_point_report_keeps():
    read = {
        sub.attr
        for sub in ast.walk(_spans_tree())
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "report"
    }
    assert read >= {"iterations", "residual_history"}
    (report,) = (
        node
        for node in TREES[ROOT / "src" / "bdfvac" / "numerics.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "FixedPointReport"
    )
    kept = {node.target.id for node in report.body if isinstance(node, ast.AnnAssign)}
    assert read <= kept, f"bench/spans.py reads {sorted(read - kept)} off FixedPointReport"


def test_banded_oracle_runs_the_solver_schedule():
    # the bitwise test of the banded descent against solve_pekar means
    # something only while both run one schedule: the oracle takes the step
    # size, the check interval and the rejection rule from bdfvac.pekar and
    # assigns no number of its own
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    (oracle,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "solve_pekar_banded"
    )
    literals = [
        ast.unparse(node)
        for node in ast.walk(oracle)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    ]
    assert not literals, f"solve_pekar_banded sets its own schedule: {literals}"
    modulo = [
        node.right
        for node in ast.walk(oracle)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
    ]
    assert modulo and not any(isinstance(right, ast.Constant) for right in modulo)
    assert {"DEFAULT_DT", "CHECK_EVERY", "accepted_step"} <= _used_names([oracle])
