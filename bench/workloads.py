"""The benchmark's workloads: inputs made from a seed, the work of one pass,
and the correctness checks that decide which of its operations failed.

Every workload is a closed loop with one client: the next pass starts when
the previous one has finished.  `work` is the timed part of a pass; `check`
runs after the clock has stopped and turns the outputs into a PassResult.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bdfvac.cli
from bdfvac import dispersion, energy, numerics, pekar, polarization

CLI_COMMANDS = ("dispersion", "polarization", "pekar", "predict", "sweep", "verify")
CLI_ARTIFACTS = {
    "dispersion": ("dispersion.csv", "asymptotics.json"),
    "polarization": ("polarization.csv", "polarization.json"),
    "pekar": ("pekar.csv", "pekar_summary.json"),
    "predict": ("prediction.json",),
    "sweep": ("sweep.csv", "sweep.json"),
    "verify": ("verify.json",),
}

# (alpha, cutoff, fixed_L).  Fixed L = 0.05 is the paper's regime, with every
# derived cutoff below energy.CUTOFF_CAP; fixed cutoff 1e4 runs from weak to
# strong coupling, 5 to 33 SCF iterations.
SCAN_L = 0.05
SCAN_POINTS = tuple(
    [(a, dispersion.ModelParams.from_L(a, SCAN_L).cutoff, True) for a in (0.02, 0.01, 0.005, 0.003)]
    + [(a, 1e4, False) for a in (0.01, 0.1, 0.3, 0.6, 0.9, 1.2)]
)
ASYMPTOTIC_WINDOW = (0.7, 1.3)
IDENTITY_TOL = 1e-12

# The large size at the default coupling and cutoff.  At cutoff 1e6 the
# geometric grid's origin (cutoff * 1e-6) is too coarse for the radial B(0),
# and continuity_modulus is about 96 against its limit of 10 (ROADMAP item
# 2(a)); the table runs at the default cutoff until that is fixed.
TABLE_ALPHA = 0.01
TABLE_CUTOFF = 1e4
CONTINUITY_LIMIT = 10.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  FULL is what the benchmark measures; TINY keeps the
    shape of each workload at a size the tests can afford."""

    scan_nodes: int = 512
    scan_pekar_nodes: int = 1024
    table_nodes: int = 2048
    table_k_nodes: int = 512
    table_pekar_nodes: int = 4096
    cli_overrides: tuple = ()


FULL = Sizes()
# The tiny table keeps the default 512 momentum nodes: on 128 nodes the
# finite-difference radial B(0) is too rough for the continuity check, whose
# modulus there is 26 (ROADMAP item 3).
TINY = Sizes(128, 256, 512, 8, 256, ("polarization.k_nodes=16", "pekar.n_nodes=256"))


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the seed decides: the order of the scan points and the
    sampling seed handed to `verify`.  The table's inputs are all fixed."""
    rng = random.Random(seed)
    if workload == "scan":
        order = list(range(len(SCAN_POINTS)))
        rng.shuffle(order)
        return {"order": order}
    if workload == "cli":
        return {"verify_seed": rng.randrange(2**31)}
    return {}


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failures: list = field(default_factory=list)  # one line per failed operation
    samples: dict = field(default_factory=dict)  # extra timings, name -> seconds
    scalars: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)  # file name -> sha256
    bytes_written: int = 0
    peak_rss_mb: float | None = None  # largest child, for subprocess passes

    def add_artifacts(self, paths) -> None:
        for path in paths:
            data = Path(path).read_bytes()
            self.artifacts[Path(path).name] = hashlib.sha256(data).hexdigest()
            self.bytes_written += len(data)


@dataclass
class ChildResult:
    wall_s: float
    code: int
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, cwd: Path, stderr_path: Path) -> ChildResult:
    """Run one subprocess to completion; its stderr goes to stderr_path."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss / 1024.0)


class Workload:
    name = ""

    def __init__(self, root: Path, inputs: dict, sizes: Sizes = FULL, in_process: bool = False):
        """in_process asks a workload that runs the program in subprocesses
        to call it in this process instead, so that it can be traced."""
        self.root = root
        self.inputs = inputs
        self.sizes = sizes
        self.in_process = in_process
        self.work_dir = root / ".bench_out" / "work" / self.name

    def prepare(self) -> None:
        """One-time preparation, counted in setup_s."""
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def work(self):
        raise NotImplementedError

    def check(self, raw, wall_s: float) -> PassResult:
        raise NotImplementedError


class Cli(Workload):
    """The six subcommands at the default config, in pipeline order.

    Each runs as a fresh `python -m bdfvac.cli` subprocess, so interpreter
    start and imports are counted, or, for traced runs, in-process through
    `bdfvac.cli.main`.
    """

    name = "cli"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.first_csv: dict = {}  # CSV name -> sha256 in the run's first pass

    def argv(self, command: str) -> list[str]:
        argv = [command, "--out", str(self.work_dir)]
        for ov in self.sizes.cli_overrides:
            argv += ["--override", ov]
        if command == "verify":
            argv += ["--override", f"output.seed={self.inputs['verify_seed']}"]
        return argv

    def work(self):
        runs = {}
        for cmd in CLI_COMMANDS:
            for name in CLI_ARTIFACTS[cmd]:
                (self.work_dir / name).unlink(missing_ok=True)
            if self.in_process:
                t0 = time.perf_counter()
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = bdfvac.cli.main(self.argv(cmd))
                except Exception as exc:  # reported as this subcommand's failure
                    code = repr(exc)
                runs[cmd] = ChildResult(time.perf_counter() - t0, code, float("nan"))
            else:
                runs[cmd] = run_child(
                    [sys.executable, "-m", "bdfvac.cli", *self.argv(cmd)],
                    self.env, self.root, self.work_dir / f"{cmd}.stderr",
                )
        return runs

    def check(self, runs, wall_s):
        res = PassResult(wall_s, attempted=len(CLI_COMMANDS))
        if not self.in_process:
            res.peak_rss_mb = max(r.peak_rss_mb for r in runs.values())
        for cmd, run in runs.items():
            res.samples[f"cli.{cmd}_s"] = [run.wall_s]
            problems = [] if run.code == 0 else [f"exit {run.code}"]
            for name in CLI_ARTIFACTS[cmd]:
                path = self.work_dir / name
                if not path.is_file():
                    problems.append(f"{name} missing")
                    continue
                res.add_artifacts([path])
                digest = res.artifacts[name]
                if name.endswith(".csv") and self.first_csv.setdefault(name, digest) != digest:
                    problems.append(f"{name} body differs from the first pass")
            if cmd == "verify" and (self.work_dir / "verify.json").is_file():
                verdict = json.loads((self.work_dir / "verify.json").read_text())
                if verdict.get("passed") is not True:
                    failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
                    problems.append(f"verify.json passed=false: {failed}")
            if problems:
                res.failures.append(f"{cmd}: {'; '.join(problems)}")
        pred, pol = self.work_dir / "prediction.json", self.work_dir / "polarization.json"
        if pred.is_file() and pol.is_file():
            p = json.loads(pred.read_text())
            res.scalars["default"] = {
                "alpha": 0.01, "cutoff": 1e4, "m": p["m"], "g1_slope": p["g1_slope"],
                "B0": json.loads(pol.read_text())["B0_at_zero"], "E_CP": p["E_CP"],
                "total_pred": p["total_pred"],
            }
        return res


class Scan(Workload):
    """Energy prediction at 10 couplings: solve_dispersion, B(0) and
    assembly per point, plus one Pekar solve at the default size."""

    name = "scan"

    def prepare(self):
        super().prepare()
        self.points = [SCAN_POINTS[i] for i in self.inputs["order"]]
        self.pekar_grid = numerics.make_grid(
            pekar.DEFAULT_R_MAX, self.sizes.scan_pekar_nodes, "uniform"
        )
        self.k_zero = np.array([polarization.DEFAULT_K_MIN])  # below K_SWITCH: B(0) only

    def work(self):
        try:
            state = pekar.solve_pekar(self.pekar_grid)
        except Exception as exc:  # every point needs it; each reports it
            state = exc
        out = []
        for i, (alpha, cutoff, fixed_L) in enumerate(self.points):
            t0 = time.perf_counter()
            try:
                params = dispersion.ModelParams(alpha, cutoff)
                grid = numerics.make_grid(cutoff, self.sizes.scan_nodes, "geometric")
                d = dispersion.solve_dispersion(params, grid)
                table = polarization.polarization_table(d, k_nodes=self.k_zero)
                if isinstance(state, Exception):
                    raise state
                br = energy.assemble_breakdown(d, table, state)
                path = self.work_dir / f"point{i}.json"
                energy.breakdown_to_json(br, path)
                out.append(((alpha, cutoff, fixed_L), (d, table, br, path), time.perf_counter() - t0))
            except Exception as exc:
                out.append(((alpha, cutoff, fixed_L), exc, time.perf_counter() - t0))
        return state, out

    def check(self, raw, wall_s):
        state, out = raw
        res = PassResult(wall_s, attempted=len(out))
        res.samples["scan.point_s"] = [t for _, _, t in out]
        for (alpha, cutoff, fixed_L), result, _ in out:
            label = f"alpha={alpha:g} cutoff={cutoff:.6g}"
            if isinstance(result, Exception):
                res.failures.append(f"{label}: {result!r}")
                continue
            d, table, br, path = result
            problems = check_scan_point(d, table, br, state, fixed_L)
            if problems:
                res.failures.append(f"{label}: {'; '.join(problems)}")
            res.add_artifacts([path])
            res.scalars[label] = headline(d, table, br)
        return res


def headline(d, table, br) -> dict:
    return {
        "alpha": d.params.alpha, "cutoff": d.params.cutoff, "m": br.m, "g1_slope": br.g1_slope,
        "B0": table.B0_at_zero, "E_CP": br.E_CP, "total_pred": br.total_pred,
        "scf_iterations": d.report.iterations,
    }


def check_scan_point(d, table, br, state, fixed_L: bool) -> list[str]:
    p = d.grid.nodes
    problems = []
    if not d.report.converged:
        problems.append("dispersion did not converge")
    if not np.all(d.g0 >= 1.0):
        problems.append("g0 < 1")
    if not (np.all(p <= d.g1) and np.all(d.g1 <= p * d.g0)):
        problems.append("p <= g1 <= p*g0 violated")
    if not table.B0_at_zero > 0:
        problems.append(f"B(0) = {table.B0_at_zero} <= 0")
    if not 0.0 <= br.b0 < 1.0:
        problems.append(f"b0 = {br.b0} outside [0, 1)")
    expected = (state.T - state.D) / energy.c0_squared(d, table)
    rel = abs(br.kinetic_corr + br.vacuum_corr + br.direct_corr - expected) / abs(expected)
    if not rel <= IDENTITY_TOL:
        problems.append(f"correction identity off by {rel:.3g}")
    if not br.total_pred < br.m:
        problems.append("total_pred >= m")
    if fixed_L:
        report = dispersion.check_asymptotics(d)
        lo, hi = ASYMPTOTIC_WINDOW
        for name in ("m_alpha", "g1_prime_zero"):
            e = report[name]
            ratio = (e.measured - 1.0) / (e.predicted - 1.0)
            if not lo <= ratio <= hi:
                problems.append(f"{name} ratio {ratio:.4f} outside [{lo}, {hi}]")
    return problems


class Table(Workload):
    """The large size: alpha = 0.01, cutoff = 1e4, 2048 momentum nodes, B(k)
    on 512 k nodes, Pekar on 4096 nodes, then assembly."""

    name = "table"

    def prepare(self):
        super().prepare()
        s = self.sizes
        self.params = dispersion.ModelParams(TABLE_ALPHA, TABLE_CUTOFF)
        self.grid = numerics.make_grid(TABLE_CUTOFF, s.table_nodes, "geometric")
        self.k_nodes = polarization.default_k_nodes(
            TABLE_CUTOFF, s.table_k_nodes, polarization.DEFAULT_K_MIN
        )
        self.pekar_grid = numerics.make_grid(pekar.DEFAULT_R_MAX, s.table_pekar_nodes, "uniform")

    def work(self):
        try:
            d = dispersion.solve_dispersion(self.params, self.grid)
            table = polarization.polarization_table(d, self.k_nodes)
            state = pekar.solve_pekar(self.pekar_grid)
            br = energy.assemble_breakdown(d, table, state)
            paths = [self.work_dir / n for n in ("polarization.csv", "polarization.json", "prediction.json")]
            polarization.table_to_csv(table, paths[0], paths[1])
            energy.breakdown_to_json(br, paths[2])
        except Exception as exc:
            return exc
        return d, table, state, br, paths

    def check(self, raw, wall_s):
        res = PassResult(wall_s, attempted=1)
        if isinstance(raw, Exception):
            res.failures.append(f"table: {raw!r}")
            return res
        d, table, state, br, paths = raw
        cont = polarization.continuity_modulus(table).max_ratio
        residual = pekar.el_residual(state)
        problems = []
        if not np.all(table.B >= 0.0):
            problems.append(f"min B = {table.B.min()} < 0")
        if not (np.all(table.b >= 0.0) and np.all(table.b < 1.0)):
            problems.append("b outside [0, 1)")
        if not cont <= CONTINUITY_LIMIT:
            problems.append(f"continuity_modulus {cont:.4g} > {CONTINUITY_LIMIT}")
        if not state.E <= pekar.GAUSSIAN_BOUND + 1e-4:
            problems.append(f"E_CP {state.E} above the Gaussian bound")
        if not residual <= pekar.DEFAULT_TOL:
            problems.append(f"el_residual {residual:.3g} > {pekar.DEFAULT_TOL}")
        if problems:
            res.failures.append(f"table: {'; '.join(problems)}")
        res.add_artifacts(paths)
        label = f"alpha={TABLE_ALPHA:g} cutoff={TABLE_CUTOFF:.6g}"
        res.scalars[label] = dict(
            headline(d, table, br), continuity_modulus=cont, el_residual=residual
        )
        return res


WORKLOADS = {w.name: w for w in (Cli, Scan, Table)}
