"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {cli,scan,table} --seed N --seconds S --trace {0,1}

Run it from a checkout of the repository: bdfvac is imported from the
checkout's src/, and BENCHMARK.json names the workloads and metrics.  The
run times `import bdfvac.cli` in fresh interpreters (setup), then runs
passes of the workload back to back for about S seconds.  With
--trace 1, passes alternate between untraced and traced, and the metrics
are the per-layer ones taken from the traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are a readable report.
A fuller record (every sample, the headline scalars, artifact hashes, the
environment and, when traced, every span) goes to
<record-dir>/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from stats import summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Each workload is one serial client and its BLAS calls are small, so one
# BLAS/OpenMP thread (never more than nproc) keeps timings steady on a
# shared machine.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = 5

# per-layer metric -> (span name, "time" for summed duration or "calls")
SPAN_METRICS = {
    "cli.write_s": ("cli.write", "time"),
    "dispersion.solve_s": ("dispersion.solve", "time"),
    "dispersion.kernel_rules_s": ("dispersion.kernel_rules", "time"),
    "dispersion.kernel_rules_builds": ("dispersion.kernel_rules", "calls"),
    "dispersion.scf_step_s": ("dispersion.scf_step", "time"),
    "dispersion.scf_step_calls": ("dispersion.scf_step", "calls"),
    "polarization.table_s": ("polarization.table", "time"),
    "polarization.b_k_calls": ("polarization.b_k", "calls"),
    "polarization.b0_s": ("polarization.b0", "time"),
    "polarization.b0_calls": ("polarization.b0", "calls"),
    "pekar.solve_s": ("pekar.solve", "time"),
    "energy.assemble_s": ("energy.assemble", "time"),
}
COUNTER_METRICS = ("numerics.fp_iterations", "numerics.fp_residual_rises", "pekar.steps")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description="Run one bdfvac benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-dir", default=str(ROOT / ".bench_out" / "records"))
    return ap.parse_args(argv)


def parse_importtime(text: str) -> dict:
    """Cumulative import times from `python -X importtime` output."""
    cumulative = {}
    for line in text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:  # the header line
                continue
    return {
        "cli.import_s": cumulative["bdfvac.cli"],
        "cli.import.scipy_interpolate_s": cumulative["scipy.interpolate"],
    }


def measure_setup(workloads, trace: bool, work_dir: Path):
    """Wall times of `import bdfvac.cli` in fresh interpreters, and with
    trace the import breakdown of each.  A first, untimed start fills the
    bytecode cache, as any earlier run on the machine would have."""
    argv = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", "import bdfvac.cli"]
    err = work_dir / "setup.stderr"
    walls, imports = [], []
    for i in range(SETUP_SAMPLES + 1):
        r = workloads.run_child(argv, dict(os.environ, PYTHONPATH=str(SRC)), ROOT, err)
        if r.code != 0:
            raise RuntimeError(f"import bdfvac.cli failed:\n{err.read_text()[-2000:]}")
        if i:
            walls.append(r.wall_s)
            if trace:
                imports.append(parse_importtime(err.read_text()))
    return walls, imports


def measure(wl, seconds: float, tracer, spans):
    """Run passes back to back for about `seconds`: no pass starts once less
    than half a typical pass is left, so a run of long passes ends within
    half a pass of `seconds`.  When traced, passes alternate untraced and
    traced, at least one of each."""
    passes = []  # (PassResult, traced)
    lengths = []  # seconds per pass, check included
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        ctx = ExitStack()
        if traced:
            tracer.trace = len(passes)
            ctx.enter_context(spans.instrument(tracer))
            ctx.enter_context(tracer.span("pass"))
        passes.append((one_pass(wl, ctx), traced))
        now = time.perf_counter()
        lengths.append(now - t0)
        left = t_end - now
        if left < statistics.median(lengths) / 2 and (tracer is None or len(passes) >= 2):
            return passes


def one_pass(wl, ctx):
    """Time one pass and check it.  Its outputs are dropped on return, so
    they do not count towards the next pass's peak memory."""
    t0 = time.perf_counter()
    with ctx:
        raw = wl.work()
    return wl.check(raw, time.perf_counter() - t0)


def layer_values(tracer, spans, passes, imports) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and, per span name,
    the median calls, inclusive and self time of a traced pass."""
    per_pass: dict[str, list] = {}
    breakdown: dict[str, dict[str, list]] = {}
    self_t = spans.self_times(tracer.spans)
    traced_ids = [i for i, (_, traced) in enumerate(passes) if traced]
    for tid in traced_ids:
        of_pass = [s for s in tracer.spans if s.trace == tid]
        for metric, (name, kind) in SPAN_METRICS.items():
            sel = [s for s in of_pass if s.name == name]
            value = sum(s.duration for s in sel) if kind == "time" else len(sel)
            per_pass.setdefault(metric, []).append(value)
        for metric in COUNTER_METRICS:
            per_pass.setdefault(metric, []).append(tracer.counts[(tid, metric)])
        names = {s.name for s in of_pass}
        for name in names:
            sel = [s for s in of_pass if s.name == name]
            row = breakdown.setdefault(name, {"calls": [], "total_s": [], "self_s": []})
            row["calls"].append(len(sel))
            row["total_s"].append(sum(s.duration for s in sel))
            row["self_s"].append(sum(self_t[s.id] for s in sel))
    values = {m: statistics.median(v) for m, v in per_pass.items()}
    values["cli.bytes_written"] = statistics.median(r.bytes_written for r, _ in passes)
    for key in ("cli.import_s", "cli.import.scipy_interpolate_s"):
        values[key] = statistics.median(i[key] for i in imports)
    traced_wall = statistics.median(r.wall_s for r, t in passes if t)
    untraced_wall = statistics.median(r.wall_s for r, t in passes if not t)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    table = {
        name: {k: statistics.median(v) for k, v in row.items()} for name, row in breakdown.items()
    }
    return values, table


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_report(args, env, metrics, summaries, passes, failures, breakdown):
    print(f"bdfvac benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env["thread_pins"].items()))
    for name, m in metrics.items():
        print(f"metric {name} = {fmt(m['value'])} {m['unit']}")
    attempted = sum(r.attempted for r, _ in passes)
    print(f"metric failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for line in sorted(set(failures)):
        print(f"  FAILED {line}")
    print(f"{'samples (s)':<34} {'n':>4} {'median':>12} {'q1':>12} {'q3':>12}  high percentile")
    for name, s in summaries.items():
        hp = next((f"{k}={fmt(v)}" for k, v in s.items() if k.startswith("p")),
                  "none (under 20 samples)")
        print(f"{name:<34} {s['n']:>4} {fmt(s['median']):>12} {fmt(s['q1']):>12} "
              f"{fmt(s['q3']):>12}  {hp}")
    if breakdown:
        root = breakdown.pop("pass")
        print(f"traced pass: {fmt(root['total_s'])} s, of which {fmt(root['self_s'])} s outside "
              "any layer span; per layer, median over traced passes:")
        print(f"  {'span':<26} {'calls':>7} {'total_s':>12} {'self_s':>12}")
        for name, row in sorted(breakdown.items()):
            print(f"  {name:<26} {fmt(row['calls']):>7} {fmt(row['total_s']):>12} "
                  f"{fmt(row['self_s']):>12}")
        self_sum = root["self_s"] + sum(r["self_s"] for r in breakdown.values())
        print(f"  self times sum to {fmt(self_sum)} s of the {fmt(root['total_s'])} s pass; "
              f"an untraced pass takes {fmt(summaries['wall_s']['median'])} s")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "bdfvac" / "cli.py").is_file():
        print(f"bench: no bdfvac sources under {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](ROOT, inputs, in_process=bool(args.trace))

    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    setup_walls, imports = measure_setup(workloads, bool(args.trace), wl.work_dir)
    passes = measure(wl, args.seconds, tracer, spans)

    failures = [f for r, _ in passes for f in r.failures]
    attempted = sum(r.attempted for r, _ in passes)
    samples = {"setup_s": [w + prepare_s for w in setup_walls],
               "wall_s": [r.wall_s for r, t in passes if not t]}
    for r, traced in passes:
        if not traced:
            for name, values in r.samples.items():
                samples.setdefault(name, []).extend(values)
    breakdown = {}
    if args.trace:
        declared = spec["per_layer"]
        values, breakdown = layer_values(tracer, spans, passes, imports)
    else:
        declared = spec["end_to_end"]
        rss = [r.peak_rss_mb for r, _ in passes if r.peak_rss_mb is not None]
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            # The mean, not the median, of the passes: on a shared host the
            # machine switches between a fast and a ~1.4x slower state for
            # tens of seconds at a time, and a median over a run then jumps
            # with the share of the run spent slow, where a mean follows it.
            "wall_s": statistics.fmean(samples["wall_s"]),
            "peak_rss_mb": max(rss) if rss
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    summaries = {name: summary(v) for name, v in samples.items()}

    env = environment()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print_report(args, env, metrics, summaries, passes, failures, dict(breakdown))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "env": env, "metrics": metrics,
        "summaries": summaries, "samples": samples, "layer_breakdown": breakdown,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "scalars": passes[0][0].scalars, "artifacts": passes[0][0].artifacts,
        "spans": tracer.to_dicts() if tracer else [],
    }
    record_dir = Path(args.record_dir)
    record_dir.mkdir(parents=True, exist_ok=True)
    path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
