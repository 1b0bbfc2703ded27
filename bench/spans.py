"""In-memory span tracer and the instrumentation that feeds it.

Spans are recorded from the benchmark's side only: `instrument` swaps the
public functions of the bdfvac modules for wrappers that open a span (or
bump a counter) around the original call, and puts the originals back when
it exits.  Calls between bdfvac modules resolve their names through the
calling module's globals at call time, so the wrappers also see the calls
the package makes to itself, e.g. `scf_step` from inside
`solve_dispersion`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from bdfvac.numerics import FixedPointError

# bdfvac name -> span name.  Every call of the named function becomes one span.
SPANNED = {
    "main": "cli.main",
    "solve_dispersion": "dispersion.solve",
    "KernelRules": "dispersion.kernel_rules",
    "scf_step": "dispersion.scf_step",
    "polarization_table": "polarization.table",
    "b_lambda_k": "polarization.b_k",
    "b_lambda_zero_radial": "polarization.b0",
    "solve_pekar": "pekar.solve",
    "assemble_breakdown": "energy.assemble",
    "dispersion_to_csv": "cli.write",
    "table_to_csv": "cli.write",
    "state_to_csv": "cli.write",
    "sweep_to_csv": "cli.write",
    "sweep_to_json": "cli.write",
    "breakdown_to_json": "cli.write",
}

# bdfvac name -> counter name, for calls too frequent to be worth a span.
COUNTED = {"make_state": "pekar.steps"}


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory; `trace` groups the spans of
    one workload pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, self.trace, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.trace, name)] += n

    def to_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _fixed_point_counter(tracer: Tracer, fn):
    """Count iterations and residual rises (the steps that halve the
    damping) from every FixedPointReport, converged or not."""

    def record(report):
        h = report.residual_history
        tracer.count("numerics.fp_iterations", report.iterations)
        tracer.count("numerics.fp_residual_rises", sum(b > a for a, b in zip(h, h[1:])))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            x, report = fn(*args, **kwargs)
        except FixedPointError as exc:
            record(exc.report)
            raise
        record(report)
        return x, report

    return wrapper


def _spanned(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _wrap(tracer: Tracer, name: str, fn):
    if name in SPANNED:
        return _spanned(tracer, fn, SPANNED[name])
    if name in COUNTED:
        return _counted(tracer, fn, COUNTED[name])
    return _fixed_point_counter(tracer, fn)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the traced bdfvac functions in every loaded bdfvac module.

    The package binds each function under its own name wherever it imports
    it, so matching on the name finds every reference.
    """
    traced = set(SPANNED) | set(COUNTED) | {"fixed_point_solve"}
    wrappers = {}  # id(original) -> wrapper, so each function is wrapped once
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bdfvac" or mod_name.startswith("bdfvac.")):
            continue
        for attr, value in list(vars(mod).items()):
            if attr not in traced:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = _wrap(tracer, attr, value)
            setattr(mod, attr, wrappers[id(value)])
            patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
