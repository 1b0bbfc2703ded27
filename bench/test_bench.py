"""Tests of the benchmark itself: span arithmetic, metric names, seeded
inputs, the comparison verdicts, and one tiny pass of each workload."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import compare
import spans
import workloads
from run import COUNTER_METRICS, ROOT, SPAN_METRICS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_on_a_synthetic_tree():
    S = spans.Span
    tree = [
        S(0, None, 0, "pass", 0.0, 10.0),
        S(1, 0, 0, "a", 1.0, 4.0),
        S(2, 1, 0, "b", 1.5, 2.0),
        S(3, 1, 0, "b", 3.0, 3.5),
        S(4, 0, 0, "c", 5.0, 9.0),
        S(5, 4, 0, "d", 6.0, 8.0),
        S(6, 4, 0, "d", 7.0, 8.5),  # overlaps its sibling: covered time counts once
    ]
    self_t = spans.self_times(tree)
    assert self_t == pytest.approx({0: 3.0, 1: 2.0, 2: 0.5, 3: 0.5, 4: 1.5, 5: 2.0, 6: 1.5})
    assert self_t[0] + sum(tree[i].duration for i in (1, 4)) == pytest.approx(tree[0].duration)


def test_instrument_records_nested_spans_and_restores_the_package():
    from bdfvac import dispersion, numerics

    original = dispersion.solve_dispersion
    tracer = spans.Tracer()
    params = dispersion.ModelParams(0.1, 1e4)
    with spans.instrument(tracer), tracer.span("pass"):
        d = dispersion.solve_dispersion(params, numerics.make_grid(1e4, 64, "geometric"))
    assert dispersion.solve_dispersion is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (solve,) = by_name["dispersion.solve"]
    assert solve.parent == by_name["pass"][0].id
    assert len(by_name["dispersion.kernel_rules"]) == 1
    assert len(by_name["dispersion.scf_step"]) == d.report.iterations
    assert all(s.parent == solve.id for s in by_name["dispersion.scf_step"])
    assert tracer.counts[(0, "numerics.fp_iterations")] == d.report.iterations


def test_every_metric_and_workload_name_is_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    names += list(SPAN_METRICS) + list(COUNTER_METRICS) + list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(set(n for key in ("end_to_end", "per_layer") for n in (m["name"] for m in SPEC[key]))) \
        == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(SPAN_METRICS) | set(COUNTER_METRICS) <= declared
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_the_same_seed_gives_the_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    orders = [tuple(workloads.make_inputs("scan", s)["order"]) for s in range(5)]
    assert all(sorted(o) == list(range(len(workloads.SCAN_POINTS))) for o in orders)
    assert len(set(orders)) > 1
    assert workloads.make_inputs("cli", 1) != workloads.make_inputs("cli", 2)


@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([10.0] * 5 + [10.2] * 5, [8.0] * 10, "better"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.5, 10.4, 10.6, 10.5, 10.45], "within bound"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [13.0, 13.1, 12.9, 13.0, 13.05], "worse"),
        ([5.0, 15.0, 8.0, 12.0, 10.0], [10.0, 9.0, 11.0, 14.0, 6.0], "unresolved"),
    ],
)
def test_comparison_verdicts(base, change, expected):
    assert compare.verdict(base, change, list(zip(base, change)), "lower", 0.2) == expected


def _tiny_pass(name, tmp_path):
    inputs = workloads.make_inputs(name, 3)
    wl = workloads.WORKLOADS[name](ROOT, inputs, workloads.TINY)
    wl.work_dir = tmp_path
    wl.prepare()
    res = wl.check(wl.work(), 0.0)
    assert res.attempted >= 1 and res.artifacts and res.bytes_written > 0
    return res


@pytest.mark.parametrize("name", ["cli", "scan", "table"])
def test_a_tiny_pass_passes_its_checks(name, tmp_path):
    assert _tiny_pass(name, tmp_path).failures == []


def test_scan_checks_catch_a_broken_profile(tmp_path):
    wl = workloads.Scan(ROOT, workloads.make_inputs("scan", 0), workloads.TINY)
    wl.work_dir = tmp_path
    wl.prepare()
    state, out = wl.work()
    (_, _, fixed_L), (d, table, br, _), _ = out[0]
    assert workloads.check_scan_point(d, table, br, state, fixed_L) == []
    broken = dataclasses.replace(d, g0=d.g0 - 1.0)
    assert "g0 < 1" in workloads.check_scan_point(broken, table, br, state, fixed_L)
