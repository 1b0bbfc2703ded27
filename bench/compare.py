"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records that bench/run.py writes to --record-dir.
End-to-end metrics come from untraced runs, per-layer metrics from traced
runs, and runs are paired by seed.  Each row gives both sides' median and
quartiles, the bound from BENCHMARK.json and a verdict:

  better        the change wins at least 9 in 10 pairs, ties counting for
                neither, and its median beats the base median by more than
                the distance between the base's quartiles;
  worse         the change's median is worse than the base's by more than
                the bound (per-layer metrics, which have no bound: the base
                wins 9 in 10 pairs and by more than its quartile distance);
  unresolved    the quartile distance of either side, as a share of its
                median, is wider than the bound, and not every change run
                beats every base run; for per-layer metrics, anything not
                better or worse;
  within bound  otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """(workload, trace) -> {seed: record}"""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def verdict(base, change, pairs, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(change)
    gain = sign * (ma - mb)  # positive when the change is better
    wins = sum(sign * (x - y) > 0 for x, y in pairs)
    losses = sum(sign * (x - y) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3a - q1a:
            return "worse"
        return "unresolved"
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb))
    every_run_better = all(sign * (x - y) > 0 for x in base for y in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(ma):
        return "worse"
    return "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    print(f"{'metric':<32} {'workload':<8} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'bound':>6}  verdict")
    for metrics, trace in ((spec["end_to_end"], 0), (spec["per_layer"], 1)):
        for m in metrics:
            for w in (w["name"] for w in spec["workloads"]):
                a, b = base.get((w, trace), {}), change.get((w, trace), {})
                if not a or not b:
                    continue
                va = [r["metrics"][m["name"]]["value"] for _, r in sorted(a.items())]
                vb = [r["metrics"][m["name"]]["value"] for _, r in sorted(b.items())]
                pairs = [(a[s]["metrics"][m["name"]]["value"], b[s]["metrics"][m["name"]]["value"])
                         for s in sorted(set(a) & set(b))]
                bound = m.get("bound")
                cells = []
                for v in (va, vb):
                    q1, med, q3 = quartiles(v)
                    cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(v)}")
                print(f"{m['name']:<32} {w:<8} {cells[0]:<36} {cells[1]:<36} "
                      f"{'-' if bound is None else format(bound, 'g'):>6}  "
                      f"{verdict(va, vb, pairs, m['better'], bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
