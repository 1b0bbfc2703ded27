"""Summary statistics shared by the runner and the comparison."""

from __future__ import annotations

import statistics

# Report the highest of these percentiles that has at least 10 samples above it.
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def high_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest p in PERCENTILES with at least 10 samples
    beyond it, or None when there are too few samples."""
    values = sorted(values)
    n = len(values)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[int(p) - 1]
    return None


def summary(values) -> dict:
    q1, med, q3 = quartiles(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    hp = high_percentile(values)
    if hp is not None:
        out[f"p{hp[0]:g}"] = hp[1]
    return out
