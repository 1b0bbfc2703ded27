"""Peak memory of the two stages that set the table's: the KernelRules
build and the B(k) table, both of which work in fixed-size blocks.

A peak is tracemalloc's high-water mark above the start of the call, in
MiB; numpy reports its buffers to tracemalloc."""

import tracemalloc

from bdfvac.dispersion import KernelRules, ModelParams, solve_dispersion
from bdfvac.numerics import make_grid
from bdfvac.polarization import DEFAULT_K_MIN, K_SWITCH, b_lambda_k, default_k_nodes

MiB = 2.0**20
CUTOFF = 1e4


def _peak(call) -> float:
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / MiB
    finally:
        if not tracing:
            tracemalloc.stop()


def test_kernel_rules_build_is_bounded():
    # 4.70 MiB at 4096 nodes in blocks of 2560 pieces; integrating all
    # 20475 pieces in one _moments call peaked at 17.31 MiB
    grid = make_grid(CUTOFF, 4096, "geometric")
    assert _peak(lambda: KernelRules(grid)) < 6.0


def test_b_k_table_is_bounded():
    # the table's 450 k from K_SWITCH on, at 2048 nodes: 1.63 MiB in
    # blocks of 256 panels (2.10 in blocks of 512); with every panel's
    # geometry and q-side profiles made at once it peaked at 8.23 MiB
    grid = make_grid(CUTOFF, 2048, "geometric")
    d = solve_dispersion(ModelParams(0.01, CUTOFF), grid)
    d.interpolant  # built once per Dispersion, before the table
    k = default_k_nodes(CUTOFF, 512, DEFAULT_K_MIN)
    k = k[k >= K_SWITCH]
    assert k.size == 450
    assert _peak(lambda: b_lambda_k(d, k)) < 3.0
