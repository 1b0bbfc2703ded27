"""End-to-end acceptance gate.

Seven criteria, each printed as a PASS/FAIL line on the terminal.  The
numerical windows are frozen; they combine the few analytically pinned
constants with calibrated regression budgets.
"""

import math

import numpy as np
import pytest

from bdfvac.cli import (
    DispersionConfig,
    ModelConfig,
    PekarConfig,
    PolarizationConfig,
    RunConfig,
    run_verification,
)
from bdfvac.dispersion import (
    ModelParams,
    free_dispersion,
    g1_prime_zero,
    m_alpha,
    solve_dispersion,
)
from bdfvac.energy import assemble_breakdown, c0_squared, regime_sweep
from bdfvac.numerics import make_grid
from bdfvac.pekar import GAUSSIAN_BOUND, el_residual, solve_pekar
from bdfvac.polarization import (
    DEFAULT_K_MIN,
    b_lambda_k,
    b_lambda_zero_radial,
    polarization_table,
)

ALPHA = 0.01
CUTOFF = 1e4


@pytest.fixture(scope="module")
def dressed():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def minimizer():
    return solve_pekar(make_grid(40.0, 1024, "uniform"))


@pytest.fixture(scope="module")
def table(dressed):
    return polarization_table(dressed, k_nodes=[DEFAULT_K_MIN])


def _report(capsys, idx, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {idx} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {idx} ({name}) failed"


def test_criterion_1_dispersion_asymptotics(dressed, capsys):
    L = dressed.params.L
    m_ratio = (m_alpha(dressed) - 1.0) * math.pi / L
    slope_ratio = (g1_prime_zero(dressed) - 1.0) * 3.0 * math.pi / (2.0 * L)
    ok = 0.7 <= m_ratio <= 1.3 and 0.7 <= slope_ratio <= 1.3
    _report(capsys, 1, "dispersion asymptotics", ok)


def test_criterion_2_polarization_log_growth(capsys):
    ratios = []
    for cut in (1e2, 1e3, 1e4, 1e6):
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
        ratios.append(b_lambda_zero_radial(d) * 3.0 * math.pi / (2.0 * math.log(cut)))
    at_1e4 = ratios[2]
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    toward_one = all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
    ok = 0.75 <= at_1e4 <= 1.25 and monotone and toward_one
    _report(capsys, 2, "polarization log growth", ok)


def test_criterion_3_cross_method_consistency(dressed, capsys):
    ok = True
    for d in (
        free_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric")),
        dressed,
    ):
        B0 = b_lambda_zero_radial(d)
        Bk = b_lambda_k(d, 1e-2)
        ok = ok and abs(Bk / B0 - 1.0) < 0.02
    _report(capsys, 3, "cross-method consistency", ok)


def test_criterion_4_variational_minimizer(minimizer, capsys):
    beats_bound = minimizer.E <= GAUSSIAN_BOUND + 1e-4
    virial = abs(minimizer.D - 2.0 * minimizer.T) / minimizer.D <= 1e-3
    residual = el_residual(minimizer) <= 1e-6
    doubled = solve_pekar(make_grid(40.0, 2048, "uniform"))
    stable = abs(doubled.E - minimizer.E) <= 1e-3
    ok = beats_bound and virial and residual and stable
    _report(capsys, 4, "variational minimizer", ok)


def test_criterion_5_energy_identity_and_binding(dressed, table, minimizer, capsys):
    br = assemble_breakdown(dressed, table, minimizer)
    total = br.kinetic_corr + br.vacuum_corr + br.direct_corr
    expected = (minimizer.T - minimizer.D) / c0_squared(dressed, table)
    identity = abs(total - expected) / abs(expected) <= 1e-12
    sweep = regime_sweep(
        [0.02, 0.01, 0.005],
        0.05,
        minimizer,
        lambda params: solve_dispersion(params, make_grid(params.cutoff, 256, "geometric")),
    )
    binds = all(
        row["E_pred"] < row["m"] for row in sweep.to_dicts()
    )  # E_CP < 0 in every row by construction
    ok = identity and binds
    _report(capsys, 5, "energy identity and binding", ok)


def test_criterion_6_invariant_suite(capsys):
    cfg = RunConfig(
        model=ModelConfig(alpha=ALPHA, cutoff=CUTOFF),
        dispersion=DispersionConfig(n_nodes=512),
        polarization=PolarizationConfig(k_nodes=64),
        pekar=PekarConfig(n_nodes=1024),
    )
    checks, ok = run_verification(cfg)
    if not ok:
        with capsys.disabled():
            for c in checks:
                if not c.passed:
                    print(f"  failed invariant: {c.name} value={c.value}")
    _report(capsys, 6, "invariant suite", ok)


def test_criterion_7_determinism_and_refinement(dressed, table, minimizer, capsys, tmp_path):
    from bdfvac.dispersion import dispersion_to_csv
    from bdfvac.pekar import state_to_csv
    from bdfvac.polarization import table_to_csv

    # byte-identical reruns of every CSV writer
    deterministic = True
    side = (tmp_path / "side.json",)  # the JSON side file of the table and state writers
    for writer, obj, extra in (
        (dispersion_to_csv, dressed, ()),
        (table_to_csv, table, side),
        (state_to_csv, minimizer, side),
    ):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        writer(obj, a, *extra)
        writer(obj, b, *extra)
        deterministic = deterministic and a.read_bytes() == b.read_bytes()

    # headline scalars stable under doubling of every grid
    d2 = solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 1024, "geometric"))
    t2 = polarization_table(d2, k_nodes=[DEFAULT_K_MIN])
    p2 = solve_pekar(make_grid(40.0, 2048, "uniform"))
    m_stable = abs(m_alpha(d2) - m_alpha(dressed)) <= 1e-6
    B0_stable = abs(t2.B0_at_zero / table.B0_at_zero - 1.0) <= 1e-3
    cp_stable = abs(p2.E - minimizer.E) <= 1e-3
    pred1 = assemble_breakdown(dressed, table, minimizer).total_pred
    pred2 = assemble_breakdown(d2, t2, p2).total_pred
    pred_stable = abs(pred2 - pred1) <= 1e-6
    ok = deterministic and m_stable and B0_stable and cp_stable and pred_stable
    _report(capsys, 7, "determinism and refinement", ok)
