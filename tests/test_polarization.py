import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import bdfvac.dispersion
import bdfvac.polarization
from bdfvac.dispersion import ModelParams, free_dispersion, solve_dispersion
from bdfvac.energy import regime_sweep
from bdfvac.numerics import InvalidParameterError, ShapeMismatchError, make_grid
from bdfvac.pekar import solve_pekar
from bdfvac.polarization import (
    _GL64_W,
    _GL64_X,
    DEFAULT_K_MIN,
    K_SWITCH,
    b_lambda_k,
    b_lambda_zero_radial,
    b_screening,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
    kernel_difference_bound_check,
    linear_response_density,
    polarization_table,
    table_to_csv,
)
from oracles import b_lambda_k_raw, screened_density

ALPHA = 0.01
CUTOFF = 1e4


def _reference_profiles(d, k, u, c):
    sin = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    lx = u * sin
    pz = u * c + 0.5 * k
    qz = u * c - 0.5 * k
    pn = np.hypot(lx, pz)
    qn = np.hypot(lx, qz)
    g0i = PchipInterpolator(d.grid.nodes, d.g0, extrapolate=True)
    g1i = PchipInterpolator(d.grid.nodes, d.g1, extrapolate=True)
    return lx, pz, qz, pn, qn, g0i(pn), g0i(qn), g1i(pn), g1i(qn)


def reference_wedge_integrand(d, k, u, c):
    """Wedge integrand with both sides evaluated directly, no mirroring."""
    lx, pz, qz, pn, qn, g0p, g0q, g1p, g1q = _reference_profiles(d, k, u, c)
    with np.errstate(invalid="ignore", divide="ignore"):
        px_h, pz_h = np.where(pn > 0, lx / pn, 0.0), np.where(pn > 0, pz / pn, 1.0)
        qx_h, qz_h = np.where(qn > 0, lx / qn, 0.0), np.where(qn > 0, qz / qn, 1.0)
    ax, az = g1p * px_h, g1p * pz_h
    bx, bz = g1q * qx_h, g1q * qz_h
    d0 = g0p - g0q
    dx = ax - bx
    dz = az - bz
    D0x = d0 * bx - g0q * dx
    D0z = d0 * bz - g0q * dz
    Dxz = dx * bz - dz * bx
    wedge = D0x**2 + D0z**2 + Dxz**2
    etp = np.hypot(g0p, g1p)
    etq = np.hypot(g0q, g1q)
    dot = g0p * g0q + ax * bx + az * bz
    return wedge / (etp * etq * (etp + etq) * (etp * etq + dot))


def reference_raw_integrand(d, k, u, c):
    """Raw integrand with both sides evaluated directly, no mirroring."""
    lx, pz, qz, pn, qn, g0p, g0q, g1p, g1q = _reference_profiles(d, k, u, c)
    cosang = np.where((pn > 0) & (qn > 0), (lx * lx + pz * qz) / (pn * qn), 1.0)
    etp = np.hypot(g0p, g1p)
    etq = np.hypot(g0q, g1q)
    dot = g0p * g0q + g1p * g1q * cosang
    return (etp * etq - dot) / (etp * etq * (etp + etq))


def per_panel_b_lambda_k(d, k, integrand):
    """Reference B(k): one integrand call per radial panel, panel sums
    added in panel order."""
    cut = d.grid.cutoff
    u_hi = cut * cut - 0.25 * k * k
    if u_hi <= 0:
        return 0.0
    u_max = math.sqrt(u_hi)
    panels = [(0.0, min(1.0, u_max))]
    lo = min(1.0, u_max)
    while lo < u_max:
        hi = min(lo * 4.0, u_max)
        panels.append((lo, hi))
        lo = hi
    total = 0.0
    for a, b in panels:
        um = 0.5 * (a + b) + 0.5 * (b - a) * _GL64_X
        uw = 0.5 * (b - a) * _GL64_W
        with np.errstate(divide="ignore"):
            cmax = np.clip((cut * cut - um * um - 0.25 * k * k) / (um * k), 0.0, 1.0)
        C = cmax[:, None] * _GL64_X[None, :]
        Cw = cmax[:, None] * _GL64_W[None, :]
        f = integrand(d, k, um[:, None], C)
        total += float(np.dot(uw * um * um, np.sum(f * Cw, axis=1)))
    return 2.0 * math.pi * total / (math.pi**2 * k * k)


@pytest.fixture(scope="module")
def dressed():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def free():
    return free_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def table(dressed):
    return polarization_table(dressed, default_k_nodes(CUTOFF, 128, DEFAULT_K_MIN))


class TestZeroMomentumValue:
    def test_free_log_growth_window(self, free):
        B0 = b_lambda_zero_radial(free)
        ratio = B0 * 3.0 * math.pi / (2.0 * math.log(CUTOFF))
        assert 0.75 <= ratio <= 1.25

    def test_free_log_growth_ratio_monotone_in_cutoff(self):
        ratios = []
        for cut in (1e2, 1e3, 1e4, 1e6):
            d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
            ratios.append(b_lambda_zero_radial(d) * 3.0 * math.pi / (2.0 * math.log(cut)))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)

    def test_dressed_positive_and_log_bounded(self, dressed):
        B0 = b_lambda_zero_radial(dressed)
        assert 0.0 < B0 <= 2.0 * math.log(CUTOFF)


class TestCrossMethodConsistency:
    def test_small_k_integral_matches_radial_form_free(self, free):
        B0 = b_lambda_zero_radial(free)
        Bk = b_lambda_k(free, 1e-2)
        assert abs(Bk / B0 - 1.0) < 0.02

    def test_small_k_integral_matches_radial_form_dressed(self, dressed):
        B0 = b_lambda_zero_radial(dressed)
        Bk = b_lambda_k(dressed, 1e-2)
        assert abs(Bk / B0 - 1.0) < 0.02

    def test_wedge_equals_raw_at_moderate_k(self, dressed):
        w = b_lambda_k(dressed, 1.0)
        r = b_lambda_k_raw(dressed, 1.0)
        assert abs(w - r) / w < 1e-8

    def test_vanishes_at_support_edge(self, dressed):
        assert b_lambda_k(dressed, 2.0 * CUTOFF) == pytest.approx(0.0, abs=1e-12)


class TestBatchedQuadrature:
    @pytest.mark.parametrize(
        "k", [K_SWITCH, 0.3, 1.0, CUTOFF, 2.0 * CUTOFF * (1.0 - 1e-9), 2.0 * CUTOFF]
    )
    @pytest.mark.parametrize(
        "b_k, integrand",
        [(b_lambda_k, reference_wedge_integrand), (b_lambda_k_raw, reference_raw_integrand)],
        ids=["wedge", "raw"],
    )
    def test_bitwise_equal_to_per_panel_reference(self, dressed, b_k, integrand, k):
        assert b_k(dressed, k) == per_panel_b_lambda_k(dressed, k, integrand)

    def test_table_builds_one_interpolant(self, dressed, monkeypatch):
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return PchipInterpolator(*args, **kwargs)

        monkeypatch.setattr(bdfvac.dispersion, "PchipInterpolator", counting)
        fresh = replace(dressed)  # a new instance starts with no cached interpolant
        t = polarization_table(fresh, default_k_nodes(CUTOFF, 16, DEFAULT_K_MIN))
        assert np.count_nonzero(t.k_nodes >= K_SWITCH) > 1
        assert len(builds) == 1

    def test_regime_sweep_skips_the_2d_integral(self, monkeypatch):
        def refuse(d, k):
            raise AssertionError(f"B({k}) evaluated but only B(0) is used")

        monkeypatch.setattr(bdfvac.polarization, "b_lambda_k", refuse)
        # cutoff e^10: the grid's first node lies above K_SWITCH
        sweep = regime_sweep(
            [0.01],
            0.1,
            solve_pekar(make_grid(40.0, 1024, "uniform")),
            lambda params: solve_dispersion(params, make_grid(params.cutoff, 128, "geometric")),
        )
        assert len(sweep.rows) == 1


class TestScreening:
    def test_closed_form(self):
        assert math.isclose(b_screening(2.0, 0.5), 0.5, rel_tol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        B=st.floats(min_value=0.0, max_value=1e6),
        alpha=st.floats(min_value=1e-6, max_value=1.2),
    )
    def test_algebra_and_range(self, B, alpha):
        b = b_screening(B, alpha)
        assert 0.0 <= b < 1.0
        # invert: b/(1-b) = alpha B
        assert math.isclose(b / (1.0 - b), alpha * B, rel_tol=1e-9, abs_tol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            b_screening(-1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            b_screening(1.0, -0.1)
        assert b_screening(1.0, 0.0) == 0.0


class TestTable:
    def test_nonnegative_and_bounded(self, table):
        assert np.all(table.B >= 0.0)
        assert np.all(table.b >= 0.0)
        assert np.all(table.b < 1.0)

    def test_small_k_uses_zero_momentum_value(self, table):
        mask = table.k_nodes < K_SWITCH
        assert np.all(table.B[mask] == table.B0_at_zero)

    def test_free_table_kind(self):
        d = free_dispersion(ModelParams(ALPHA, 100.0), make_grid(100.0, 128, "geometric"))
        t = polarization_table(d, default_k_nodes(100.0, 128, DEFAULT_K_MIN))
        assert np.all(t.B >= 0.0)

    def test_default_k_nodes_span(self):
        k = default_k_nodes(CUTOFF, 128, DEFAULT_K_MIN)
        assert k[0] == pytest.approx(1e-4)
        assert k[-1] == pytest.approx(2.0 * CUTOFF)

    def test_csv_deterministic(self, table, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        table_to_csv(table, a, tmp_path / "a.json")
        table_to_csv(table, b, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestContinuity:
    def test_modulus_bounded(self, table):
        rep = continuity_modulus(table)
        assert rep.max_ratio <= 10.0

    def test_report_serializes(self, table):
        d = asdict(continuity_modulus(table))
        assert "max_ratio" in d


class TestPointwiseKernelBound:
    def test_no_violations_dressed(self, dressed):
        rep = kernel_difference_bound_check(dressed, seed=0)
        assert rep.violations == 0

    def test_no_violations_free(self, free):
        rep = kernel_difference_bound_check(free, seed=3)
        assert rep.violations == 0


class TestChargeRenormalization:
    def test_value_and_reduction(self, free):
        B0 = b_lambda_zero_radial(free)
        Z3, alpha_phys = charge_renormalization(ModelParams(ALPHA, CUTOFF), B0)
        assert math.isclose(Z3, 1.0 / (1.0 + ALPHA * B0), rel_tol=1e-14)
        assert 0.0 < alpha_phys < ALPHA


class TestLinearResponse:
    def test_linearity_and_sign(self, table):
        rho = 1.0 / (1.0 + table.k_nodes**2)
        r1 = linear_response_density(table, rho)
        r2 = linear_response_density(table, 2.0 * rho)
        assert np.array_equal(r2, 2.0 * r1)
        assert np.all(r1 <= 0.0)

    def test_screened_density_fraction(self, table):
        n = np.ones_like(table.k_nodes)
        s = screened_density(table, n)
        assert np.array_equal(s, -table.b)

    def test_shape_validation(self, table):
        with pytest.raises(ShapeMismatchError):
            linear_response_density(table, np.ones(3))
