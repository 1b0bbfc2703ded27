import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import bdfvac.dispersion
import bdfvac.polarization
from bdfvac.dispersion import ModelParams, free_dispersion, solve_dispersion
from bdfvac.energy import regime_sweep
from bdfvac.numerics import InvalidParameterError, make_grid
from bdfvac.pekar import solve_pekar
from bdfvac.polarization import (
    _GL64_W,
    _GL64_X,
    DEFAULT_K_MIN,
    K_SWITCH,
    Workspace,
    b_lambda_k,
    b_lambda_zero_radial,
    b_screening,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
    kernel_difference_bound_check,
    polarization_table,
    table_to_csv,
)
from oracles import (
    b_lambda_k_raw,
    free_b_lambda_zero,
    kernel_bound_per_sample,
    screened_density,
)

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
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    dot = g0p * g0q + ax * bx + az * bz
    return wedge / (etp * etq * (etp + etq) * (etp * etq + dot))


def reference_raw_integrand(d, k, u, c):
    """Raw integrand with both sides evaluated directly, no mirroring."""
    lx, pz, qz, pn, qn, g0p, g0q, g1p, g1q = _reference_profiles(d, k, u, c)
    cosang = np.where((pn > 0) & (qn > 0), (lx * lx + pz * qz) / (pn * qn), 1.0)
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    dot = g0p * g0q + g1p * g1q * cosang
    return (etp * etq - dot) / (etp * etq * (etp + etq))


# the rules in c = cos(l, k): b_lambda_k takes the c >= 0 half of the
# 64-node Gauss rule with doubled weights, the full rule covers both signs
HALF_C_RULE = (_GL64_X[32:], 2.0 * _GL64_W[32:])
FULL_C_RULE = (_GL64_X, _GL64_W)


def per_panel_b_lambda_k(d, k, integrand, c_rule=HALF_C_RULE):
    """Reference B(k): one integrand call per radial panel on the rule
    c_rule = (nodes, weights) in c over [-1, 1] scaled to [-cmax, cmax],
    panel sums added in panel order."""
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
        C = cmax[:, None] * c_rule[0][None, :]
        Cw = cmax[:, None] * c_rule[1][None, :]
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

    @pytest.mark.parametrize("cut", [1e4, 1e5, 1e6])
    def test_free_radial_form_matches_closed_form(self, cut):
        # not below 1e4: there the O(cutoff^-2) term the closed form drops
        # is 7.4e-8 (1e3) and 1.1e-5 (1e2) at every n
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
        assert abs(b_lambda_zero_radial(d) / free_b_lambda_zero(cut) - 1.0) <= 1e-8

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
        assert abs(b_lambda_k(free, K_SWITCH) / B0 - 1.0) <= 1e-6

    def test_small_k_integral_matches_radial_form_dressed(self, dressed):
        B0 = b_lambda_zero_radial(dressed)
        Bk = b_lambda_k(dressed, 1e-2)
        assert abs(Bk / B0 - 1.0) < 0.02
        assert abs(b_lambda_k(dressed, K_SWITCH) / B0 - 1.0) <= 1e-6

    def test_wedge_equals_raw_at_moderate_k(self, dressed):
        w = b_lambda_k(dressed, 1.0)
        r = b_lambda_k_raw(dressed, 1.0)
        assert abs(w - r) / w < 1e-8

    def test_vanishes_at_support_edge(self, dressed):
        assert b_lambda_k(dressed, 2.0 * CUTOFF) == pytest.approx(0.0, abs=1e-12)


BATCH_K = [K_SWITCH, 0.3, 1.0, CUTOFF, 2.0 * CUTOFF * (1.0 - 1e-9), 2.0 * CUTOFF]


class TestBatchedQuadrature:
    @pytest.mark.parametrize("k", BATCH_K)
    @pytest.mark.parametrize(
        "b_k, integrand",
        [(b_lambda_k, reference_wedge_integrand), (b_lambda_k_raw, reference_raw_integrand)],
        ids=["wedge", "raw"],
    )
    def test_bitwise_equal_to_per_panel_reference(self, dressed, b_k, integrand, k):
        assert b_k(dressed, k) == per_panel_b_lambda_k(dressed, k, integrand)

    @pytest.mark.parametrize("k", BATCH_K)
    def test_half_rule_matches_the_full_rule(self, dressed, k):
        # fails if the half rule's weights are not doubled or if p and q
        # are not paired at the same c
        full = per_panel_b_lambda_k(dressed, k, reference_wedge_integrand, FULL_C_RULE)
        assert abs(b_lambda_k(dressed, k) - full) <= 1e-14 * b_lambda_zero_radial(dressed)

    def test_interpolant_row_is_the_full_rule_in_ascending_order(self, dressed):
        rows = []
        fresh = replace(dressed)
        interpolant = fresh.interpolant

        def recording(x, *args):
            rows.append(x)
            return interpolant(x, *args)

        fresh.__dict__["interpolant"] = recording  # shadows the cached property
        k, u, cmax = 1.0, np.array([[0.5], [3.0], [7.0e3]]), np.array([[1.0], [0.7], [0.2]])
        bdfvac.polarization._momenta(fresh, k, u, cmax * _GL64_X[32:], Workspace())
        c = cmax * _GL64_X
        full = np.hypot(u * np.sqrt(np.clip(1.0 - c * c, 0.0, None)), u * c + 0.5 * k)
        assert len(rows) == 1
        assert np.array_equal(rows[0], full)
        assert np.all(np.diff(rows[0], axis=-1) > 0)

    def test_table_calls_b_k_once_per_k_from_the_switch(self, dressed, monkeypatch):
        # bench/spans.py counts these calls as polarization.b_k_calls
        calls = []

        def counting(d, k, work):
            calls.append(k)
            return b_lambda_k(d, k, work)

        monkeypatch.setattr(bdfvac.polarization, "b_lambda_k", counting)
        k = default_k_nodes(CUTOFF, 16, DEFAULT_K_MIN)
        polarization_table(dressed, k)
        assert np.any(k < K_SWITCH)
        assert calls == k[k >= K_SWITCH].tolist()

    @pytest.mark.parametrize("order", ["ascending", "reversed", "shuffled"])
    def test_table_workspace_carries_nothing_between_k(self, dressed, order):
        # BATCH_K takes 8, 8, 8, 8, 1 and 0 radial panels; the added k takes
        # 3, so that a k with more than one panel but fewer than the one
        # before it meets buffers that are not cut back to its size
        k = sorted([*BATCH_K, 2.0 * CUTOFF * (1.0 - 1e-7)])
        shuffled = [k[i] for i in (3, 6, 0, 5, 1, 4, 2)]
        k = {"ascending": k, "reversed": k[::-1], "shuffled": shuffled}
        t = polarization_table(dressed, k[order])
        assert [float(b) for b in t.B] == [b_lambda_k(dressed, kk) for kk in k[order]]

    def test_table_builds_one_interpolant(self, dressed, monkeypatch):
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return CubicHermiteSpline(*args, **kwargs)

        monkeypatch.setattr(bdfvac.dispersion, "CubicHermiteSpline", counting)
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


class TestFloatRange:
    def test_b0_raises_where_its_integrand_overflows(self):
        # u^2 (g0 g0' + g1 g1')^2 passes the float64 range near cutoff 1e77
        d = free_dispersion(ModelParams(ALPHA, 1e80), make_grid(1e80, 512, "geometric"))
        with pytest.raises(InvalidParameterError, match="overflows float64"):
            b_lambda_zero_radial(d)

    def test_b_k_raises_where_its_weights_overflow(self):
        # uw um^2 passes the float64 range near cutoff 5e102
        d = free_dispersion(ModelParams(ALPHA, 1e105), make_grid(1e105, 512, "geometric"))
        with pytest.raises(InvalidParameterError, match="overflows float64"):
            b_lambda_k(d, 1.0)


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

    def test_b0_only_table(self, dressed):
        t = polarization_table(dressed, k_nodes=())
        assert t.k_nodes.size == t.B.size == t.b.size == 0
        assert t.B0_at_zero == polarization_table(dressed, [DEFAULT_K_MIN]).B0_at_zero

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

    def test_modulus_bounded_at_large_cutoff(self):
        cut = 1e6
        d = solve_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
        k = default_k_nodes(cut, 128, DEFAULT_K_MIN)
        rep = continuity_modulus(polarization_table(d, k[k <= 0.1]))
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

    @pytest.mark.parametrize("cutoff", [1e4, 1e6])
    def test_batched_matches_per_sample(self, cutoff):
        d = solve_dispersion(ModelParams(ALPHA, cutoff), make_grid(cutoff, 512, "geometric"))
        reports = [kernel_difference_bound_check(d, seed) for seed in range(10)]
        for seed, rep in enumerate(reports):
            ref = kernel_bound_per_sample(d, seed)
            assert rep.n_samples == ref.n_samples and rep.violations == ref.violations
            assert abs(rep.max_excess - ref.max_excess) <= 1e-14 * abs(ref.max_excess)
        if cutoff == 1e6:
            # the comparison covers samples that break the bound
            assert any(rep.violations > 0 for rep in reports)


class TestChargeRenormalization:
    def test_value_and_reduction(self, free):
        B0 = b_lambda_zero_radial(free)
        Z3, alpha_phys = charge_renormalization(ModelParams(ALPHA, CUTOFF), B0)
        assert math.isclose(Z3, 1.0 / (1.0 + ALPHA * B0), rel_tol=1e-14)
        assert 0.0 < alpha_phys < ALPHA


class TestLinearResponse:
    def test_screened_density_fraction(self, table):
        n = np.ones_like(table.k_nodes)
        s = screened_density(table, n)
        assert np.array_equal(s, -table.b)
