import json
import math

import numpy as np
import pytest

import bdfvac.energy
from bdfvac.dispersion import ModelParams, free_dispersion, solve_dispersion
from bdfvac.energy import (
    EnergyBreakdown,
    assemble_breakdown,
    breakdown_to_json,
    c0_squared,
    regime_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from bdfvac.numerics import InvalidParameterError, make_grid
from bdfvac.pekar import solve_pekar
from bdfvac.polarization import DEFAULT_K_MIN, PolarizationTable, polarization_table
from oracles import predicted_ground_energy, scaling_lambda

ALPHA = 0.01
CUTOFF = 1e4


@pytest.fixture(scope="module")
def dressed():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def table(dressed):
    return polarization_table(dressed, k_nodes=[DEFAULT_K_MIN])


@pytest.fixture(scope="module")
def minimizer():
    return solve_pekar(make_grid(40.0, 1024, "uniform"))


@pytest.fixture(scope="module")
def breakdown(dressed, table, minimizer):
    return assemble_breakdown(dressed, table, minimizer)


def _table_with_screening_half(params, grid):
    # alpha * B = 1 makes the screening fraction exactly 1/2
    B0 = 1.0 / params.alpha
    k = grid.nodes[:1]
    return PolarizationTable(params, k, np.array([B0]), np.array([0.5]), B0)


class TestScalingLambda:
    def test_direct_substitution(self):
        # free profiles have m = 1 and unit slope, so lambda_inv = alpha*b0
        params = ModelParams(0.01, 100.0)
        grid = make_grid(100.0, 256, "geometric")
        d = free_dispersion(params, grid)
        t = _table_with_screening_half(params, grid)
        assert math.isclose(scaling_lambda(d, t), 0.005, rel_tol=1e-9)

    def test_same_order_as_tau(self, dressed, table, breakdown):
        lam_inv = scaling_lambda(dressed, table)
        assert 0.5 <= lam_inv / breakdown.tau <= 2.0

    def test_params_mismatch_rejected(self, dressed, minimizer):
        other = ModelParams(0.02, CUTOFF)
        t = PolarizationTable(other, np.array([1.0]), np.array([1.0]), np.array([0.5]), 1.0)
        with pytest.raises(InvalidParameterError):
            scaling_lambda(dressed, t)
        with pytest.raises(InvalidParameterError):
            c0_squared(dressed, t)
        with pytest.raises(InvalidParameterError):
            assemble_breakdown(dressed, t, minimizer)


class TestC0Squared:
    def test_defining_identity(self, dressed, table, breakdown):
        c0sq = c0_squared(dressed, table)
        lhs = c0sq * (ALPHA * breakdown.b0) ** 2 * breakdown.m / (2.0 * breakdown.g1_slope**2)
        assert math.isclose(lhs, 1.0, rel_tol=1e-14)

    def test_cross_identity_with_lambda(self, dressed, table, breakdown):
        # 1/C0^2 = alpha*b0*lambda_inv/2
        lam_inv = scaling_lambda(dressed, table)
        assert math.isclose(
            1.0 / c0_squared(dressed, table), ALPHA * breakdown.b0 * lam_inv / 2.0, rel_tol=1e-14
        )

    def test_weak_coupling_magnitude(self, dressed, table):
        assert c0_squared(dressed, table) > 1e3

    def test_infinite_at_zero_coupling(self):
        params = ModelParams(0.0, 100.0)
        grid = make_grid(100.0, 64, "geometric")
        d = free_dispersion(params, grid)
        t = polarization_table(d, k_nodes=[DEFAULT_K_MIN])
        assert math.isinf(c0_squared(d, t))


class TestBreakdown:
    def test_correction_identity_machine_precision(self, dressed, table, minimizer, breakdown):
        total = breakdown.kinetic_corr + breakdown.vacuum_corr + breakdown.direct_corr
        expected = (minimizer.T - minimizer.D) / c0_squared(dressed, table)
        assert abs(total - expected) / abs(expected) <= 1e-12

    def test_kinetic_corr_is_scaled_kinetic_energy(self, dressed, table, minimizer, breakdown):
        assert math.isclose(
            breakdown.kinetic_corr, minimizer.T / c0_squared(dressed, table), rel_tol=1e-12
        )

    def test_potential_split_sums_to_screening_gain(self, dressed, table, minimizer, breakdown):
        lam_inv = scaling_lambda(dressed, table)
        expected = -ALPHA * breakdown.b0 * minimizer.D * lam_inv / 2.0
        assert math.isclose(breakdown.vacuum_corr + breakdown.direct_corr, expected, rel_tol=1e-12)

    def test_sign_structure(self, breakdown):
        assert breakdown.vacuum_corr > 0.0
        assert breakdown.direct_corr < 0.0
        assert breakdown.vacuum_corr + breakdown.direct_corr < 0.0

    def test_total_is_m_plus_scaled_E_CP(self, breakdown):
        expected = breakdown.m + breakdown.E_CP / breakdown.C0_sq
        assert math.isclose(breakdown.total_pred, expected, rel_tol=1e-14)

    def test_binding_magnitude_window(self, breakdown):
        binding = breakdown.m - breakdown.total_pred
        assert 0.0 < binding < ALPHA**2 * math.log(CUTOFF) ** 2 * breakdown.m

    def test_serializes(self, breakdown, tmp_path):
        path = tmp_path / "b.json"
        breakdown_to_json(breakdown, path)
        data = json.loads(path.read_text())
        assert data["total_pred"] == breakdown.total_pred

    def test_reads_each_profile_scalar_once(self, dressed, table, minimizer, monkeypatch):
        calls = {}
        for name in ("m_alpha", "g1_prime_zero"):
            original = getattr(bdfvac.energy, name)

            def counting(d, name=name, original=original):
                calls[name] = calls.get(name, 0) + 1
                return original(d)

            monkeypatch.setattr(bdfvac.energy, name, counting)
        assemble_breakdown(dressed, table, minimizer)
        assert calls == {"m_alpha": 1, "g1_prime_zero": 1}

    def test_zero_coupling_reduction(self, minimizer):
        params = ModelParams(0.0, 100.0)
        grid = make_grid(100.0, 64, "geometric")
        d = free_dispersion(params, grid)
        t = polarization_table(d, k_nodes=[DEFAULT_K_MIN])
        br = assemble_breakdown(d, t, minimizer)
        assert br.total_pred == br.m == 1.0
        assert br.kinetic_corr == br.vacuum_corr == br.direct_corr == 0.0


class TestPrediction:
    def test_binding_whenever_minimum_negative(self, dressed, table, minimizer, breakdown):
        pred = predicted_ground_energy(dressed, table, minimizer.E)
        assert pred < breakdown.m
        assert pred == breakdown.total_pred

    def test_zero_minimum_returns_mass(self, dressed, table, breakdown):
        with pytest.warns(UserWarning):
            pred = predicted_ground_energy(dressed, table, 0.0)
        assert pred == breakdown.m

    def test_warns_without_binding(self, dressed, table):
        with pytest.warns(UserWarning):
            predicted_ground_energy(dressed, table, 0.5)


def _solver(n_nodes):
    return lambda params: solve_dispersion(params, make_grid(params.cutoff, n_nodes, "geometric"))


@pytest.fixture(scope="module")
def sweep(minimizer):
    return regime_sweep([0.02, 0.01, 0.005], 0.05, minimizer, _solver(256))


class TestSweep:
    def test_row_count_and_columns(self, sweep):
        assert len(sweep.rows) == 3
        assert set(sweep.to_dicts()[0]) == {
            "alpha", "cutoff", "m", "b0", "g1_slope", "lambda_inv", "C0_sq", "E_pred", "binding",
        }

    def test_predictor_construction_identity(self, sweep):
        for row in sweep.to_dicts():
            lhs = row["C0_sq"] * (row["E_pred"] - row["m"])
            assert math.isclose(lhs, sweep.E_CP, rel_tol=1e-5)

    def test_screening_value_controlled_by_L(self, sweep):
        b0s = [row["b0"] for row in sweep.to_dicts()]
        for a, b in zip(b0s, b0s[1:]):
            assert abs(b / a - 1.0) < 0.2

    def test_mass_shift_tracks_L(self, sweep):
        for row in sweep.to_dicts():
            ratio = (row["m"] - 1.0) * math.pi / sweep.L
            assert abs(ratio - 1.0) < 0.4

    def test_binding_positive_in_every_row(self, sweep):
        assert all(row["binding"] > 0.0 for row in sweep.to_dicts())

    def test_binding_is_the_correction_term(self, sweep):
        # -E_CP/C0^2 itself, not m - E_pred, which loses up to an ulp of m
        for row in sweep.to_dicts():
            assert row["binding"] == -sweep.E_CP / row["C0_sq"]
            assert abs(row["binding"] - (row["m"] - row["E_pred"])) <= math.ulp(row["m"])

    def test_overflowing_cutoff_raises(self, minimizer):
        # exp(0.1 / 1e-4) overflows a float: the sweep refuses, with no row
        with pytest.raises(InvalidParameterError, match="overflows a float"):
            regime_sweep([0.01, 1e-4], 0.1, minimizer, _solver(128))

    def test_cutoff_rounding_to_one_raises(self, minimizer):
        # exp(1e-18 / 1) is 1.0, no cutoff
        with pytest.raises(InvalidParameterError):
            regime_sweep([1.0], 1e-18, minimizer, solve_dispersion)

    def test_validation(self, minimizer):
        with pytest.raises(InvalidParameterError):
            regime_sweep([0.01], -1.0, minimizer, solve_dispersion)
        with pytest.raises(InvalidParameterError):
            regime_sweep([-0.01], 0.05, minimizer, solve_dispersion)

    def test_serialization(self, sweep, tmp_path):
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_to_csv(sweep, c1)
        sweep_to_csv(sweep, c2)
        assert c1.read_bytes() == c2.read_bytes()
        sweep_to_json(sweep, tmp_path / "s.json")
        data = json.loads((tmp_path / "s.json").read_text())
        assert list(data) == ["L", "E_CP", "rows"]
        assert len(data["rows"]) == 3
        assert data["E_CP"] == sweep.E_CP
