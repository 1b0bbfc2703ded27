import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import bdfvac.dispersion
from bdfvac.dispersion import (
    ALPHA_REGIME_LIMIT,
    Dispersion,
    KernelRules,
    ModelParams,
    _k1_bracket_series,
    _pchip_slopes,
    angular_kernel_K0,
    angular_kernel_K1,
    check_asymptotics,
    dispersion_to_csv,
    free_dispersion,
    g0_derivatives,
    g1_prime_zero,
    m_alpha,
    scf_step,
    solve_dispersion,
)
from bdfvac.numerics import InvalidParameterError, _distance_panels, make_grid

ALPHA = 0.01
CUTOFF = 1e4


@pytest.fixture(scope="module")
def solved():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF))


class TestModelParams:
    def test_L(self):
        p = ModelParams(0.01, 1e4)
        assert math.isclose(p.L, 0.01 * math.log(1e4), rel_tol=1e-15)

    def test_from_L_round_trip(self):
        p = ModelParams.from_L(0.02, 0.05)
        assert math.isclose(p.L, 0.05, rel_tol=1e-12)

    def test_regime_warning(self):
        assert not ModelParams(0.5, 10.0).regime_warning
        assert ModelParams(ALPHA_REGIME_LIMIT, 10.0).regime_warning

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(-0.1, 10.0)
        with pytest.raises(InvalidParameterError):
            ModelParams(0.1, 0.5)


class TestAngularKernels:
    def test_k0_closed_form_value(self):
        # K0(1,2) = (2*pi*2/1) ln(3)
        assert math.isclose(angular_kernel_K0(1.0, 2.0), 4.0 * math.pi * math.log(3.0), rel_tol=1e-13)

    def test_k1_closed_form_value(self):
        # K1(1,2) = 4 pi ((5/4) ln 3 - 1)
        expected = 4.0 * math.pi * (1.25 * math.log(3.0) - 1.0)
        assert math.isclose(angular_kernel_K1(1.0, 2.0), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("p,s", [(0.3, 0.7), (1.0, 2.0), (5.0, 0.2), (2.0, 2.5)])
    def test_k0_against_angular_quadrature(self, p, s):
        # K0 = 2 pi s^2 int_{-1}^{1} dmu / (p^2 + s^2 - 2 p s mu)
        oracle, _ = quad(lambda mu: 1.0 / (p * p + s * s - 2 * p * s * mu), -1.0, 1.0)
        oracle *= 2.0 * math.pi * s * s
        assert math.isclose(angular_kernel_K0(p, s), oracle, rel_tol=1e-10)

    @pytest.mark.parametrize("p,s", [(0.3, 0.7), (1.0, 2.0), (5.0, 0.2), (2.0, 2.5)])
    def test_k1_against_angular_quadrature(self, p, s):
        # K1 = 2 pi s^2 int_{-1}^{1} mu dmu / (p^2 + s^2 - 2 p s mu)
        oracle, _ = quad(lambda mu: mu / (p * p + s * s - 2 * p * s * mu), -1.0, 1.0)
        oracle *= 2.0 * math.pi * s * s
        assert math.isclose(angular_kernel_K1(p, s), oracle, rel_tol=1e-10)

    def test_kernels_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, s = rng.uniform(0.01, 10.0, size=2)
            assert angular_kernel_K0(p, s) >= 0.0
            assert angular_kernel_K1(p, s) >= 0.0


class TestFreeDispersion:
    def test_profiles(self):
        g = make_grid(100.0, 64, "geometric")
        d = free_dispersion(ModelParams(0.0, 100.0), g)
        assert np.all(d.g0 == 1.0)
        assert np.array_equal(d.g1, g.nodes)

    def test_e_tilde(self):
        g = make_grid(100.0, 64, "geometric")
        d = free_dispersion(ModelParams(0.0, 100.0), g)
        assert np.allclose(d.e_tilde_samples, np.hypot(1.0, g.nodes), rtol=1e-15)

    def test_grid_cutoff_must_match(self):
        g = make_grid(50.0, 64, "geometric")
        with pytest.raises(InvalidParameterError):
            free_dispersion(ModelParams(0.0, 100.0), g)


class TestScfStep:
    def test_identity_at_zero_coupling(self):
        g = make_grid(100.0, 64, "geometric")
        d = free_dispersion(ModelParams(0.0, 100.0), g)
        d2 = scf_step(d)
        assert np.array_equal(d2.g0, d.g0)
        assert np.array_equal(d2.g1, d.g1)

    def test_iterates_keep_ordering(self):
        g = make_grid(CUTOFF, 128, "geometric")
        d = free_dispersion(ModelParams(ALPHA, CUTOFF), g)
        for _ in range(4):
            d = scf_step(d)
            assert np.all(d.g0 >= 1.0)
            assert np.all(d.g1 >= g.nodes * (1.0 - 1e-14))
            assert np.all(d.g1 <= g.nodes * d.g0 * (1.0 + 1e-12))


class _ReferenceRules:
    """The singular rules node by node, unfolded: abscissae S and the K0/K1
    weights WK0/WK1 per row, as the quadrature was built before the PCHIP
    was folded into it."""

    def __init__(self, grid):
        S_rows, K0_rows, K1_rows = [], [], []
        for p in grid.nodes:
            u_l, w_l = _distance_panels(p)
            u_r, w_r = _distance_panels(grid.cutoff - p)
            s = np.concatenate([p - u_l, p + u_r])
            u = np.concatenate([u_l, u_r])
            w = np.concatenate([w_l, w_r])
            logf = np.log((p + s) / u)
            t = np.minimum(p, s) / np.maximum(p, s)
            sym = (p * p + s * s) / (2.0 * p * s)
            brack = np.where(t <= 0.5, _k1_bracket_series(np.minimum(t, 0.5)), sym * logf - 1.0)
            S_rows.append(s)
            K0_rows.append(w * s * logf)
            K1_rows.append(w * s * brack)
        self.S = np.vstack(S_rows)
        self.WK0 = np.vstack(K0_rows)
        self.WK1 = np.vstack(K1_rows)


def _reference_step(d, rules):
    """scf_step with scipy's PCHIP evaluated at every abscissa."""
    p = d.grid.nodes
    et = d.e_tilde_samples
    F0 = PchipInterpolator(p, d.g0 / et, extrapolate=True)(rules.S)
    F1 = PchipInterpolator(p, d.g1 / et, extrapolate=True)(rules.S)
    i0 = np.einsum("ij,ij->i", F0, rules.WK0)
    i1 = np.einsum("ij,ij->i", F1, rules.WK1)
    pref = d.params.alpha / (2.0 * math.pi) / p
    return 1.0 + pref * i0, p + pref * i1


STRONG_ALPHA = 1.2


class TestFoldedQuadrature:
    @pytest.fixture(
        scope="class",
        params=[(128, 1e4), (128, 1.7e7), (512, 1e4), (512, 1.7e7)],
        ids=lambda q: f"n{q[0]}-cutoff{q[1]:g}",
    )
    def grid_and_rules(self, request):
        n, cutoff = request.param
        grid = make_grid(cutoff, n, "geometric")
        return grid, _ReferenceRules(grid), KernelRules(grid)

    @pytest.mark.parametrize("profile", ["free", "dressed"])
    def test_step_matches_pchip_at_every_abscissa(self, grid_and_rules, profile):
        grid, ref_rules, rules = grid_and_rules
        # both extrapolated end intervals are in use
        assert ref_rules.S.min() < grid.nodes[0] and ref_rules.S.max() > grid.nodes[-1]
        params = ModelParams(STRONG_ALPHA, grid.cutoff)
        if profile == "free":
            d = free_dispersion(params, grid)
        else:
            d = solve_dispersion(params, grid)
        g0_ref, g1_ref = _reference_step(d, ref_rules)
        out = scf_step(d, rules)
        assert np.max(np.abs(out.g0 - g0_ref) / np.abs(g0_ref)) <= 1e-14
        assert np.max(np.abs(out.g1 - g1_ref) / np.abs(g1_ref)) <= 1e-14

    def test_solve_builds_no_interpolant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the SCF loop built a PchipInterpolator")

        monkeypatch.setattr(bdfvac.dispersion, "PchipInterpolator", refuse)
        d = solve_dispersion(ModelParams(ALPHA, CUTOFF))
        assert d.report.converged


def _branch_data():
    """Nonuniform nodes and samples reaching every branch of the PCHIP
    slopes: a sign change, a flat segment, the left end slope set to 0 and
    the right one set to 3 m0."""
    x = np.array([0.0, 1.0, 2.0, 3.5, 4.0, 5.5, 6.0, 7.0, 8.0])
    y = np.array([0.0, 1.0, 6.0, 6.0, 2.0, 3.0, 9.0, 4.0, 5.0])
    return x, y


class TestPchipSlopes:
    def test_branch_data_reaches_every_branch(self):
        x, y = _branch_data()
        m = np.diff(y) / np.diff(x)
        dk = _pchip_slopes(x, y)
        assert np.any(m == 0.0)
        assert np.any(np.sign(m[1:]) * np.sign(m[:-1]) < 0)
        assert dk[0] == 0.0
        assert dk[-1] == 3.0 * m[-1]

    @pytest.mark.parametrize("case", ["branches", "geometric", "random"])
    def test_equal_to_scipy(self, case):
        if case == "branches":
            x, y = _branch_data()
        elif case == "geometric":
            grid = make_grid(CUTOFF, 512, "geometric")
            x = grid.nodes
            y = 1.0 / np.hypot(1.0 + 0.01 * np.log1p(x), x)
        else:
            rng = np.random.default_rng(7)
            x = np.cumsum(rng.uniform(0.1, 2.0, 200))
            y = rng.normal(size=200)
        dk = _pchip_slopes(x, y)
        pchip = PchipInterpolator(x, y)
        assert np.array_equal(dk[:-1], pchip.c[2])
        last = float(pchip.derivative()(x[-1]))
        assert abs(dk[-1] - last) <= 1e-12 * max(1.0, abs(last))


class TestStrongCoupling:
    @pytest.mark.parametrize("alpha,iterations", [(0.01, 5), (0.3, 14), (1.2, 33)])
    def test_iterates_keep_ordering(self, monkeypatch, alpha, iterations):
        grid = make_grid(CUTOFF, 512, "geometric")
        p = grid.nodes
        real = bdfvac.dispersion.scf_step
        steps = []

        def checked(d, rules=None):
            out = real(d, rules)
            assert np.all(out.g0 >= 1.0)
            assert np.all(out.g1 >= p * (1.0 - 1e-14))
            assert np.all(out.g1 <= p * out.g0 * (1.0 + 1e-12))
            steps.append(out)
            return out

        monkeypatch.setattr(bdfvac.dispersion, "scf_step", checked)
        d = solve_dispersion(ModelParams(alpha, CUTOFF), grid)
        assert d.report.iterations == iterations
        assert len(steps) == iterations


class TestSolveDispersion:
    def test_converges_quickly(self, solved):
        assert solved.report.converged
        assert solved.report.iterations <= 200

    def test_invariants_hold(self, solved):
        p = solved.grid.nodes
        assert np.all(solved.g0 >= 1.0)
        assert np.all(solved.g1 >= p * (1.0 - 1e-14))
        assert np.all(solved.g1 <= p * solved.g0 * (1.0 + 1e-12))

    def test_m_alpha_small_L_window(self, solved):
        L = solved.params.L
        ratio = (m_alpha(solved) - 1.0) * math.pi / L
        assert 0.7 <= ratio <= 1.3

    def test_g1_slope_small_L_window(self, solved):
        L = solved.params.L
        ratio = (g1_prime_zero(solved) - 1.0) * 3.0 * math.pi / (2.0 * L)
        assert 0.7 <= ratio <= 1.3

    def test_m_alpha_regression(self, solved):
        # frozen value from this pipeline; guards against silent drift
        assert math.isclose(m_alpha(solved), 1.0316962787415533, rel_tol=1e-8)

    def test_g0_derivative_bounds(self, solved):
        d1, d2 = g0_derivatives(solved)
        assert np.max(np.abs(d1)) / ALPHA <= 0.5
        assert np.max(np.abs(d2)) / ALPHA <= 0.5

    def test_grid_doubling_stability(self, solved):
        d2 = solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 1024, "geometric"))
        assert abs(m_alpha(d2) - m_alpha(solved)) < 1e-6

    def test_mass_shift_nearly_linear_in_alpha(self, solved):
        d2 = solve_dispersion(ModelParams(2.0 * ALPHA, CUTOFF))
        shift1 = m_alpha(solved) - 1.0
        shift2 = m_alpha(d2) - 1.0
        assert abs(shift2 / (2.0 * shift1) - 1.0) < 0.02

    def test_zero_coupling_returns_free(self):
        d = solve_dispersion(ModelParams(0.0, 100.0), make_grid(100.0, 64, "geometric"))
        assert np.all(d.g0 == 1.0)
        assert np.array_equal(d.g1, d.grid.nodes)


class TestAsymptoticsReport:
    def test_entries_and_lookup(self, solved):
        rep = check_asymptotics(solved)
        assert rep["m_alpha"].measured == m_alpha(solved)
        assert rep["m_alpha"].rel_deviation < 0.3
        assert rep["g1_prime_zero"].rel_deviation < 0.3
        with pytest.raises(KeyError):
            rep["nope"]

    def test_serializes(self, solved):
        d = check_asymptotics(solved).to_dict()
        assert d["alpha"] == ALPHA
        assert len(d["entries"]) == 4


class TestCsv:
    def test_deterministic_output(self, solved, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dispersion_to_csv(solved, a)
        dispersion_to_csv(solved, b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "p,g0,g1,e_tilde"
