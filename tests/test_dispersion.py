import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import bdfvac.dispersion
from bdfvac.cli import EXIT_OK, main
from bdfvac.dispersion import (
    ALPHA_REGIME_LIMIT,
    Dispersion,
    KernelRules,
    ModelParams,
    _LOG_W,
    _NEAR_V,
    _NEAR_W,
    _graded_depth,
    _graded_panels,
    _k1_bracket_series,
    _kernel_rule,
    _moments,
    _pchip_slopes,
    check_asymptotics,
    dispersion_to_csv,
    free_dispersion,
    g1_prime_zero,
    m_alpha,
    scf_step,
    solve_dispersion,
)
from bdfvac.numerics import FixedPointError, InvalidParameterError, RadialGrid, make_grid
from bdfvac.energy import assemble_breakdown
from bdfvac.pekar import DEFAULT_R_MAX, solve_pekar
from bdfvac.polarization import polarization_table
from oracles import (
    angular_kernel_K0,
    angular_kernel_K1,
    bracket_series_26,
    e_tilde,
    geometric_bounds_grid,
    interp,
    kernel_row_by_quad,
    limit_laws,
)

ALPHA = 0.01
CUTOFF = 1e4


@pytest.fixture(scope="module")
def solved():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


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

    @pytest.mark.parametrize(
        "alpha, cutoff", [(math.nan, 10.0), (math.inf, 10.0), (0.1, math.inf), (0.1, math.nan)]
    )
    def test_non_finite_rejected(self, alpha, cutoff):
        with pytest.raises(InvalidParameterError):
            ModelParams(alpha, cutoff)

    def test_from_L_overflow_is_a_parameter_error(self):
        with pytest.raises(InvalidParameterError):
            ModelParams.from_L(1e-4, 0.1)


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
        d2 = scf_step(d, KernelRules(g))
        assert np.array_equal(d2.g0, d.g0)
        assert np.array_equal(d2.g1, d.g1)

    def test_zero_coupling_reads_the_rules(self):
        d = free_dispersion(ModelParams(0.0, 100.0), make_grid(100.0, 64, "geometric"))
        other = KernelRules(make_grid(100.0, 64, "geometric"))
        with pytest.raises(InvalidParameterError):
            scf_step(d, other)

    def test_rules_from_another_grid_rejected(self):
        d = free_dispersion(ModelParams(ALPHA, 100.0), make_grid(100.0, 64, "geometric"))
        other = KernelRules(make_grid(100.0, 64, "geometric"))
        with pytest.raises(InvalidParameterError):
            scf_step(d, other)

    def test_iterates_keep_ordering(self):
        g = make_grid(CUTOFF, 128, "geometric")
        d = free_dispersion(ModelParams(ALPHA, CUTOFF), g)
        rules = KernelRules(g)
        for _ in range(4):
            d = scf_step(d, rules)
            assert np.all(d.g0 >= 1.0)
            assert np.all(d.g1 >= g.nodes * (1.0 - 1e-14))
            assert np.all(d.g1 <= g.nodes * d.g0 * (1.0 + 1e-12))


def _row_pieces(grid):
    """The cubic pieces of every row: [0, x_0], each node interval and
    [x_{n-1}, cutoff], as (a, b) edges."""
    edges = np.concatenate([[0.0], grid.nodes, [grid.cutoff]])
    return edges[:-1], edges[1:]


def _reference_integrals(grid, f0, f1, rows=None):
    """The K0 integral of scipy's PCHIP of f0 and the K1 integral of that
    of f1 at each node of rows, shape (2, rows): each row integrates every
    piece of _row_pieces directly with _kernel_rule, and the PCHIP is
    evaluated at every abscissa, with no template and no folding."""
    x = grid.nodes
    rows = np.arange(x.size) if rows is None else np.asarray(rows)
    pchips = [PchipInterpolator(x, f, extrapolate=True) for f in (f0, f1)]
    a, b = _row_pieces(grid)
    out = np.zeros((2, rows.size))
    for j, i in enumerate(rows):
        _, s, weights = _kernel_rule(x[i], a, b, _graded_depth(x[i], a, b))
        for kernel in (0, 1):
            out[kernel, j] = np.sum(weights[kernel] * pchips[kernel](s))
    return out


def _reference_step(d):
    """scf_step with the integrals of _reference_integrals."""
    p = d.grid.nodes
    et = d.e_tilde_samples
    i0, i1 = _reference_integrals(d.grid, d.g0 / et, d.g1 / et)
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
        return grid, KernelRules(grid)

    @pytest.mark.parametrize("profile", ["free", "dressed"])
    def test_step_matches_pchip_at_every_abscissa(self, grid_and_rules, profile):
        grid, rules = grid_and_rules
        # both extrapolated end pieces are in use
        a, b = _row_pieces(grid)
        _, s, _ = _kernel_rule(grid.nodes[0], a, b, _graded_depth(grid.nodes[0], a, b))
        assert s.min() < grid.nodes[0] and s.max() > grid.nodes[-1]
        params = ModelParams(STRONG_ALPHA, grid.cutoff)
        if profile == "free":
            d = free_dispersion(params, grid)
        else:
            d = solve_dispersion(params, grid)
        g0_ref, g1_ref = _reference_step(d)
        out = scf_step(d, rules)
        assert np.max(np.abs(out.g0 - g0_ref) / np.abs(g0_ref)) <= 1e-14
        assert np.max(np.abs(out.g1 - g1_ref) / np.abs(g1_ref)) <= 1e-14

    @pytest.mark.parametrize("q", range(8))
    def test_log_weights_exact_to_degree_seven(self, q):
        # int_0^1 v^q (-ln v) dv = 1/(q+1)^2
        value = float(np.dot(_LOG_W, _NEAR_V**q)) * (q + 1) ** 2
        assert abs(value - 1.0) <= 1e-14

    @pytest.mark.parametrize("which", ["default-n128", "deep"])
    def test_last_panels_within_their_room(self, which):
        # every row's pieces, graded toward its node: each piece's first
        # column is its last panel [0, g], no wider than a quarter of its
        # distance from the node, or than p/4 where the node is its end,
        # and no shallower depth would do; every other column is a half
        # octave, (sqrt(2) - 1) times as wide as its distance from the end
        grid = make_grid(CUTOFF, 128, "geometric") if which == "default-n128" else _deep_grid()
        x = grid.nodes
        a, b = _row_pieces(grid)
        p = np.repeat(x, a.size)
        a, b = np.tile(a, x.size), np.tile(b, x.size)
        delta = np.maximum(a - p, p - b)
        room = np.where(delta > 0, delta, p) / 4
        piece, r, w, c = _graded_panels(b - a, _graded_depth(p, a, b), delta == 0)
        n = a.size
        assert r.shape == w.shape == (8, piece.size)
        assert np.array_equal(piece[:n], np.arange(n)) and np.all(np.diff(piece[n:]) >= 0)
        g = w[0, :n] / _NEAR_W[0]
        assert np.allclose(r[:, :n], _NEAR_V[:, None] * g, rtol=1e-15, atol=0.0)
        assert np.all(g <= room * (1 + 1e-15))
        assert np.all(np.isclose(g, b - a, rtol=1e-15, atol=0.0) | (2 * g > room))
        span = np.sum(w[:, n:], axis=0)
        lo = r[0, n:] - _NEAR_V[0] * span
        assert np.allclose(span, (math.sqrt(2.0) - 1.0) * lo, rtol=1e-14, atol=0.0)
        assert np.allclose(r[:, n:], lo + _NEAR_V[:, None] * span, rtol=1e-15, atol=0.0)
        assert c.shape == (8, np.count_nonzero(delta == 0)) and np.all(c != 0.0)
        # the columns tile each piece
        assert np.allclose(np.bincount(piece, np.sum(w, axis=0), n), b - a, rtol=1e-14, atol=0.0)

    def test_solve_builds_no_interpolant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the SCF loop built a CubicHermiteSpline")

        monkeypatch.setattr(bdfvac.dispersion, "CubicHermiteSpline", refuse)
        d = solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))
        assert d.report.converged


class TestBracketSeries:
    # the series by Horner's rule must be the oracle's 26-term sum to the bit
    def test_horner_sum_is_the_26_term_sum_on_a_log_sweep(self):
        t = np.geomspace(1e-12, 0.5, 200_001)
        assert np.array_equal(_k1_bracket_series(t), bracket_series_26(t))

    def test_point_major_blocks_keep_their_shape(self):
        t = np.geomspace(1e-9, 0.5, 96).reshape(8, 12)
        out = _k1_bracket_series(t)
        assert out.shape == t.shape and np.array_equal(out, bracket_series_26(t))


def _deep_grid():
    """512 cells with geometric bounds from 1e-3 to 1e13: the nodes span
    16 decades, more than a fixed 52 halvings of the cutoff reach."""
    return geometric_bounds_grid(1e-3, 1e13)


@pytest.fixture(scope="module", params=[0.01, STRONG_ALPHA], ids=lambda a: f"alpha{a:g}")
def quad_rows(request):
    """The solved g0/Et and g1/Et at n = 512, cutoff 1e4, their K0 and K1
    rows from KernelRules, and the same rows by kernel_row_by_quad."""
    grid = make_grid(CUTOFF, 512, "geometric")
    d = solve_dispersion(ModelParams(request.param, CUTOFF), grid)
    f = (d.g0 / d.e_tilde_samples, d.g1 / d.e_tilde_samples)
    rows = (0, 1, 2, 50, 256, 400, 510, 511)
    fast = KernelRules(grid).integrals(*f)[:, rows]
    oracle = [[kernel_row_by_quad(grid, f[k], i, k) for i in rows] for k in (0, 1)]
    return fast, np.array(oracle)


class TestSingularRuleAccuracy:
    def test_k0_row_of_one_matches_the_closed_form(self):
        # int_0^L s ln((p+s)/|p-s|) ds = (L^2 - p^2) atanh(p/L) + p L
        grid = make_grid(CUTOFF, 512, "geometric")
        p = grid.nodes
        rows = KernelRules(grid).integrals(np.ones_like(p), np.ones_like(p))[0]
        exact = (CUTOFF**2 - p * p) * np.arctanh(p / CUTOFF) + p * CUTOFF
        assert np.max(np.abs(rows - exact) / exact) <= 1e-13

    def test_k0_row_on_a_deep_grid_matches_adaptive_quadrature(self):
        grid = _deep_grid()
        x = grid.nodes
        f = 1.0 / np.hypot(1.0, x)
        rows = KernelRules(grid).integrals(f, f)[0]
        for i in (0, 1, 10, 50, 100):
            exact = kernel_row_by_quad(grid, f, i, 0)
            assert abs(rows[i] - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("kernel", [0, 1], ids=["K0", "K1"])
    def test_rows_are_the_exact_integral_of_the_interpolant(self, quad_rows, kernel):
        # rows 0, 1, 2, 50, 256, 400, 510 and 511 against adaptive quad on
        # every cubic piece; the dyadic rule this replaced was off by up to
        # 1.5e-7, as its outer panels crossed the PCHIP's knots
        fast, oracle = quad_rows
        assert np.max(np.abs(fast[kernel] - oracle[kernel]) / oracle[kernel]) <= 1e-12


def _template(grid):
    """KernelRules' template: the unit row's moments on the ladder's
    intervals [q**m, q**(m+1)], m in [2-n, n-3], in one _moments call."""
    x = grid.nodes
    ladder = np.concatenate([x[1] / x[:1:-1], x[1:] / x[1]])
    lo, hi = ladder[:-1], ladder[1:]
    return _moments(1.0, lo, hi, lo, hi - lo, _graded_depth(1.0, lo, hi))


def _dense_integrals(rules, f0, f1):
    """KernelRules.integrals summed term by term: the template of each row
    times p**2, plus the pieces off the ladder, plus row 0 directly."""
    x = rules.grid.nodes
    n = x.size
    coef = np.stack([rules.coefficients(f, _pchip_slopes(x, f)) for f in (f0, f1)])
    template = _template(rules.grid)
    out = np.empty((2, n))
    k = np.arange(1, n - 1)
    for i in range(1, n):
        toeplitz = np.einsum("kcj,kcj->k", template[..., k - i + n - 2], coef[..., 1:])
        origin = np.einsum("kc,kc->k", rules.origin[..., i - 1], coef[..., 0])
        tail = np.einsum("kc,kc->k", rules.tail[..., i - 1], coef[..., -1])
        out[:, i] = x[i] ** 2 * toeplitz + origin + tail
    out[:, 0] = np.einsum("kcj,kcj->k", rules.row0, coef)
    return out


def _apply_grids():
    grids = {
        f"n{n}-cutoff{cutoff:g}": (make_grid(cutoff, n, "geometric"), STRONG_ALPHA)
        for n in (64, 512, 2048)
        for cutoff in (12.18, 1e4, 1.7e7)
    }
    grids["deep"] = (_deep_grid(), STRONG_ALPHA)
    # 47 decades, the span alpha = 5e-4 at L = 0.05 needs (cutoff 2.7e43);
    # alpha = 1.2 has no fixed point there
    grids["47-decades"] = (geometric_bounds_grid(1e-4, 2.7e43), 5e-4)
    return grids


APPLY_GRIDS = _apply_grids()


class TestFastApply:
    """KernelRules.integrals applies the template as an FFT correlation;
    it must agree with the same template summed term by term, and the
    template rows with every piece of the row integrated directly."""

    @pytest.fixture(scope="class", params=list(APPLY_GRIDS), ids=str)
    def case(self, request):
        grid, alpha = APPLY_GRIDS[request.param]
        params = ModelParams(alpha, grid.cutoff)
        profiles = []
        for d in (free_dispersion(params, grid), solve_dispersion(params, grid)):
            et = d.e_tilde_samples
            profiles.append((d.g0 / et, d.g1 / et))
        return KernelRules(grid), profiles

    @pytest.mark.parametrize("profile", [0, 1], ids=["free", "solved"])
    def test_fft_matches_the_dense_sum(self, case, profile):
        rules, profiles = case
        fast = rules.integrals(*profiles[profile])
        dense = _dense_integrals(rules, *profiles[profile])
        assert np.max(np.abs(fast - dense) / np.abs(dense)) <= 1e-13

    @pytest.mark.parametrize("profile", [0, 1], ids=["free", "solved"])
    def test_template_rows_match_rows_integrated_directly(self, case, profile):
        rules, profiles = case
        n = rules.grid.n_points
        spread = np.linspace(4, n - 4, 12).astype(int)
        rows = np.unique(np.concatenate([np.arange(4), spread, n - np.arange(1, 4)]))
        fast = rules.integrals(*profiles[profile])[:, rows]
        direct = _reference_integrals(rules.grid, *profiles[profile], rows)
        assert np.max(np.abs(fast - direct) / np.abs(direct)) <= 1e-13


class TestGeometricLadder:
    def test_uniform_grid_is_refused(self):
        with pytest.raises(InvalidParameterError, match="geometric progression"):
            KernelRules(make_grid(CUTOFF, 64, "uniform"))

    def test_one_moved_node_is_refused(self):
        grid = make_grid(CUTOFF, 64, "geometric")
        nodes = grid.nodes.copy()
        nodes[30] *= 1.0 + 1e-6
        with pytest.raises(InvalidParameterError, match="geometric progression"):
            KernelRules(RadialGrid(nodes, CUTOFF))

    def test_cutoff_past_float64_is_refused(self):
        # the weights s*w of the pieces near the cutoff pass 1.8e308
        # between cutoff 1e150 and 1e153 at 128 nodes
        rules = KernelRules(make_grid(1e150, 128, "geometric"))
        assert all(np.all(np.isfinite(v)) for v in (rules._spectrum, rules.tail, rules.row0))
        with pytest.raises(InvalidParameterError, match="cutoff 1e\\+153"):
            KernelRules(make_grid(1e153, 128, "geometric"))

    def test_last_node_on_the_cutoff_is_refused(self):
        # the piece [x_{n-1}, cutoff] would be empty, its product rule 0 * inf
        grid = make_grid(CUTOFF, 64, "geometric")
        nodes = grid.nodes * (CUTOFF / grid.nodes[-1])
        with pytest.raises(InvalidParameterError, match="below the cutoff"):
            KernelRules(RadialGrid(nodes, CUTOFF))

    @pytest.mark.parametrize("fraction", [1e-3, 0.3, 0.999])
    def test_any_first_node_below_the_second(self, fraction):
        grid = make_grid(CUTOFF, 64, "geometric")
        nodes = grid.nodes.copy()
        nodes[0] = fraction * nodes[1]
        p = nodes
        rules = KernelRules(RadialGrid(nodes, CUTOFF))
        rows = rules.integrals(np.ones_like(p), np.ones_like(p))[0]
        exact = (CUTOFF**2 - p * p) * np.arctanh(p / CUTOFF) + p * CUTOFF
        assert np.max(np.abs(rows - exact) / exact) <= 1e-13


class TestBlockedBuild:
    """KernelRules integrates its pieces in blocks of about
    COLUMNS_PER_BLOCK Gauss columns, and each piece's sums are formed
    within its block, so no rule array depends on the block size: not
    even with one piece a block, where a one-column piece makes a
    one-column block."""

    @pytest.mark.parametrize("n, cutoff", [(128, 1e4), (512, 1.7e7)])
    def test_rules_do_not_depend_on_the_block(self, n, cutoff, monkeypatch):
        grid = make_grid(cutoff, n, "geometric")
        real = bdfvac.dispersion._moments
        blocks = []

        def recording(*args):
            blocks.append(real(*args))
            return blocks[-1]

        monkeypatch.setattr(bdfvac.dispersion, "_moments", recording)
        one_block = 10**9
        rules, moments = {}, {}
        for block in (1, 7, one_block, bdfvac.dispersion.COLUMNS_PER_BLOCK):
            monkeypatch.setattr(bdfvac.dispersion, "COLUMNS_PER_BLOCK", block)
            blocks.clear()
            rules[block] = KernelRules(grid)
            moments[block] = np.concatenate(blocks, axis=2)
        # every piece's moments, the template's among them
        for block, other in moments.items():
            assert np.array_equal(other, moments[one_block]), block
        for name in ("origin", "tail", "row0", "_spectrum", "_weight_out"):
            one = getattr(rules[one_block], name)
            for block, other in rules.items():
                assert np.array_equal(getattr(other, name), one), (name, block)


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
        # three profiles stacked, each row scipy's to the bit: the slopes
        # at the left ends of the intervals, and the last one as minus the
        # first of the mirrored data, whose widths and secants are the same
        # numbers up to exact negations
        rows = np.stack([y, -2.0 * y, y[::-1]])
        dk = _pchip_slopes(x, rows)
        for row, slopes in zip(rows, dk):
            assert np.array_equal(slopes, _pchip_slopes(x, row))
            assert np.array_equal(slopes[:-1], PchipInterpolator(x, row).c[2])
            assert slopes[-1] == -PchipInterpolator(-x[::-1], row[::-1]).c[2][0]

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
    def test_refuses_a_harmonic_mean_past_float64(self, stacked):
        # the SCF's g0/Et ~ 1/p on nodes up to 1e110: w/m ~ p^3 overflows,
        # and the slope would read 0 where it is about -1/p^2
        x = make_grid(1e110, 128, "geometric").nodes
        y = 1.0 / np.hypot(1.0, x)
        with pytest.raises(InvalidParameterError, match="overflow float64"):
            _pchip_slopes(x, np.stack([x, y]) if stacked else y)


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


class TestLargeL:
    # L = alpha ln(cutoff) from 41 to 292: undamped, the most any of these
    # takes is 50 iterations; halving a mixing weight on each residual
    # rise stalled 11 of them short of the 200-iteration cap
    @pytest.mark.parametrize("alpha", [0.9, 1.0, 1.1, 1.2, 1.27])
    def test_converges_within_60_iterations(self, alpha):
        for cutoff in (1e20, 1e40, 1e60, 1e100):
            grid = make_grid(cutoff, 512, "geometric")
            d = solve_dispersion(ModelParams(alpha, cutoff), grid)
            assert d.report.iterations <= 60, cutoff
            p = grid.nodes
            assert np.all(d.g0 >= 1.0 - 1e-12)
            assert np.all(d.g1 >= p * (1.0 - 1e-12))
            assert np.all(d.g1 <= p * d.g0 * (1.0 + 1e-12))


@pytest.fixture
def builds(monkeypatch):
    """The grids of the KernelRules that solve_dispersion builds, counted
    through the module global, as the benchmark's tracer counts them."""
    real = bdfvac.dispersion.KernelRules
    grids = []

    def counting(grid):
        grids.append(grid)
        return real(grid)

    monkeypatch.setattr(bdfvac.dispersion, "KernelRules", counting)
    return grids


@pytest.fixture
def no_gc():
    """Cyclic garbage collection off, so that a rule the store drops was
    freed by reference counting alone."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _nudged(grid, node=None):
    """grid with one node, or else the cutoff, one ulp up."""
    if node is None:
        return RadialGrid(grid.nodes, np.nextafter(grid.cutoff, np.inf))
    nodes = grid.nodes.copy()
    nodes[node] = np.nextafter(nodes[node], np.inf)
    return RadialGrid(nodes, grid.cutoff)


class TestSharedRules:
    """solve_dispersion shares one KernelRules between solves on equal
    grids, kept alive only by the Dispersions solved with it."""

    def test_equal_grids_build_once(self, builds):
        store = bdfvac.dispersion._SHARED_RULES
        alphas = (0.01, 1.2)
        grids = [make_grid(CUTOFF, 128, "geometric") for _ in alphas]
        shared = [solve_dispersion(ModelParams(a, CUTOFF), g) for a, g in zip(alphas, grids)]
        assert len(builds) == 1
        assert shared[1].rules is shared[0].rules and shared[1].grid is shared[0].grid
        assert np.array_equal(shared[1].grid.nodes, grids[1].nodes)
        assert shared[1].grid.cutoff == grids[1].cutoff
        # each is a solve with a fresh build, to the bit
        for alpha, grid, d in zip(alphas, grids, shared):
            store.clear()
            fresh = solve_dispersion(ModelParams(alpha, CUTOFF), grid)
            assert fresh.rules is not d.rules
            assert np.array_equal(fresh.g0, d.g0) and np.array_equal(fresh.g1, d.g1)
            assert fresh.report == d.report
        assert len(builds) == 3

    @pytest.mark.parametrize("node", [None, 0, 64, 127], ids=lambda i: "cutoff" if i is None else f"node{i}")
    def test_grids_an_ulp_apart_do_not_share(self, builds, node):
        grid = make_grid(CUTOFF, 128, "geometric")
        other = _nudged(grid, node)
        a = solve_dispersion(ModelParams(ALPHA, grid.cutoff), grid)
        b = solve_dispersion(ModelParams(ALPHA, other.cutoff), other)
        assert builds == [grid, other]
        assert a.rules is not b.rules
        assert np.array_equal(b.grid.nodes, other.nodes) and b.grid.cutoff == other.cutoff

    def test_the_store_empties_with_the_last_result(self, no_gc):
        store = bdfvac.dispersion._SHARED_RULES
        grid = make_grid(CUTOFF, 128, "geometric")
        d = solve_dispersion(ModelParams(ALPHA, CUTOFF), grid)
        table = polarization_table(d, [1e-4, 1.0])
        d.interpolant
        again = solve_dispersion(ModelParams(0.3, CUTOFF), grid)
        assert len(store) == 1
        del d, table
        assert len(store) == 1
        del again
        assert len(store) == 0

    def test_a_failed_solve_keeps_no_rule(self, monkeypatch, builds, no_gc):
        monkeypatch.setattr(bdfvac.dispersion, "DEFAULT_MAX_ITER", 1)
        grid = make_grid(CUTOFF, 128, "geometric")
        for _ in range(2):
            try:
                solve_dispersion(ModelParams(ALPHA, CUTOFF), grid)
            except FixedPointError:
                pass
            else:
                pytest.fail("one iteration converged")
            assert len(bdfvac.dispersion._SHARED_RULES) == 0
        assert len(builds) == 2


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
        assert math.isclose(m_alpha(solved), 1.0316963017509622, rel_tol=1e-8)

    def test_g0_derivative_bounds(self, solved):
        d1 = np.gradient(solved.g0, solved.grid.nodes)
        d2 = np.gradient(d1, solved.grid.nodes)
        assert np.max(np.abs(d1)) / ALPHA <= 0.5
        assert np.max(np.abs(d2)) / ALPHA <= 0.5

    def test_grid_doubling_stability(self, solved):
        d2 = solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 1024, "geometric"))
        assert abs(m_alpha(d2) - m_alpha(solved)) < 1e-6

    def test_origin_converged(self, solved):
        # m and g1'(0) extrapolate to 0 from the first node; moving the
        # grid's origin a decade below make_grid's leaves both within 1e-8
        d = solve_dispersion(ModelParams(ALPHA, CUTOFF), geometric_bounds_grid(1e-5, CUTOFF))
        assert abs(m_alpha(d) - m_alpha(solved)) <= 1e-8
        assert abs(g1_prime_zero(d) - g1_prime_zero(solved)) <= 1e-8

    def test_mass_shift_nearly_linear_in_alpha(self, solved):
        grid = make_grid(CUTOFF, 512, "geometric")
        d2 = solve_dispersion(ModelParams(2.0 * ALPHA, CUTOFF), grid)
        shift1 = m_alpha(solved) - 1.0
        shift2 = m_alpha(d2) - 1.0
        assert abs(shift2 / (2.0 * shift1) - 1.0) < 0.02

    def test_zero_coupling_returns_free(self):
        d = solve_dispersion(ModelParams(0.0, 100.0), make_grid(100.0, 64, "geometric"))
        assert np.all(d.g0 == 1.0)
        assert np.array_equal(d.g1, d.grid.nodes)


class TestOneInterpolant:
    """Dispersion.interpolant, the ProfileSpline on the slopes of
    _pchip_slopes, equals scipy's PCHIP of (g0, g1) to the bit, profile
    first: its values and first derivatives, also against a fresh PCHIP per
    profile as the reference interp builds, and its intervals."""

    @pytest.mark.parametrize(
        "alpha, cutoff, n", [(0.01, 1e4, 512), (1.2, 1e4, 128), (0.003, 1.7e7, 512)]
    )
    def test_matches_per_profile_pchip(self, alpha, cutoff, n):
        d = solve_dispersion(ModelParams(alpha, cutoff), make_grid(cutoff, n, "geometric"))
        assert m_alpha(d) == interp(d.grid, d.g0, 0.0)
        p = np.array([0.0, 1e-3, 1.0, 0.5 * cutoff])
        assert np.array_equal(np.hypot(*d.interpolant(p)), e_tilde(d, p))
        x = d.grid.nodes
        pchip = PchipInterpolator(x, np.column_stack([d.g0, d.g1]))
        rng = np.random.default_rng(3)
        log_uniform = np.exp(rng.uniform(math.log(1e-6), math.log(2.0 * cutoff), 200_000))
        nodes_and_midpoints = np.concatenate([[0.0], x, 0.5 * (x[1:] + x[:-1]), [cutoff]])
        for at in (log_uniform, nodes_and_midpoints):
            for nu, read in enumerate([d.interpolant, d.interpolant.derivative]):
                values = read(at)
                assert values.shape == (2,) + at.shape
                assert values[0].flags.c_contiguous and values[1].flags.c_contiguous
                assert np.array_equal(values, np.moveaxis(pchip(at, nu), -1, 0))
            i = np.clip(np.searchsorted(x, at, "right") - 1, 0, x.size - 2)
            assert np.array_equal(d.interpolant.interval(at), i)

    def test_shapes_nan_and_infinity(self, solved):
        spline = solved.interpolant
        pchip = PchipInterpolator(solved.grid.nodes, np.column_stack([solved.g0, solved.g1]))
        assert spline(1.0).shape == (2,)
        p = np.array([[-1.0, math.nan], [math.inf, 2.0 * CUTOFF]])
        for nu, read in enumerate([spline, spline.derivative]):
            values = read(p)
            assert values.shape == (2, 2, 2)
            assert np.all(np.isnan(values[:, 0, 1]))
            assert np.array_equal(values, np.moveaxis(pchip(p, nu), -1, 0), equal_nan=True)

    def test_grid_off_the_ladder_is_refused(self, solved):
        nodes = solved.grid.nodes.copy()
        nodes[30] *= 1.0 + 1e-6
        moved = replace(solved, grid=RadialGrid(nodes, CUTOFF))
        with pytest.raises(InvalidParameterError, match="geometric progression"):
            moved.interpolant


class TestAsymptoticsReport:
    def test_entries_and_lookup(self, solved):
        rep = check_asymptotics(solved)
        assert rep["m_alpha"].measured == m_alpha(solved)
        assert rep["m_alpha"].rel_deviation < 0.3
        assert rep["g1_prime_zero"].rel_deviation < 0.3
        with pytest.raises(KeyError):
            rep["nope"]

    def test_serializes(self, solved, tmp_path):
        names = ["m_alpha", "g1_prime_zero", "sup_g0_prime_over_alpha"]
        assert list(check_asymptotics(solved)) == names
        fast = ["--override", "model.cutoff=100", "--override", "dispersion.n_nodes=128"]
        assert main(["dispersion", "--out", str(tmp_path), *fast]) == EXIT_OK
        written = json.loads((tmp_path / "asymptotics.json").read_text())
        assert written["alpha"] == ALPHA
        assert [e["name"] for e in written["entries"]] == names

    def test_zero_coupling_is_refused(self):
        d = solve_dispersion(ModelParams(0.0, CUTOFF), make_grid(CUTOFF, 512, "geometric"))
        with pytest.raises(InvalidParameterError, match="alpha > 0"):
            check_asymptotics(d)

    @pytest.mark.parametrize("cutoff", [1.5, 2.0, 10.0, 1e4, 1e8])
    def test_first_order_laws_hold_at_every_cutoff(self, cutoff):
        # one step from the free profiles is the first order in alpha:
        # m - 1 = (alpha/pi) asinh(cutoff) and g1'(0) - 1 = (2 alpha/(3 pi))
        # asinh(cutoff), the laws of check_asymptotics; they miss by at most
        # 3.4e-7 on 512 nodes
        alpha = 1e-6
        grid = make_grid(cutoff, 512, "geometric")
        d = scf_step(free_dispersion(ModelParams(alpha, cutoff), grid), KernelRules(grid))
        first = alpha * math.asinh(cutoff) / math.pi
        assert abs((m_alpha(d) - 1.0) / first - 1.0) <= 1e-6
        assert abs((g1_prime_zero(d) - 1.0) / (2.0 * first / 3.0) - 1.0) <= 1e-6


class TestPaperLimit:
    # The alpha -> 0 value at fixed L, from a quadratic in alpha through
    # three couplings, each half the last: (v0 - 6 v1 + 8 v2)/3.  Its
    # relative distances from the laws, on 2048 nodes, are 8.2e-9 (m),
    # 3.4e-11 (g1'(0)), 2.8e-10 (alpha B(0)) and 4.6e-9 (binding over
    # alpha^2 |E_CP|) at L = 0.05, and 1.7e-7, 1.5e-9, 1.2e-8 and 1.66e-7
    # at L = 0.5; each budget is about 2.5 times that.  The largest cutoff,
    # exp(0.5/4e-3) = 1.9e54, is below the radial B(0)'s overflow.
    @pytest.fixture(scope="class")
    def pekar_state(self):
        return solve_pekar(make_grid(DEFAULT_R_MAX, 1024, "uniform"))

    @pytest.mark.parametrize(
        "L, alphas, budgets",
        [
            (
                0.05,
                (2e-3, 1e-3, 5e-4),
                {"m": 2e-8, "g1_prime_zero": 1e-10, "alpha_b0": 1e-9, "binding_per_E": 1.2e-8},
            ),
            (
                0.5,
                (1.6e-2, 8e-3, 4e-3),
                {"m": 4e-7, "g1_prime_zero": 4e-9, "alpha_b0": 3e-8, "binding_per_E": 4e-7},
            ),
        ],
    )
    def test_extrapolation_meets_the_laws(self, pekar_state, L, alphas, budgets):
        values = []
        for alpha in alphas:
            params = ModelParams.from_L(alpha, L)
            d = solve_dispersion(params, make_grid(params.cutoff, 2048, "geometric"))
            table = polarization_table(d, k_nodes=())
            br = assemble_breakdown(d, table, pekar_state)
            # the binding -E_CP/C0^2 over alpha^2 |E_CP|
            binding_per_E = -br.E_CP / (alpha**2 * br.C0_sq * abs(br.E_CP))
            values.append((br.m, br.g1_slope, alpha * table.B0_at_zero, binding_per_E))
        v0, v1, v2 = np.array(values)
        names = ("m", "g1_prime_zero", "alpha_b0", "binding_per_E")
        limit = dict(zip(names, (v0 - 6.0 * v1 + 8.0 * v2) / 3.0))
        laws = limit_laws(L)
        assert set(laws) == set(names)
        for name, law in laws.items():
            assert abs(limit[name] / law - 1.0) <= budgets[name], (name, limit[name], law)


class TestCsv:
    def test_deterministic_output(self, solved, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dispersion_to_csv(solved, a)
        dispersion_to_csv(solved, b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "p,g0,g1,e_tilde"
