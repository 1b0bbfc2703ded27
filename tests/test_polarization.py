import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import bdfvac.dispersion
import bdfvac.polarization
from bdfvac.dispersion import ModelParams, free_dispersion, solve_dispersion
from bdfvac.energy import regime_sweep
from bdfvac.numerics import InvalidParameterError, OutOfRangeError, make_grid
from bdfvac.pekar import solve_pekar
from bdfvac.polarization import (
    DEFAULT_K_MIN,
    K_SWITCH,
    PANEL_RATIO,
    PANELS_PER_BLOCK,
    PANELS_PER_PASS,
    _GL16_W,
    _GL16_X,
    _panel_edges,
    _wedge_integrand,
    b_lambda_k,
    b_lambda_zero_radial,
    b_screening,
    charge_renormalization,
    continuity_modulus,
    default_k_nodes,
    free_reference,
    kernel_difference_bound_check,
    polarization_table,
    table_to_csv,
    uehling,
)
from oracles import (
    b_lambda_k_raw,
    b_lambda_k_unfolded,
    free_b_drop,
    free_b_lambda_zero,
    geometric_bounds_grid,
    kernel_bound_per_sample,
    raw_integrand,
    screened_density,
)
from oracles import uehling as uehling_oracle

ALPHA = 0.01
CUTOFF = 1e4


def _reference_points(d, k, r, t):
    """|p| = r + t, s = 1 - cos(p, q) by the law of cosines, and the
    profiles at |p| and at |q| = r from scipy's PchipInterpolator, with
    (g0, g1) on a new first axis."""
    pn = r + t
    s = (k * k - t * t) / (2.0 * r * pn)
    g0i = PchipInterpolator(d.grid.nodes, d.g0, extrapolate=True)
    g1i = PchipInterpolator(d.grid.nodes, d.g1, extrapolate=True)
    gp = np.stack([g0i(pn), g1i(pn)])
    gq = np.stack([g0i(r), g1i(r)])
    return s, pn, gp, gq


def reference_wedge_integrand(d, k, r, t):
    """Wedge integrand f |p| with both sides read from the oracle
    interpolant, in the order of operations of polarization's."""
    s, pn, (g0p, g1p), (g0q, g1q) = _reference_points(d, k, r, t)
    minor = (g0p - g0q) * g1q - (g1p - g1q) * g0q
    both, same = g1p * g1q, g0p * g0q
    dot = (same + both) - both * s
    wedge = minor * minor + ((same + both) + dot) * (both * s)
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    return wedge / ((dot + etp * etq) * (etp * etq) * (etp + etq)) * pn


def reference_raw_integrand(d, k, r, t):
    """Raw integrand f |p| with both sides read from the oracle
    interpolant."""
    s, pn, gp, gq = _reference_points(d, k, r, t)
    return raw_integrand(s, gp, gq, None) * pn


def reference_panels(k, cut):
    """Radial panels in r = |q| over [max(0, k - cut), cut], split at k/2,
    |cut - k| and k/2 times each power of PANEL_RATIO below the cutoff."""
    r0 = max(0.0, k - cut)
    edges = [r0, abs(cut - k), cut]
    edge = 0.5 * k
    while edge < cut:
        edges.append(edge)
        edge *= PANEL_RATIO
    edges = sorted({e for e in edges if e >= r0})
    return list(zip(edges[:-1], edges[1:]))


def reference_radial_nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * _GL16_X, 0.5 * (b - a) * _GL16_W


def reference_t_rule(k, cut, r):
    """Gauss nodes in t = |p| - |q| at each radial node r, on a new last
    axis, from max(0, k - 2r) to min(k, cut - r), and each node's half
    width."""
    t_lo = np.maximum(0.0, k - 2.0 * r)
    t_hi = np.minimum(k, cut - r)
    mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    return mid[:, None] + half[:, None] * _GL16_X, half


def per_panel_b_lambda_k(d, k, integrand):
    """Reference B(k): one integrand call per radial panel on its 16 x 16
    Gauss rule in (r, t), B(k) = 4/(pi k^3) int r dr int |p| f dt, with
    the t sums dotted row by row and the panel sums added in panel
    order."""
    cut = d.grid.cutoff
    total = 0.0
    for a, b in reference_panels(k, cut):
        r, rw = reference_radial_nodes(a, b)
        t, half = reference_t_rule(k, cut, r)
        fp = integrand(d, k, r[:, None], t)
        total += float(np.dot(rw * r * half, [np.dot(row, _GL16_W) for row in fp]))
    return 4.0 * total / (math.pi * k * k * k)


@pytest.fixture(scope="module")
def dressed():
    return solve_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def free():
    return free_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 512, "geometric"))


@pytest.fixture(scope="module")
def dressed_large():
    cut = 1e6
    return solve_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))


@pytest.fixture(scope="module", params=[1e6, 1e7], ids=lambda c: f"cutoff{c:g}")
def dressed_deep(request):
    cut = request.param
    return solve_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))


@pytest.fixture(scope="module")
def unfolded():
    """b_lambda_k_unfolded(d, k), each (d, k) computed once per module."""
    values = {}

    def value(d, k):
        if (id(d), k) not in values:
            values[id(d), k] = b_lambda_k_unfolded(d, k)
        return values[id(d), k]

    return value


@pytest.fixture(scope="module")
def chunked_k(dressed):
    """The k >= K_SWITCH of a 64-node table grid, with B from the per-panel
    reference."""
    k = default_k_nodes(CUTOFF, 64, DEFAULT_K_MIN)
    k = k[k >= K_SWITCH]
    return k, [per_panel_b_lambda_k(dressed, kk, reference_wedge_integrand) for kk in k]


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


class TestFreeVacuumDrop:
    # The free B(0) - B(k) against Uehling's U(k) plus the edge term
    # (k/(8 pi cutoff)) F(k/cutoff), on 20 k a decade from 1e-4 (below
    # K_SWITCH) to 1e-2 cutoff.  The budget is k/(8 pi cutoff^3), the
    # O(cutoff^-2) part of F (at cutoff 1e2 the residual is 0.44 of it,
    # 1.8e-8 B(0) at k = 1), plus FLOOR times B(0).  Measured on 801 k a
    # cutoff, the floor is 2e-12 at cutoff 1e2, and 1.3e-9 at 1e4 and
    # 9.8e-10 at 1e6, both at k = 1e-2 cutoff; below k = 1e-3 it is under
    # 1e-14.
    FLOOR = 3e-9

    @pytest.mark.parametrize("cut", [1e2, 1e4, 1e6])
    def test_matches_uehling_and_the_edge_term(self, cut):
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 2048, "geometric"))
        B0 = b_lambda_zero_radial(d)
        k = np.geomspace(1e-4, 1e-2 * cut, 20 * round(math.log10(cut) + 2) + 1)
        residual = np.abs(B0 - b_lambda_k(d, k) - free_b_drop(cut, k))
        budget = self.FLOOR * B0 + k / (8.0 * math.pi * cut**3)
        assert np.all(residual <= budget), np.max(residual / budget)

    # ROADMAP item 9: the paper's limit alpha -> 0 at fixed L takes the
    # cutoff to e^(L/alpha).  A rule in (r, c = cos(q, k)) forms
    # 1 - cos(p, q) from minors whose rounding grows like eps r/k, and
    # misses by up to 6e-5, 2e15 and 2.5e58 B(0) at cutoffs 1e10, e^50 and
    # e^100; the (r, t) rule reads under 4e-14 B(0) up to 1e61,
    # the largest cutoff whose B(k) stays in float64's range.  The free
    # profiles are exact in any cubic, so 512 nodes do.
    @pytest.mark.parametrize(
        "cut", [1e10, math.exp(50), math.exp(100), 1e61], ids=["1e10", "e50", "e100", "1e61"]
    )
    def test_holds_at_the_cutoffs_of_the_paper_limit(self, cut):
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
        B0 = b_lambda_zero_radial(d)
        k = np.geomspace(1e-4, 1.0, 41)
        residual = np.abs(B0 - b_lambda_k(d, k) - free_b_drop(cut, k))
        budget = self.FLOOR * B0 + k / (8.0 * math.pi * cut**3)
        assert np.all(residual <= budget), np.max(residual / budget)


class TestFreeReference:
    # verify's polarization.free_reference: the free B(0) and B(0) - B(1)
    # on the run's grid against their closed forms
    def test_elementary_uehling_matches_the_oracle_and_the_integral(self):
        assert abs(uehling(1.0) / float(uehling_oracle(1.0)) - 1.0) <= 1e-15
        integral, _ = quad(lambda z: z * (1 - z) * math.log1p(z * (1 - z)), 0.0, 1.0)
        assert abs(uehling(1.0) / (2.0 / math.pi * integral) - 1.0) <= 1e-13

    @pytest.mark.parametrize("k", [1e-4, 1e-3, 0.049, 0.05, 0.1, 1.0, 10.0])
    def test_uehling_matches_the_oracle_on_both_branches(self, k):
        # the series below k = 0.05, the elementary form from there on
        assert abs(uehling(k) / float(uehling_oracle(k)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("cut", [10.0, 100.0, 1e4, 1e8])
    def test_within_budget_from_cutoff_10_to_1e8(self, cut):
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 128, "geometric"))
        miss, budget = free_reference(d)
        assert 0.0 < miss <= budget

    def test_budget_follows_the_cutoff_term(self):
        # at cutoff 10 the miss is almost all 0.106/cutoff^2 of B(0)
        d = free_dispersion(ModelParams(ALPHA, 10.0), make_grid(10.0, 128, "geometric"))
        miss, budget = free_reference(d)
        assert miss > 0.85 * budget

    def test_a_wrong_uehling_value_fails(self, monkeypatch):
        d = free_dispersion(ModelParams(ALPHA, CUTOFF), make_grid(CUTOFF, 128, "geometric"))
        monkeypatch.setattr(bdfvac.polarization, "uehling", lambda k: uehling(k) * (1 + 1e-6))
        miss, budget = free_reference(d)
        assert miss > budget


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


# 4.59 lies where an l-centred rule, |l| and cos(l, k), puts a Gauss panel
# across |l| = CUTOFF - k/2, the kink of its c limit: 8.6e-6 B(0) there
ORACLE_K = [K_SWITCH, 0.3, 1.0, 4.59, 100.0, CUTOFF, 1.6 * CUTOFF]


class TestUnfoldedOracle:
    @pytest.mark.parametrize("k", ORACLE_K)
    @pytest.mark.parametrize("kind", ["dressed", "free"])
    def test_b_k_matches_the_unfolded_graded_rule(self, request, unfolded, kind, k):
        d = request.getfixturevalue(kind)
        B0 = b_lambda_zero_radial(d)
        assert abs(b_lambda_k(d, k) - unfolded(d, k)) <= 1e-8 * B0

    @pytest.mark.parametrize("k", [K_SWITCH, 1e-2, 4.59])
    def test_b_k_matches_the_unfolded_graded_rule_at_large_cutoff(self, dressed_large, k):
        # small k reads 1.3e-9 B(0) (K_SWITCH) and 8.8e-10 (1e-2) from the
        # interpolant's C1 knots in r, which 32 radial points cut to 3e-10
        # and 5e-10
        B0 = b_lambda_zero_radial(dressed_large)
        assert abs(b_lambda_k(dressed_large, k) - b_lambda_k_unfolded(dressed_large, k)) <= 1e-7 * B0


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
    def test_half_rule_matches_the_full_rule(self, dressed, unfolded, k):
        # the half-space |p| >= |q| with weight 2 against the whole domain
        # in l-centred coordinates; fails if the fold's weight or its
        # plane c = -k/(2r) is wrong
        B0 = b_lambda_zero_radial(dressed)
        assert abs(b_lambda_k(dressed, k) - unfolded(dressed, k)) <= 1e-8 * B0

    def test_interpolant_reads_points_and_radial_nodes_once(self, dressed):
        args = []
        fresh = replace(dressed)
        interpolant = fresh.interpolant

        def recording(x):
            args.append(np.array(x))  # a copy: the points come in a reused buffer
            values = interpolant(x)
            assert values.shape == (2,) + np.shape(x)  # profile first
            return values

        fresh.__dict__["interpolant"] = recording  # shadows the cached property
        k, cut = 1.0, CUTOFF
        b_lambda_k(fresh, k)
        # the cutoff for the overflow guard, every radial node, every point
        assert len(args) == 3
        edge, radial, points = sorted(args, key=np.ndim)
        assert edge == cut
        r = np.array([reference_radial_nodes(a, b)[0] for a, b in reference_panels(k, cut)])
        assert np.array_equal(radial, r)
        t = np.array([reference_t_rule(k, cut, rr)[0] for rr in r])
        assert np.array_equal(points, r[..., None] + t)
        # the half-space |p| >= |q| inside the cutoff sphere
        assert np.all(points >= radial[..., None]) and np.all(points < cut)

    def test_table_makes_one_b_k_call_from_the_switch(self, dressed, monkeypatch):
        # bench/spans.py counts these calls as polarization.b_k_calls
        calls = []

        def counting(d, k):
            calls.append(np.array(k))
            return b_lambda_k(d, k)

        monkeypatch.setattr(bdfvac.polarization, "b_lambda_k", counting)
        k = default_k_nodes(CUTOFF, 16, DEFAULT_K_MIN)
        polarization_table(dressed, k)
        assert np.any(k < K_SWITCH)
        assert len(calls) == 1
        assert calls[0].tolist() == k[k >= K_SWITCH].tolist()

    @pytest.mark.parametrize(
        "per_pass, per_block",
        [(7, 7), (7, 45), (PANELS_PER_PASS, 100), (PANELS_PER_PASS, PANELS_PER_BLOCK)],
    )
    def test_batched_table_matches_the_scalar_rule_across_passes(
        self, dressed, chunked_k, per_pass, per_block, monkeypatch
    ):
        # blocks of one pass of 7, blocks of six passes of 7 and one of 3,
        # blocks of three passes of 32 and one of 4, and the default
        k, per_panel = chunked_k
        panels = sum(len(reference_panels(kk, CUTOFF)) for kk in k)
        assert panels > 2 * per_pass  # at least three array passes
        assert panels > per_block  # at least two blocks
        monkeypatch.setattr(bdfvac.polarization, "PANELS_PER_PASS", per_pass)
        monkeypatch.setattr(bdfvac.polarization, "PANELS_PER_BLOCK", per_block)
        B = b_lambda_k(dressed, k)
        assert B.tolist() == per_panel
        assert B.tolist() == [b_lambda_k(dressed, float(kk)) for kk in k]

    def test_panel_edges_are_the_per_k_loop(self):
        # one call for k of different panel counts, the support edge 2 cutoff
        # (no panel) and k = cutoff (the kinks 0 and |cutoff - k| meet)
        k = np.array([K_SWITCH, 1.0, CUTOFF, 2.0 * CUTOFF * (1.0 - 1e-9), 2.0 * CUTOFF])
        edges = _panel_edges(k, CUTOFF)
        for kk, row in zip(k, edges):
            panels = reference_panels(kk, CUTOFF)
            expected = [a for a, _ in panels] + [b for _, b in panels][-1:] or [CUTOFF]
            assert row[: len(expected)].tolist() == expected
            assert np.all(np.isinf(row[len(expected) :]))

    def test_b_k_refuses_any_k_outside_the_ball(self, dressed):
        for bad in (0.0, -1.0, 2.0 * CUTOFF * (1.0 + 1e-9), math.nan):
            with pytest.raises(OutOfRangeError):
                b_lambda_k(dressed, np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("per_block", [1, 3, PANELS_PER_BLOCK])
    def test_b_k_names_the_first_non_finite_value(self, dressed, per_block, monkeypatch):
        # one panel a pass, so every pass after the panels of k = 0.5 is
        # one of k = 2 or 3, in blocks of any size
        calls, first = [], len(reference_panels(0.5, CUTOFF))

        def nan_from_k_2(s, gp, gq, work):
            calls.append(1)
            f = _wedge_integrand(s, gp, gq, work)
            return f if len(calls) <= first else f * np.nan

        monkeypatch.setattr(bdfvac.polarization, "PANELS_PER_PASS", 1)
        monkeypatch.setattr(bdfvac.polarization, "PANELS_PER_BLOCK", per_block)
        monkeypatch.setattr(bdfvac.polarization, "_wedge_integrand", nan_from_k_2)
        with pytest.raises(InvalidParameterError, match=r"^B\(2\) = nan"):
            b_lambda_k(dressed, np.array([0.5, 2.0, 3.0]))

    @pytest.mark.parametrize("order", ["ascending", "reversed", "shuffled"])
    def test_table_workspace_carries_nothing_between_k(self, dressed, order):
        # the table keeps nothing from one k to the next: in every order,
        # each B is the one-shot b_lambda_k
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
        # the interpolant's cubics pass the float64 range near cutoff 1e103
        d = free_dispersion(ModelParams(ALPHA, 1e110), make_grid(1e110, 512, "geometric"))
        with pytest.raises(InvalidParameterError, match="overflows float64"):
            b_lambda_zero_radial(d)

    @pytest.mark.parametrize("cut", [1e62, 1e70, 1e76, 1e100])
    def test_b_k_raises_where_its_denominator_overflows(self, cut):
        # the wedge form's denominator reaches 4 Et(cutoff)^5, which passes
        # the float64 range near cutoff 1.3e61; there it would read 0 and
        # drop the outer panels.  B(0), in bounded ratios, still holds its
        # closed form: within 2.7e-14 at these cutoffs, where u^2/Et^3 read
        # 2.7e-3 to 9.5e-2 above it from 1e62 and overflowed from 1e77.
        d = free_dispersion(ModelParams(ALPHA, cut), make_grid(cut, 512, "geometric"))
        closed = 2.0 / (3.0 * math.pi) * (math.log(cut) + math.log(2.0)) - 5.0 / (9.0 * math.pi)
        assert abs(b_lambda_zero_radial(d) / closed - 1.0) <= 1e-13
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

    def test_modulus_bounded_at_large_cutoff(self, dressed_large):
        k = default_k_nodes(dressed_large.grid.cutoff, 128, DEFAULT_K_MIN)
        rep = continuity_modulus(polarization_table(dressed_large, k[k <= 0.1]))
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
        # at 1e6 the grid's origin is at 1.0, so the samples below the
        # first node read the interpolant extrapolated over p < 0.5, and
        # most of these seeds break the bound
        if cutoff == 1e6:
            grid = geometric_bounds_grid(1.0, cutoff)
        else:
            grid = make_grid(cutoff, 512, "geometric")
        d = solve_dispersion(ModelParams(ALPHA, cutoff), grid)
        reports = [kernel_difference_bound_check(d, seed) for seed in range(10)]
        for seed, rep in enumerate(reports):
            ref = kernel_bound_per_sample(d, seed)
            assert rep.n_samples == ref.n_samples and rep.violations == ref.violations
            assert abs(rep.max_excess - ref.max_excess) <= 1e-14 * abs(ref.max_excess)
        if cutoff == 1e6:
            # the comparison covers samples that break the bound
            assert any(rep.violations > 0 for rep in reports)


class TestLargeCutoff:
    """verify's polarization checks at cutoffs 1e6 and 1e7.  The kernel
    bound samples |p| down to 1/cutoff; the first node is at
    MOMENTUM_ORIGIN/2 at every cutoff, so the profiles below it are
    extrapolated over p < 5e-5 only."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_kernel_bound_holds(self, dressed_deep, seed):
        assert kernel_difference_bound_check(dressed_deep, seed).violations == 0

    def test_continuity_and_k0_consistency(self, dressed_deep):
        k = default_k_nodes(dressed_deep.grid.cutoff, 128, DEFAULT_K_MIN)
        table = polarization_table(dressed_deep, k[k <= 0.1])
        assert continuity_modulus(table).max_ratio <= 10.0
        assert abs(b_lambda_k(dressed_deep, K_SWITCH) / table.B0_at_zero - 1.0) <= 1e-6


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
