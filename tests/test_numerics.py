import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfvac.numerics import (
    FixedPointError,
    InvalidParameterError,
    OutOfRangeError,
    RadialGrid,
    ShapeMismatchError,
    fixed_point_solve,
    integrate,
    make_grid,
)
from oracles import integrate_with_log_singularity, interp, log_singular_points


class TestMakeGrid:
    def test_weights_sum_to_cutoff(self):
        for clustering in ("uniform", "geometric"):
            g = make_grid(7.5, 64, clustering)
            assert math.isclose(g.weights.sum(), 7.5, rel_tol=1e-14)

    def test_nodes_strictly_increasing_inside_domain(self):
        g = make_grid(10.0, 128, "geometric")
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0
        assert g.nodes[-1] <= g.cutoff

    def test_midpoint_rule_exact_for_linear(self):
        g = make_grid(3.0, 37, "geometric")
        # int_0^3 (2 + 5s) ds = 6 + 22.5
        val = integrate(g, 2.0 + 5.0 * g.nodes)
        assert math.isclose(val, 28.5, rel_tol=1e-13)

    def test_geometric_clusters_near_origin(self):
        g = make_grid(1e4, 512, "geometric")
        assert np.count_nonzero(g.nodes < 1e2) >= 4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_grid(-1.0, 64, "uniform")
        with pytest.raises(InvalidParameterError):
            make_grid(1.0, 4, "uniform")
        with pytest.raises(InvalidParameterError):
            make_grid(1.0, 64, "exotic")

    def test_grid_invariant_validation(self):
        with pytest.raises(InvalidParameterError):
            RadialGrid(nodes=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]), cutoff=3.0)
        with pytest.raises(InvalidParameterError):
            RadialGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]), cutoff=3.0)
        with pytest.raises(ShapeMismatchError):
            RadialGrid(nodes=np.array([1.0, 2.0]), weights=np.array([1.0]), cutoff=3.0)


class TestIntegrate:
    def test_shape_mismatch(self):
        g = make_grid(1.0, 16, "uniform")
        with pytest.raises(ShapeMismatchError):
            integrate(g, np.ones(8))

    def test_smooth_integral_converges(self):
        # int_0^1 exp(-s) ds = 1 - 1/e
        exact = 1.0 - math.exp(-1.0)
        g = make_grid(1.0, 2048, "uniform")
        assert math.isclose(integrate(g, np.exp(-g.nodes)), exact, rel_tol=1e-7)


class TestInterp:
    def test_reproduces_smooth_function(self):
        g = make_grid(2.0, 256, "geometric")
        samples = np.cos(g.nodes)
        q = np.array([0.1, 0.5, 1.7])
        assert np.allclose(interp(g, samples, q), np.cos(q), atol=1e-6)

    def test_extrapolates_to_zero(self):
        g = make_grid(2.0, 256, "geometric")
        val = interp(g, 1.0 + g.nodes**2, 0.0)
        assert math.isclose(val, 1.0, abs_tol=1e-8)

    def test_rejects_points_beyond_cutoff(self):
        g = make_grid(2.0, 64, "uniform")
        with pytest.raises(OutOfRangeError):
            interp(g, np.ones(64), 2.5)


class TestLogSingularQuadrature:
    def test_unit_smooth_oracle(self):
        # int_0^2 ln((1+s)/|1-s|) ds = 3 ln 3, by explicit antiderivative
        g = make_grid(2.0, 64, "uniform")
        val = integrate_with_log_singularity(g, 1.0, np.ones(64))
        assert math.isclose(val, 3.0 * math.log(3.0), rel_tol=1e-12)

    def test_polynomial_smooth_oracle(self):
        # independent oracle: adaptive quadrature with a declared breakpoint
        from scipy.integrate import quad

        oracle, _ = quad(
            lambda s: s * math.log((1.0 + s) / abs(1.0 - s)), 0.0, 2.0, points=[1.0]
        )
        g = make_grid(2.0, 512, "uniform")
        val = integrate_with_log_singularity(g, 1.0, g.nodes.copy())
        assert math.isclose(val, oracle, rel_tol=1e-9)

    def test_rule_weights_are_finite(self):
        pts, wts = log_singular_points(10.0, 3.0)
        assert np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))
        assert np.all(pts > 0) and np.all(pts < 10.0)

    def test_singular_point_must_be_interior(self):
        g = make_grid(2.0, 64, "uniform")
        with pytest.raises(InvalidParameterError):
            integrate_with_log_singularity(g, 2.5, np.ones(64))


class TestFixedPoint:
    def test_affine_contraction(self):
        x, report = fixed_point_solve(
            lambda x: 0.5 * x + 1.0, np.array([0.0]), tol=1e-12, max_iter=200
        )
        assert report.converged
        assert math.isclose(float(x[0]), 2.0, rel_tol=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(
        slope=st.floats(min_value=0.05, max_value=0.9),
        start=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_geometric_residual_decay(self, slope, start):
        target = 3.0
        _, report = fixed_point_solve(
            lambda x: slope * (x - target) + target, np.array([start]), tol=1e-9, max_iter=200
        )
        hist = report.residual_history
        # above the rounding floor the residual contracts by the map's slope
        for a, b in zip(hist, hist[1:]):
            if a > 1e-7:
                assert b <= a * slope * (1.0 + 1e-6)

    def test_nonconvergence_raises_with_report(self):
        with pytest.raises(FixedPointError) as exc:
            fixed_point_solve(lambda x: x + 1.0, np.array([0.0]), tol=1e-12, max_iter=10)
        assert exc.value.report.iterations == 10
        assert not exc.value.report.converged
        assert exc.value.state is not None

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            fixed_point_solve(lambda x: x, np.array([0.0]), tol=-1.0, max_iter=200)

    def test_residual_rise_never_raises_the_damping(self):
        # x -> 2x from 1 moves away, so every residual after the first
        # rises; a step of damping w multiplies x by 1 + w, exactly here
        inputs = []

        def doubling(x):
            inputs.append(float(x[0]))
            return 2.0 * x

        with pytest.raises(FixedPointError):
            fixed_point_solve(doubling, np.array([1.0]), tol=1e-12, max_iter=9)
        steps = [b / a - 1.0 for a, b in zip(inputs, inputs[1:])]
        assert steps == [1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 64], steps

    def test_max_iter_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            fixed_point_solve(lambda x: x, np.array([0.0]), tol=1e-6, max_iter=0)

    def test_report_serializes(self):
        _, report = fixed_point_solve(lambda x: 0.5 * x, np.array([1.0]), tol=1e-10, max_iter=200)
        d = asdict(report)
        assert d["converged"] is True
        assert isinstance(d["residual_history"], list)
