import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfvac.numerics import (
    MOMENTUM_ORIGIN,
    FixedPointError,
    InvalidParameterError,
    OutOfRangeError,
    RadialGrid,
    fixed_point_solve,
    make_grid,
    write_json,
)
from oracles import interp


def SUP(delta):
    """Sup-norm of a fixed-point residual."""
    return float(np.max(np.abs(delta)))


class TestMakeGrid:
    def test_nodes_strictly_increasing_inside_domain(self):
        g = make_grid(10.0, 128, "geometric")
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0
        assert g.nodes[-1] <= g.cutoff

    def test_geometric_clusters_near_origin(self):
        g = make_grid(1e4, 512, "geometric")
        assert np.count_nonzero(g.nodes < 1e2) >= 4

    def test_first_node_does_not_move_with_the_cutoff(self):
        for cutoff in (10.0, 1e4, 1e7, 1e40):
            g = make_grid(cutoff, 512, "geometric")
            assert g.nodes[0] == MOMENTUM_ORIGIN / 2
            # the last cell is [cutoff/q, cutoff], q the ladder's ratio
            q = g.nodes[-1] / g.nodes[-2]
            assert math.isclose(g.nodes[-1], 0.5 * cutoff * (1.0 + 1.0 / q), rel_tol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_grid(-1.0, 64, "uniform")
        with pytest.raises(InvalidParameterError):
            make_grid(1.0, 4, "uniform")
        with pytest.raises(InvalidParameterError):
            make_grid(1.0, 64, "exotic")

    def test_grid_invariant_validation(self):
        with pytest.raises(InvalidParameterError):
            RadialGrid(nodes=np.array([2.0, 1.0]), cutoff=3.0)
        with pytest.raises(InvalidParameterError):
            RadialGrid(nodes=np.array([0.0, 1.0]), cutoff=3.0)
        with pytest.raises(InvalidParameterError):
            RadialGrid(nodes=np.array([1.0, 4.0]), cutoff=3.0)

    def test_no_quadrature_weights(self):
        for clustering in ("uniform", "geometric"):
            assert not hasattr(make_grid(7.5, 64, clustering), "weights")


class TestUniformSpacing:
    def test_is_cutoff_over_n(self):
        assert make_grid(7.5, 64, "uniform").uniform_spacing == 7.5 / 64

    def test_evenly_spaced_off_the_lattice_refused(self):
        # spacing 0.99 with the first node at half of it, cutoff 8 over 8
        # nodes: the ghost closure at R needs h = cutoff/n
        with pytest.raises(InvalidParameterError, match=r"\(i \+ 1/2\)"):
            RadialGrid(np.arange(0.5, 8.0) * 0.99, 8.0).uniform_spacing


class TestInterp:
    def test_reproduces_smooth_function(self):
        g = make_grid(2.0, 512, "geometric")
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


class TestFixedPoint:
    def test_affine_contraction(self):
        x, report = fixed_point_solve(
            lambda x: 0.5 * x + 1.0, np.array([0.0]), tol=1e-12, max_iter=200, norm=SUP
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
            lambda x: slope * (x - target) + target,
            np.array([start]),
            tol=1e-9,
            max_iter=200,
            norm=SUP,
        )
        hist = report.residual_history
        # above the rounding floor the residual contracts by the map's slope
        for a, b in zip(hist, hist[1:]):
            if a > 1e-7:
                assert b <= a * slope * (1.0 + 1e-6)

    def test_nonconvergence_raises_with_report(self):
        with pytest.raises(FixedPointError) as exc:
            fixed_point_solve(
                lambda x: x + 1.0, np.array([0.0]), tol=1e-12, max_iter=10, norm=SUP
            )
        assert exc.value.report.iterations == 10
        assert not exc.value.report.converged
        assert exc.value.state is not None

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            fixed_point_solve(lambda x: x, np.array([0.0]), tol=-1.0, max_iter=200, norm=SUP)

    def test_residual_rise_takes_the_full_step(self):
        # x -> 2x from 1 moves away, so every residual after the first
        # rises; plain Picard still takes map(x), doubling every input
        inputs = []

        def doubling(x):
            inputs.append(float(x[0]))
            return 2.0 * x

        with pytest.raises(FixedPointError):
            fixed_point_solve(doubling, np.array([1.0]), tol=1e-12, max_iter=9, norm=SUP)
        steps = [b / a - 1.0 for a, b in zip(inputs, inputs[1:])]
        assert steps == [1.0] * 8, steps

    def test_max_iter_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            fixed_point_solve(lambda x: x, np.array([0.0]), tol=1e-6, max_iter=0, norm=SUP)

    def test_report_serializes(self):
        _, report = fixed_point_solve(
            lambda x: 0.5 * x, np.array([1.0]), tol=1e-10, max_iter=200, norm=SUP
        )
        d = asdict(report)
        assert d["converged"] is True
        assert isinstance(d["residual_history"], list)


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises_before_the_file_is_opened(self, value, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": [1.0, value]})
        assert not path.exists()
