"""Radial grids, quadrature and a damped fixed-point driver.

Everything here works in natural units (hbar = c = 1, bare mass 1).  Grids
cover (0, cutoff]; the origin is never a node because the singular kernels
used downstream are only defined for p > 0.  Values at 0 are obtained by
monotone-cubic extrapolation from the smallest nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class ShapeMismatchError(ValueError):
    """Sampled values do not match the grid they claim to live on."""


class OutOfRangeError(ValueError):
    """A query point lies outside the grid."""


class FixedPointError(RuntimeError):
    """Fixed-point iteration stopped without reaching the tolerance."""

    def __init__(self, message, report, state=None):
        super().__init__(message)
        self.report = report
        self.state = state


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature rule for integrals over (0, cutoff].

    nodes are the cell midpoints of a partition of [0, cutoff]; weights are
    the cell widths, so the rule is exact for constants and linears on any
    partition and sums to the cutoff exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ShapeMismatchError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidParameterError("grid nodes must be strictly increasing")
        if self.nodes[0] <= 0 or self.nodes[-1] > self.cutoff:
            raise InvalidParameterError("grid nodes must lie in (0, cutoff]")
        if np.any(self.weights <= 0):
            raise InvalidParameterError("quadrature weights must be positive")

    @property
    def n_points(self) -> int:
        return self.nodes.size


def make_grid(cutoff: float, n_points: int, clustering: str = "uniform") -> RadialGrid:
    """Build a midpoint rule on (0, cutoff].

    clustering="geometric" packs nodes near the origin (boundaries in
    geometric progression from cutoff*1e-6 up to cutoff), which is what the
    small-p extraction of dispersion derivatives needs.
    """
    if cutoff <= 0:
        raise InvalidParameterError(f"cutoff must be positive, got {cutoff}")
    if n_points < 8:
        raise InvalidParameterError(f"need at least 8 nodes, got {n_points}")
    if clustering == "uniform":
        bounds = np.linspace(0.0, cutoff, n_points + 1)
    elif clustering == "geometric":
        r0 = cutoff * 1e-6
        bounds = np.concatenate(
            [[0.0], r0 * (cutoff / r0) ** (np.arange(n_points) / (n_points - 1))]
        )
    else:
        raise InvalidParameterError(f"unknown clustering {clustering!r}")
    nodes = 0.5 * (bounds[1:] + bounds[:-1])
    weights = np.diff(bounds)
    return RadialGrid(nodes=nodes, weights=weights, cutoff=float(cutoff))


def integrate(grid: RadialGrid, samples: np.ndarray) -> float:
    """Apply the grid rule to samples taken at the grid nodes."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ShapeMismatchError(
            f"got {samples.shape[0] if samples.ndim else 0} samples for {grid.n_points} nodes"
        )
    return float(np.dot(grid.weights, samples))


def interp(grid: RadialGrid, samples: np.ndarray, p) -> float | np.ndarray:
    """Monotone piecewise-cubic interpolation of node samples.

    p = 0 is allowed (extrapolation from the smallest nodes); p > cutoff is
    an error.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ShapeMismatchError("samples do not match grid")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > grid.cutoff):
        raise OutOfRangeError(f"query point outside [0, {grid.cutoff}]")
    out = PchipInterpolator(grid.nodes, samples, extrapolate=True)(p_arr)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


# 8-point Gauss-Legendre on [-1, 1], used per panel of the singular rules.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def dyadic_gauss_panels(a: float, b: float, singular_at: str, levels: int = 52):
    """Quadrature points/weights for [a, b] with an integrable singularity
    at one endpoint.

    Panels halve geometrically toward the singular end; an 8-point Gauss
    rule per panel resolves any log-type endpoint singularity to near
    machine precision.  The unresolved sliver next to the endpoint has
    width (b-a)*2**-levels and contributes O(eps*log(1/eps)).
    """
    d = b - a
    j = np.arange(levels)
    if singular_at == "b":
        lo = b - d * 0.5**j
        hi = b - d * 0.5 ** (j + 1)
    elif singular_at == "a":
        lo = a + d * 0.5 ** (j + 1)
        hi = a + d * 0.5**j
    else:
        raise InvalidParameterError("singular_at must be 'a' or 'b'")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return pts, wts


def _distance_panels(d, levels: int = 52):
    """Dyadic Gauss points/weights in the distance u from the singular
    endpoint, covering (d*2**-levels, d].

    d may be a scalar or an array of shape (..., 1); the points of each
    distance then lie along the last axis."""
    j = np.arange(levels)
    lo = d * 0.5 ** (j + 1)
    hi = d * 0.5**j
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    shape = (*lo.shape[:-1], -1)
    u = (mid[..., None] + half[..., None] * _GL_X).reshape(shape)
    w = (half[..., None] * _GL_W).reshape(shape)
    return u, w


def log_singular_points(cutoff: float, p: float):
    """Points and weights for integrating smooth(s)*ln((p+s)/|p-s|) over
    (0, cutoff), with the log factor folded into the weights.

    The rule is built in the distance u = |s - p|, so the log factor is
    evaluated without cancellation arbitrarily close to s = p.
    """
    u_l, w_l = _distance_panels(p)
    u_r, w_r = _distance_panels(cutoff - p)
    pts = np.concatenate([p - u_l, p + u_r])
    logf = np.concatenate([np.log((2.0 * p - u_l) / u_l), np.log((2.0 * p + u_r) / u_r)])
    wts = np.concatenate([w_l, w_r]) * logf
    return pts, wts


def integrate_with_log_singularity(
    grid: RadialGrid,
    p: float,
    smooth_part: np.ndarray,
    log_weight_fn=None,
) -> float:
    """Integrate smooth(s) * ln((p+s)/|p-s|) over (0, cutoff).

    smooth_part holds samples of the smooth factor at the grid nodes; it is
    interpolated onto a rule split at s = p with panels graded toward the
    singular point, so the integrable log endpoint costs no accuracy.
    """
    if not 0 < p < grid.cutoff:
        raise InvalidParameterError(f"singular point p={p} must lie inside (0, {grid.cutoff})")
    smooth_part = np.asarray(smooth_part, dtype=float)
    if smooth_part.shape != grid.nodes.shape:
        raise ShapeMismatchError("smooth_part does not match grid")
    if not np.any(smooth_part):
        return 0.0
    h = PchipInterpolator(grid.nodes, smooth_part, extrapolate=True)
    if log_weight_fn is None:
        pts, wts = log_singular_points(grid.cutoff, p)
        return float(np.dot(wts, h(pts)))
    pts_l, w_l = dyadic_gauss_panels(0.0, p, singular_at="b")
    pts_r, w_r = dyadic_gauss_panels(p, grid.cutoff, singular_at="a")
    pts = np.concatenate([pts_l, pts_r])
    wts = np.concatenate([w_l, w_r])
    return float(np.dot(wts * log_weight_fn(pts), h(pts)))


@dataclass
class FixedPointReport:
    converged: bool
    iterations: int
    residual_history: list = field(default_factory=list)
    final_residual: float = np.inf

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "final_residual": float(self.final_residual),
        }


def fixed_point_solve(
    map_fn,
    init,
    tol: float,
    max_iter: int = 200,
    damping: float = 1.0,
    norm=None,
):
    """Damped Picard iteration x <- (1-w) x + w map(x).

    The residual is norm(map(x) - x) (sup-norm by default).  Whenever the
    residual increases, the damping factor is halved, floored at 1/64; the
    iteration degrades gracefully outside the contraction regime.  Raises
    FixedPointError (carrying the report and last state) if max_iter is
    reached above tolerance.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if not 0 < damping <= 1:
        raise InvalidParameterError("damping must be in (0, 1]")
    if norm is None:
        norm = lambda d: float(np.max(np.abs(d)))
    x = np.asarray(init, dtype=float)
    omega = damping
    history = []
    prev = np.inf
    for it in range(1, max_iter + 1):
        fx = np.asarray(map_fn(x), dtype=float)
        res = norm(fx - x)
        history.append(res)
        if res > prev:
            omega = max(omega / 2.0, 1.0 / 64.0)
        prev = res
        x = (1.0 - omega) * x + omega * fx
        if res <= tol:
            report = FixedPointReport(True, it, history, res)
            return x, report
    report = FixedPointReport(False, max_iter, history, history[-1])
    raise FixedPointError(
        f"no convergence after {max_iter} iterations (residual {history[-1]:.3e} > {tol:.3e})",
        report,
        state=x,
    )
