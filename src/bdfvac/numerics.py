"""Radial grids, quadrature, a damped fixed-point driver and the artifact
writers.

Everything here works in natural units (hbar = c = 1, bare mass 1).  Grids
cover (0, cutoff]; the origin is never a node because the singular kernels
used downstream are only defined for p > 0.  Values at 0 are obtained by
monotone-cubic extrapolation from the smallest nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class ShapeMismatchError(ValueError):
    """Sampled values do not match the grid they claim to live on."""


class OutOfRangeError(ValueError):
    """A query point lies outside the grid."""


class FixedPointError(RuntimeError):
    """Fixed-point iteration stopped without reaching the tolerance."""

    def __init__(self, message, report, state):
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


def make_grid(cutoff: float, n_points: int, clustering: str) -> RadialGrid:
    """Build a midpoint rule on (0, cutoff].

    clustering="uniform" spaces the cells evenly.  clustering="geometric"
    packs nodes near the origin (boundaries in geometric progression from
    cutoff*1e-6 up to cutoff), which is what the small-p extraction of
    dispersion derivatives needs.
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


# 8-point Gauss-Legendre on [-1, 1], used per panel of the singular rules.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _distance_panels(d):
    """Dyadic Gauss points/weights in the distance u from the singular
    endpoint, covering (d*2**-52, d] in 52 halvings.

    d may be a scalar or an array of shape (..., 1); the points of each
    distance then lie along the last axis."""
    j = np.arange(52)
    lo = d * 0.5 ** (j + 1)
    hi = d * 0.5**j
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    shape = (*lo.shape[:-1], -1)
    u = (mid[..., None] + half[..., None] * _GL_X).reshape(shape)
    w = (half[..., None] * _GL_W).reshape(shape)
    return u, w


@dataclass
class FixedPointReport:
    converged: bool
    iterations: int
    residual_history: list = field(default_factory=list)
    final_residual: float = np.inf


def fixed_point_solve(
    map_fn,
    init,
    tol: float,
    max_iter: int,
    norm=None,
):
    """Damped Picard iteration x <- (1-w) x + w map(x), from w = 1.

    The residual is norm(map(x) - x) (sup-norm by default).  Whenever the
    residual increases, the damping factor w is halved, floored at 1/64;
    the iteration degrades gracefully outside the contraction regime.  Raises
    FixedPointError (carrying the report and last state) if max_iter is
    reached above tolerance.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be at least 1, got {max_iter}")
    if norm is None:
        norm = lambda d: float(np.max(np.abs(d)))
    x = np.asarray(init, dtype=float)
    omega = 1.0
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


def write_csv(path, header, columns) -> None:
    """One row per index of the equal-length columns, every value in 17
    significant digits, under a header line of the column names."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
