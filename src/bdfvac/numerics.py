"""Radial grids, graded Gauss panels, a damped fixed-point driver and the
artifact writers.

Everything here works in natural units (hbar = c = 1, bare mass 1).  Grids
cover (0, cutoff]; the origin is never a node because the singular kernels
used downstream are only defined for p > 0.  Values at 0 are obtained by
monotone-cubic extrapolation from the smallest nodes; the geometric grid's
first node is at MOMENTUM_ORIGIN/2 for every cutoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# first cell bound of the geometric grid at every cutoff, the first node at
# half of it: m and g1'(0) move by under 2e-9 when it is ten times smaller
MOMENTUM_ORIGIN = 1e-4


class InvalidParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


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
    """Nodes in (0, cutoff], the cell midpoints of a partition of
    [0, cutoff]."""

    nodes: np.ndarray
    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidParameterError("grid nodes must be strictly increasing")
        if self.nodes[0] <= 0 or self.nodes[-1] > self.cutoff:
            raise InvalidParameterError("grid nodes must lie in (0, cutoff]")

    @property
    def n_points(self) -> int:
        return self.nodes.size

    @cached_property
    def uniform_spacing(self) -> float:
        """The spacing h = cutoff/n of the lattice (i + 1/2) h that the
        direct-space solver assumes, checked once per grid;
        InvalidParameterError where a node is off it."""
        h = self.cutoff / self.n_points
        lattice = (np.arange(self.n_points) + 0.5) * h
        if not np.allclose(self.nodes, lattice, rtol=1e-12, atol=0.0):
            raise InvalidParameterError("the direct-space solver needs the nodes (i + 1/2) cutoff/n")
        return h


def make_grid(cutoff: float, n_points: int, clustering: str) -> RadialGrid:
    """The cell midpoints of a partition of [0, cutoff] into n_points cells.

    clustering="uniform" spaces the cells evenly.  clustering="geometric"
    puts the bounds after 0 in geometric progression from MOMENTUM_ORIGIN
    up to cutoff: the first node is at MOMENTUM_ORIGIN/2 whatever the
    cutoff, and nodes[1:] lie on the ladder dispersion.KernelRules needs.
    """
    if cutoff <= 0:
        raise InvalidParameterError(f"cutoff must be positive, got {cutoff}")
    if n_points < 8:
        raise InvalidParameterError(f"need at least 8 nodes, got {n_points}")
    if clustering == "uniform":
        bounds = np.linspace(0.0, cutoff, n_points + 1)
    elif clustering == "geometric":
        bounds = np.concatenate([[0.0], np.geomspace(MOMENTUM_ORIGIN, cutoff, n_points)])
    else:
        raise InvalidParameterError(f"unknown clustering {clustering!r}")
    return RadialGrid(nodes=0.5 * (bounds[1:] + bounds[:-1]), cutoff=float(cutoff))


# 8-point Gauss-Legendre on [-1, 1]; on [0, 1] it is the last panel of
# the graded rules.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)

# The same points on [0, 1], and the weights _LOG_W on them that integrate
# v**q * -ln(v) exactly for q <= 7 (the moment is 1/(q+1)**2).
_NEAR_V = 0.5 * (1.0 + _GL_X)
_NEAR_W = 0.5 * _GL_W


def _log_weights():
    """The Gauss weights times the shifted-Legendre expansion of -ln(v),
    whose coefficients are 1 at q = 0 and (2q+1)(-1)**q/(q(q+1)) above:
    no ill-conditioned Vandermonde system is solved."""
    q = np.arange(8)
    coef = (2 * q + 1) * (-1.0) ** q / np.maximum(q * (q + 1), 1)
    coef[0] = 1.0
    return _NEAR_W * (np.polynomial.legendre.legvander(_GL_X, 7) @ coef)


_LOG_W = _log_weights()


# 16-point Gauss-Legendre on [-1, 1], the rule of polarization's B(k)
# panels; on [0, 1] it is the rule of each graded panel.
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_PANEL_V = 0.5 * (1.0 + _GL16_X)
_PANEL_W = 0.5 * _GL16_W


def _graded_panels(width, room, log_end):
    """Gauss points and weights on pieces [0, width] in the distance r
    from their end nearest a log-singular point, graded toward that end.

    Each piece takes the smallest depth J >= 0 with g = width*2**-J no
    larger than its room.  The panels (width*2**-(j+1), width*2**-j],
    j < J, carry 16 Gauss points each, and the last panel [0, g] the 8
    points r = g*v.  Where log_end, the singular point is the end itself:
    there ln(R/r) = ln(R/g) - ln(v) puts the smooth first part on the
    Gauss weights and -ln(v) on g*_LOG_W, exact for -ln(v) times any
    polynomial of degree 7.

    width, room and log_end are arrays over the pieces.  The point arrays
    are point-major, one column per panel.  Returns (piece, r, w) of the
    halved panels, shape (16, panels), piece the index of each column's
    piece in increasing order, and (r, w, c) of the last panels: r and w
    of shape (8, pieces), c of shape (8, log_end pieces), one column per
    log_end piece in piece order.  The integral of F(r) ln(R(r)/r) over a
    piece is the sum of w F ln(R/r) over its panels' points, plus c F over
    its last panel's where log_end: c is g*(_LOG_W + _NEAR_W ln v).
    """
    depth = np.maximum(np.ceil(np.log2(width / room)), 0.0).astype(int)
    depth += np.ldexp(width, -depth) > room
    piece = np.repeat(np.arange(width.size), depth)
    j = np.arange(piece.size) - np.repeat(np.cumsum(depth) - depth, depth)
    lo = np.ldexp(width[piece], -(j + 1))
    g = np.ldexp(width, -depth)
    halved = (piece, (1.0 + _PANEL_V)[:, None] * lo, _PANEL_W[:, None] * lo)
    log_part = (_LOG_W + _NEAR_W * np.log(_NEAR_V))[:, None] * g[log_end]
    return halved, (_NEAR_V[:, None] * g, _NEAR_W[:, None] * g, log_part)


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
    norm,
):
    """Damped Picard iteration x <- (1-w) x + w map(x), from w = 1.

    The residual is norm(map(x) - x).  Whenever the residual increases,
    the damping factor w is halved, floored at 1/64; the iteration degrades
    gracefully outside the contraction regime.  Raises FixedPointError
    (carrying the report and last state) if max_iter is reached above
    tolerance.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be at least 1, got {max_iter}")
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
    """payload as strict JSON: a NaN or infinity raises ValueError before
    the file is opened."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
