"""Radial grids, a Picard fixed-point driver and the artifact writers.

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
    """Picard iteration x <- map(x) until norm(map(x) - x) <= tol; returns
    map(x) with the report.  Raises FixedPointError (carrying the report
    and last state) if max_iter is reached above tolerance.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be at least 1, got {max_iter}")
    x = np.asarray(init, dtype=float)
    history = []
    for it in range(1, max_iter + 1):
        fx = np.asarray(map_fn(x), dtype=float)
        res = norm(fx - x)
        history.append(res)
        x = fx
        if res <= tol:
            return x, FixedPointReport(True, it, history, res)
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
