"""Choquard-Pekar variational problem on a radial direct-space grid.

Minimizes E(phi) = int |grad phi|^2 - D(|phi|^2, |phi|^2) over the unit
L^2 sphere by projected imaginary-time descent.  The radial Laplacian is
handled through u = r*phi (second-order central differences, u odd at the
origin, u = 0 at the outer box edge), which removes the 1/r coordinate
singularity.  The analytic Gaussian trial gives the upper bound -1/(3 pi)
every run must beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    InvalidParameterError,
    RadialGrid,
    ShapeMismatchError,
    integrate,
    write_csv,
    write_json,
)

DEFAULT_R_MAX = 40.0  # also the smallest admissible box
DEFAULT_DT = 0.5
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50_000

GAUSSIAN_SIGMA_STAR = 3.0 * math.sqrt(math.pi / 2.0)
GAUSSIAN_BOUND = -1.0 / (3.0 * math.pi)


@dataclass(frozen=True)
class PekarState:
    """Normalized radial profile with its energy bookkeeping.

    T is the kinetic quadratic form of the discrete radial Laplacian, D the
    Coulomb direct energy, E = T - D, and mu = T - 2D the Lagrange
    multiplier of the Euler-Lagrange equation -lap phi - 2 V phi = mu phi.
    """

    grid: RadialGrid
    phi: np.ndarray
    T: float
    D: float
    E: float
    mu: float


def _uniform_spacing(grid: RadialGrid) -> float:
    h = np.diff(grid.nodes)
    if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
        raise InvalidParameterError("the direct-space solver needs a uniform grid")
    return float(h[0])


def _norm_sq(grid: RadialGrid, phi: np.ndarray) -> float:
    return 4.0 * math.pi * integrate(grid, phi**2 * grid.nodes**2)


def normalize(grid: RadialGrid, phi: np.ndarray) -> np.ndarray:
    return phi / math.sqrt(_norm_sq(grid, phi))


def _laplacian_u(u: np.ndarray, h: float) -> np.ndarray:
    """u'' with ghost values u(-h/2) = -u(h/2) and u(R+h/2) = -u(R-h/2),
    enforcing u(0) = 0 and u(R_max) = 0 at second order."""
    out = np.empty_like(u)
    out[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    out[0] = u[1] - 3.0 * u[0]
    out[-1] = u[-2] - 3.0 * u[-1]
    return out / (h * h)


def hartree_potential(grid: RadialGrid, n: np.ndarray) -> np.ndarray:
    """Coulomb potential of the radial density n by Newton's theorem:
    V(r) = 4 pi [ (1/r) int_0^r n s^2 ds + int_r^Rmax n s ds ]."""
    n = np.asarray(n, dtype=float)
    if n.shape != grid.nodes.shape:
        raise ShapeMismatchError("density samples do not match grid")
    if np.any(n < -1e-14 * max(1.0, float(np.max(np.abs(n))))):
        raise InvalidParameterError("density must be nonnegative")
    r = grid.nodes
    w = grid.weights
    inner_cells = w * n * r**2
    outer_cells = w * n * r
    # cumulative sums split each node's own cell in half (midpoint rule)
    inner = np.cumsum(inner_cells) - 0.5 * inner_cells
    outer = np.cumsum(outer_cells[::-1])[::-1] - 0.5 * outer_cells
    return 4.0 * math.pi * (inner / r + outer)


def direct_energy(grid: RadialGrid, n: np.ndarray) -> float:
    """D(n, n) via the Hartree potential."""
    V = hartree_potential(grid, n)
    return 4.0 * math.pi * integrate(grid, V * n * grid.nodes**2)


def kinetic_energy(grid: RadialGrid, phi: np.ndarray) -> float:
    """Quadratic form 4 pi int u (-u'') dr of the discrete operator."""
    h = _uniform_spacing(grid)
    u = grid.nodes * phi
    return 4.0 * math.pi * h * float(np.dot(u, -_laplacian_u(u, h)))


def make_state(grid: RadialGrid, phi: np.ndarray) -> PekarState:
    """Normalize phi and fill in the energy components."""
    phi = normalize(grid, np.asarray(phi, dtype=float))
    T = kinetic_energy(grid, phi)
    D = direct_energy(grid, phi**2)
    return PekarState(grid=grid, phi=phi, T=T, D=D, E=T - D, mu=T - 2.0 * D)


def gaussian_state(grid: RadialGrid) -> PekarState:
    """The optimal Gaussian trial, where every descent starts."""
    phi = np.exp(-grid.nodes**2 / (2.0 * GAUSSIAN_SIGMA_STAR**2))
    return make_state(grid, phi)


def _apply_h(grid: RadialGrid, phi: np.ndarray, h: float) -> np.ndarray:
    """H phi = -lap phi - 2 V phi through the u = r phi substitution."""
    V = hartree_potential(grid, phi**2)
    u = grid.nodes * phi
    return -_laplacian_u(u, h) / grid.nodes - 2.0 * V * phi


def _semi_implicit_step(state: PekarState, dt: float) -> PekarState:
    """Descent step with the whole linearized Hamiltonian implicit.

    Solves (I + dt (A - 2V)) u_new = u for the tridiagonal A = -d^2/dr^2
    (the ghost closure of _laplacian_u) with the Hartree potential V
    frozen at the current iterate.  After renormalization the fixed point
    satisfies the discrete Euler-Lagrange equation exactly for any dt, and
    there is no h^2 stability ceiling, so large steps are admissible and
    the driver converges in a grid-independent number of iterations.
    """
    from scipy.linalg import solve_banded

    grid = state.grid
    h = _uniform_spacing(grid)
    r = grid.nodes
    u = r * state.phi
    V = hartree_potential(grid, state.phi**2)
    c = dt / (h * h)
    n = u.size
    ab = np.empty((3, n))
    ab[0, :] = -c
    ab[1, :] = 1.0 + 2.0 * c - 2.0 * dt * V
    ab[1, 0] = 1.0 + 3.0 * c - 2.0 * dt * V[0]
    ab[1, -1] = 1.0 + 3.0 * c - 2.0 * dt * V[-1]
    ab[2, :] = -c
    u_new = solve_banded((1, 1), ab, u)
    phi = u_new / r
    np.clip(phi, 0.0, None, out=phi)
    return make_state(grid, phi)


def el_residual(state: PekarState) -> float:
    """L^2 norm of the Euler-Lagrange defect -lap phi - 2 V phi - mu phi,
    with mu taken as the discrete Rayleigh quotient."""
    h = _uniform_spacing(state.grid)
    hphi = _apply_h(state.grid, state.phi, h)
    r2 = state.grid.nodes**2
    mu = 4.0 * math.pi * integrate(state.grid, hphi * state.phi * r2)
    defect = hphi - mu * state.phi
    return math.sqrt(4.0 * math.pi * integrate(state.grid, defect**2 * r2))


class PekarConvergenceError(RuntimeError):
    """Descent stagnated without beating the Gaussian upper bound."""


def solve_pekar(
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PekarState:
    """Imaginary-time minimization to EL residual <= tol, from the optimal
    Gaussian.

    Uses the implicit step, whose fixed point is the Euler-Lagrange
    equation itself; the step size starts at DEFAULT_DT and halves on any
    energy increase beyond rounding level, which keeps the iteration
    monotone far from the minimizer.
    """
    if grid.cutoff < DEFAULT_R_MAX:
        raise InvalidParameterError(f"direct-space box must extend to R_max >= {DEFAULT_R_MAX:g}")
    state = gaussian_state(grid)
    dt = DEFAULT_DT
    check_every = 20
    for it in range(1, max_iter + 1):
        new = _semi_implicit_step(state, dt)
        # increases at rounding level must not trigger halving near the
        # minimum, where the true decrease underflows the energy's ulp
        if new.E - state.E > 1e-12:
            dt *= 0.5
            if dt < 1e-12:
                break
            continue
        state = new
        if it % check_every == 0 and el_residual(state) <= tol:
            return state
    if el_residual(state) <= tol:
        return state
    raise PekarConvergenceError(
        f"EL residual {el_residual(state):.3e} > {tol:.3e} after {max_iter} steps "
        f"(E = {state.E:.8f}, Gaussian bound {GAUSSIAN_BOUND:.8f}); "
        "grid too small or the step-size schedule failed"
    )


def state_to_csv(state: PekarState, csv_path, json_path):
    """CSV body r, phi, V plus a JSON summary of the scalars."""
    V = hartree_potential(state.grid, state.phi**2)
    write_csv(csv_path, ("r", "phi", "V"), (state.grid.nodes, state.phi, V))
    summary = {"T": state.T, "D": state.D, "E": state.E, "mu": state.mu}
    summary["residual"] = el_residual(state)
    write_json(json_path, summary)
