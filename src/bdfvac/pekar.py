"""Choquard-Pekar variational problem on a radial direct-space grid.

Minimizes E(phi) = int |grad phi|^2 - D(|phi|^2, |phi|^2) over the unit
L^2 sphere by projected imaginary-time descent.  The solver works in
u = r*phi throughout, on the lattice r_i = (i + 1/2) h: every integral
4 pi int f r^2 dr is then a dot product 4 pi h sum of u-form samples, and
the radial Laplacian is u'' (second-order central differences, u odd at
the origin, u = 0 at the outer box edge), free of the 1/r coordinate
singularity.  The analytic Gaussian trial gives the upper bound -1/(3 pi)
every run must beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import InvalidParameterError, RadialGrid, write_csv, write_json

DEFAULT_R_MAX = 40.0  # also the smallest admissible box
DEFAULT_DT = 2.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50_000
# descent steps between two checks of the EL residual
CHECK_EVERY = 5

GAUSSIAN_SIGMA_STAR = 3.0 * math.sqrt(math.pi / 2.0)
GAUSSIAN_BOUND = -1.0 / (3.0 * math.pi)


@dataclass(frozen=True)
class PekarState:
    """Radial profile u = r phi, normalized so that 4 pi h sum u^2 = 1, with
    its energy bookkeeping.

    T is the kinetic quadratic form of the discrete radial Laplacian, D the
    Coulomb direct energy, E = T - D, and mu = T - 2D the Lagrange
    multiplier of the Euler-Lagrange equation -u'' - 2 V u = mu u, with V
    the Hartree potential of the density u^2/r^2.
    """

    grid: RadialGrid
    u: np.ndarray
    T: float
    D: float
    E: float
    mu: float
    V: np.ndarray

    @property
    def phi(self) -> np.ndarray:
        return self.u / self.grid.nodes


def _laplacian_u(u: np.ndarray, h: float) -> np.ndarray:
    """u'' with ghost values u(-h/2) = -u(h/2) and u(R+h/2) = -u(R-h/2),
    enforcing u(0) = 0 and u(R_max) = 0 at second order."""
    out = np.empty_like(u)
    out[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    out[0] = u[1] - 3.0 * u[0]
    out[-1] = u[-2] - 3.0 * u[-1]
    return out / (h * h)


def hartree_potential(grid: RadialGrid, u2: np.ndarray) -> np.ndarray:
    """Coulomb potential of the radial density u2/r^2 by Newton's theorem:
    V(r) = 4 pi [ (1/r) int_0^r u2 ds + int_r^Rmax u2/s ds ]."""
    r = grid.nodes
    inner_cells = grid.uniform_spacing * u2
    outer_cells = inner_cells / r
    # cumulative sums split each node's own cell in half (midpoint rule)
    inner = np.cumsum(inner_cells) - 0.5 * inner_cells
    outer = np.cumsum(outer_cells[::-1])[::-1] - 0.5 * outer_cells
    return 4.0 * math.pi * (inner / r + outer)


def kinetic_energy(grid: RadialGrid, u: np.ndarray) -> float:
    """Quadratic form 4 pi h sum u (-u'') of the discrete operator."""
    h = grid.uniform_spacing
    return -4.0 * math.pi * h * float(np.dot(u, _laplacian_u(u, h)))


def make_state(grid: RadialGrid, u: np.ndarray) -> PekarState:
    """Normalize u = r phi and fill in the energy components.  The state
    keeps the Hartree potential V of u^2 that its direct energy D needs,
    for the next descent step and the EL residual to read.  A profile whose
    norm or energy is not finite, or that is 0, raises
    InvalidParameterError."""
    ball = 4.0 * math.pi * grid.uniform_spacing
    u = np.asarray(u, dtype=float)
    norm2 = ball * float(np.dot(u, u))
    if not 0.0 < norm2 < math.inf:
        raise InvalidParameterError(f"Pekar profile norm^2 {norm2} is not finite and positive")
    u = u / math.sqrt(norm2)
    T = kinetic_energy(grid, u)
    u2 = u * u
    V = hartree_potential(grid, u2)
    D = ball * float(np.dot(V, u2))
    E = T - D
    if not math.isfinite(E):
        raise InvalidParameterError(f"Pekar energy {E} is not finite")
    return PekarState(grid=grid, u=u, T=T, D=D, E=E, mu=T - 2.0 * D, V=V)


def gaussian_state(grid: RadialGrid) -> PekarState:
    """The optimal Gaussian trial, where every descent starts."""
    r = grid.nodes
    return make_state(grid, r * np.exp(-(r**2) / (2.0 * GAUSSIAN_SIGMA_STAR**2)))


def _apply_h(state: PekarState) -> np.ndarray:
    """r H phi = -u'' - 2 V u, with the Hartree potential V the state
    carries."""
    return -_laplacian_u(state.u, state.grid.uniform_spacing) - 2.0 * state.V * state.u


def _semi_implicit_step(state: PekarState, dt: float) -> PekarState:
    """Descent step with the whole linearized Hamiltonian implicit.

    Solves (I + dt (A - 2V)) u_new = u for the tridiagonal A = -d^2/dr^2
    (the ghost closure of _laplacian_u) with the Hartree potential V the
    state carries frozen.  LAPACK's gtsv solves the system, the routine
    scipy's solve_banded calls for one band either side, without that
    wrapper's per-call checks: a singular system raises LinAlgError here,
    and make_state refuses a step whose energy is not finite.  gtsv solves
    into a copy of u, which a rejected step leaves as it was.  After
    renormalization the fixed point satisfies the discrete Euler-Lagrange
    equation exactly for any dt, and there is no h^2 stability ceiling, so
    large steps are admissible and the driver converges in a
    grid-independent number of iterations.
    """
    from scipy.linalg.lapack import dgtsv

    grid = state.grid
    h = grid.uniform_spacing
    V = state.V
    c = dt / (h * h)
    diag = 1.0 + 2.0 * c - 2.0 * dt * V
    diag[0] = 1.0 + 3.0 * c - 2.0 * dt * V[0]
    diag[-1] = 1.0 + 3.0 * c - 2.0 * dt * V[-1]
    off = np.full(V.size - 1, -c)
    *_, u, info = dgtsv(off, diag, off, state.u, overwrite_d=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular descent system (gtsv info {info})")
    np.clip(u, 0.0, None, out=u)
    return make_state(grid, u)


def el_residual(state: PekarState) -> float:
    """L^2 norm of the Euler-Lagrange defect -lap phi - 2 V phi - mu phi,
    with the state's mu = T - 2D, the discrete Rayleigh quotient."""
    defect = _apply_h(state) - state.mu * state.u
    return math.sqrt(4.0 * math.pi * state.grid.uniform_spacing * float(np.dot(defect, defect)))


class PekarConvergenceError(RuntimeError):
    """Descent stagnated without beating the Gaussian upper bound; residual
    is the EL residual of the last iterate."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def accepted_step(step, state: PekarState, dt: float) -> PekarState | None:
    """step(state, dt), or None where the descent rejects it: its system is
    singular (LinAlgError), its energy is not finite, or its energy rises
    beyond rounding level.  Increases at rounding level must not count,
    near the minimum, where the true decrease underflows the energy's ulp;
    a NaN energy fails the comparison and is rejected with the rest."""
    try:
        new = step(state, dt)
    except (np.linalg.LinAlgError, InvalidParameterError):
        return None
    return new if new.E - state.E <= 1e-12 else None


def solve_pekar(grid: RadialGrid) -> PekarState:
    """Imaginary-time minimization to EL residual <= DEFAULT_TOL within
    DEFAULT_MAX_ITER steps, from the optimal Gaussian.

    Uses the implicit step, whose fixed point is the Euler-Lagrange
    equation itself.  The step size starts at DEFAULT_DT and halves on
    every step accepted_step rejects, which keeps the iteration monotone
    far from the minimizer; the EL residual is checked every CHECK_EVERY
    steps.  From the Gaussian the descent takes 30 steps in the default
    box at every node count from 128 to 4096.
    """
    if grid.cutoff < DEFAULT_R_MAX:
        raise InvalidParameterError(f"direct-space box must extend to R_max >= {DEFAULT_R_MAX:g}")
    state = gaussian_state(grid)
    dt = DEFAULT_DT
    for it in range(1, DEFAULT_MAX_ITER + 1):
        new = accepted_step(_semi_implicit_step, state, dt)
        if new is None:
            dt *= 0.5
            if dt < 1e-12:
                break
            continue
        state = new
        if it % CHECK_EVERY == 0 and el_residual(state) <= DEFAULT_TOL:
            return state
    res = el_residual(state)
    if res <= DEFAULT_TOL:
        return state
    raise PekarConvergenceError(
        f"EL residual {res:.3e} > {DEFAULT_TOL:.3e} after {DEFAULT_MAX_ITER} steps "
        f"(E = {state.E:.8f}, Gaussian bound {GAUSSIAN_BOUND:.8f}); "
        "grid too small or the step-size schedule failed",
        res,
    )


def state_to_csv(state: PekarState, csv_path, json_path):
    """CSV body r, phi, V plus a JSON summary of the scalars."""
    write_csv(csv_path, ("r", "phi", "V"), (state.grid.nodes, state.phi, state.V))
    summary = {"T": state.T, "D": state.D, "E": state.E, "mu": state.mu}
    summary["residual"] = el_residual(state)
    write_json(json_path, summary)
