"""Vacuum-polarization function B(k), screening b(k) and linear response.

B(k) is the momentum-space linear-response kernel of the dressed Dirac
sea,

    B(k) = 1/(pi^2 k^2) * int_{|l +- k/2| < Cut} f(l) dl,

with the integrand written in a cancellation-free wedge form built from
the 4-vector g(p) = (g0(p), g1(p) w_p): the numerator |g(p) ^ g(q)|^2
replaces the difference Et(p)Et(q) - g(p).g(q), which would lose all
accuracy as k -> 0.  At k = 0 the kernel has a radial closed form in the
profile derivatives, used both as the k -> 0 value and as an independent
cross-check of the 2-d integral.

Every B(k) evaluates the profiles through the one (g0, g1) interpolant the
Dispersion caches, and integrates each k in a single array pass over all of
its radial panels; the per-panel sums are still added in panel order, so
the result does not depend on the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Dispersion, ModelParams, g0_derivatives
from .numerics import (
    InvalidParameterError,
    OutOfRangeError,
    ShapeMismatchError,
    integrate,
    write_csv,
    write_json,
)

# Below this k the 2-d integral cancels catastrophically; continuity of B
# at 0 lets us report the radial k=0 closed form instead.
K_SWITCH = 1e-3

DEFAULT_K_MIN = 1e-4

# leggauss symmetrizes its nodes, so _GL64_X == -_GL64_X[::-1] exactly, as
# _momenta requires
_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class PolarizationTable:
    """Sampled B(k), b(k) on a k grid, plus the k=0 radial closed form."""

    params: ModelParams
    k_nodes: np.ndarray
    B: np.ndarray
    b: np.ndarray
    B0_at_zero: float


def b_lambda_zero_radial(d: Dispersion) -> float:
    """k = 0 value of B from the radial closed form in g0', g1', g1/u.

    The two integrals differ by a Cauchy-Schwarz-positive wedge, so the
    result is strictly positive for any non-degenerate profile.
    """
    u = d.grid.nodes
    g0p, _ = g0_derivatives(d)
    g1p = np.gradient(d.g1, u)
    et = d.e_tilde_samples
    first = u**2 * (g0p**2 + g1p**2 + 2.0 * (d.g1 / u) ** 2) / et**3
    second = u**2 * (d.g0 * g0p + d.g1 * g1p) ** 2 / et**5
    return (integrate(d.grid, first) - integrate(d.grid, second)) / (3.0 * math.pi)


def _momenta(d: Dispersion, k: float, u: np.ndarray, c: np.ndarray):
    """Set-up shared by the B(k) integrands: for l at |l| = u, cos(l, k) = c,
    the transverse component lx, the axial components pz, qz and the norms
    pn, qn of p = l + k/2 and q = l - k/2, and the (g0, g1) profiles at pn
    and qn.

    c must be odd along its last axis (the symmetric Gauss rule in c), so
    that q at c is p at -c with its axial sign flipped: qn and the profiles
    at qn are then exactly those at pn reversed along that axis.
    """
    sin = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    lx = u * sin
    pz = u * c + 0.5 * k
    qz = u * c - 0.5 * k
    pn = np.hypot(lx, pz)
    gp = d.interpolant(pn)
    return lx, pz, qz, pn, pn[..., ::-1], gp, gp[..., ::-1, :]


def _wedge_integrand(d: Dispersion, k: float, u: np.ndarray, c: np.ndarray):
    """Wedge-form integrand f(l) on arrays of |l| = u and cos(l, k) = c."""
    lx, pz, qz, pn, qn, gp, gq = _momenta(d, k, u, c)
    g0p, g1p = gp[..., 0], gp[..., 1]
    g0q, g1q = gq[..., 0], gq[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        px_h, pz_h = np.where(pn > 0, lx / pn, 0.0), np.where(pn > 0, pz / pn, 1.0)
        qx_h, qz_h = np.where(qn > 0, lx / qn, 0.0), np.where(qn > 0, qz / qn, 1.0)
    ax, az = g1p * px_h, g1p * pz_h
    bx, bz = g1q * qx_h, g1q * qz_h
    # difference form of the 2x2 minors keeps full accuracy at small k
    d0 = g0p - g0q
    dx = ax - bx
    dz = az - bz
    D0x = d0 * bx - g0q * dx
    D0z = d0 * bz - g0q * dz
    Dxz = dx * bz - dz * bx
    wedge = D0x**2 + D0z**2 + Dxz**2
    etp = np.hypot(g0p, g1p)
    etq = etp[..., ::-1]  # the mirror image, as for qn in _momenta
    dot = g0p * g0q + ax * bx + az * bz
    return wedge / (etp * etq * (etp + etq) * (etp * etq + dot))


def _b_lambda_k_generic(d: Dispersion, k: float, integrand) -> float:
    """B(k) with integrand(d, k, u, c) on the (u, c) rule of every panel."""
    cut = d.grid.cutoff
    if k <= 0 or k > 2.0 * cut:
        raise OutOfRangeError(f"k={k} outside (0, {2 * cut}]")
    u_hi = cut * cut - 0.25 * k * k
    if u_hi <= 0:
        return 0.0
    u_max = math.sqrt(u_hi)
    # radial panels: one Gauss rule on [0, min(1, u_max)], then one per
    # octave of log-spacing out to u_max (integrand ~ 1/u at large u)
    panels = [(0.0, min(1.0, u_max))]
    lo = min(1.0, u_max)
    while lo < u_max:
        hi = min(lo * 4.0, u_max)
        panels.append((lo, hi))
        lo = hi
    # every panel's (u, c) rule in one (panels, 64, 64) array, so that
    # each k takes one integrand call
    bounds = np.array(panels)
    a, b = bounds[:, :1], bounds[:, 1:]
    um = 0.5 * (a + b) + 0.5 * (b - a) * _GL64_X
    uw = 0.5 * (b - a) * _GL64_W
    with np.errstate(divide="ignore"):
        cmax = np.clip((cut * cut - um * um - 0.25 * k * k) / (um * k), 0.0, 1.0)
    C = cmax[..., None] * _GL64_X
    Cw = cmax[..., None] * _GL64_W
    f = integrand(d, k, um[..., None], C)
    rows = np.sum(f * Cw, axis=-1)
    # panel-by-panel accumulation, in panel order, keeps the sum's rounding
    total = 0.0
    for w_row, f_row in zip(uw * um * um, rows):
        total += float(np.dot(w_row, f_row))
    # azimuthal 2 pi, both signs of c already covered by the symmetric rule
    return 2.0 * math.pi * total / (math.pi**2 * k * k)


def b_lambda_k(d: Dispersion, k: float) -> float:
    """B(k) for k > 0 by 2-d reduction of the momentum-ball integral."""
    return _b_lambda_k_generic(d, k, _wedge_integrand)


def b_screening(B_value: float, alpha: float) -> float:
    """Dielectric screening fraction alpha B / (1 + alpha B) in [0, 1),
    exactly 0 at alpha = 0."""
    if B_value < 0:
        raise InvalidParameterError(f"B must be nonnegative, got {B_value}")
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be nonnegative, got {alpha}")
    x = alpha * B_value
    return x / (1.0 + x)


def default_k_nodes(cutoff: float, n: int, k_min: float):
    """Geometric k grid from k_min to 2*cutoff."""
    return np.geomspace(k_min, 2.0 * cutoff, n)


def polarization_table(d: Dispersion, k_nodes: np.ndarray) -> PolarizationTable:
    """Tabulate B and b on a k grid; k below K_SWITCH uses the radial
    closed form (continuity at 0 backs the substitution)."""
    k_nodes = np.asarray(k_nodes, dtype=float)
    B0 = b_lambda_zero_radial(d)
    alpha = d.params.alpha
    B = np.array([B0 if k < K_SWITCH else b_lambda_k(d, k) for k in k_nodes])
    b = np.array([b_screening(Bk, alpha) for Bk in B])
    return PolarizationTable(d.params, k_nodes, B, b, B0)


def charge_renormalization(params: ModelParams, B0_zero: float) -> tuple[float, float]:
    """(Z3, alpha_phys) from the free-dispersion polarization B0_zero at k = 0."""
    Z3 = 1.0 / (1.0 + params.alpha * B0_zero)
    return Z3, params.alpha * Z3


def linear_response_density(table: PolarizationTable, rho_hat: np.ndarray) -> np.ndarray:
    """First-order vacuum density induced by rho: -B(k) rho_hat(k)."""
    rho_hat = np.asarray(rho_hat)
    if rho_hat.shape != table.k_nodes.shape:
        raise ShapeMismatchError("rho_hat does not match the table's k grid")
    return -table.B * rho_hat


@dataclass(frozen=True)
class ContinuityReport:
    k_values: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def continuity_modulus(table: PolarizationTable) -> ContinuityReport:
    """Small-k modulus |B(k)-B(0)| / (k (1/Cut + sqrt(k))) per node k<=0.1.

    Boundedness of the max is a regression check (the sharp constant is
    not pinned anywhere), frozen in the test suite.
    """
    mask = (table.k_nodes <= 0.1) & (table.k_nodes >= K_SWITCH)
    k = table.k_nodes[mask]
    budget = k * (1.0 / table.params.cutoff + np.sqrt(k))
    ratios = np.abs(table.B[mask] - table.B0_at_zero) / budget
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    return ContinuityReport(k, ratios, max_ratio)


@dataclass(frozen=True)
class KernelBoundReport:
    n_samples: int
    violations: int
    max_excess: float


def kernel_difference_bound_check(d: Dispersion, seed: int) -> KernelBoundReport:
    """Sampled check of the pointwise kernel-difference bound.

    For 100 random momenta p, q in the cutoff ball, the dimensionless kernel

        (E(p)E(q) - g(p).g(q)) / (E(p)E(q)(E(p)+E(q)))

    must stay below min(2, 4|p-q|^2/E(p)^2, 4|p-q|^2/E(q)^2) — the
    smoothness estimate underpinning the small-k continuity of B.  Returns
    the violation count and the largest excess over the bound.
    """
    rng = np.random.default_rng(seed)
    n_samples = 100
    cutoff = d.grid.cutoff
    violations = 0
    max_excess = -np.inf
    for _ in range(n_samples):
        # uniform directions, radii biased toward small |p| where the
        # bound is tightest
        vec = rng.normal(size=(2, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        radii = cutoff ** rng.uniform(-1.0, 1.0, size=2)
        p_vec, q_vec = vec * radii[:, None]
        pn, qn = radii
        if np.any((radii < 0) | (radii > cutoff)):
            raise OutOfRangeError(f"query point outside [0, {cutoff}]")
        cosang = float(np.dot(p_vec, q_vec) / (pn * qn))
        (g0p, g1p), (g0q, g1q) = d.interpolant(radii).tolist()
        ep, eq = math.hypot(g0p, g1p), math.hypot(g0q, g1q)
        dot = g0p * g0q + g1p * g1q * cosang
        lhs = (ep * eq - dot) / (ep * eq * (ep + eq))
        ksq = float(np.sum((p_vec - q_vec) ** 2))
        rhs = min(2.0, 4.0 * ksq / ep**2, 4.0 * ksq / eq**2)
        excess = lhs - rhs
        max_excess = max(max_excess, excess)
        if excess > 1e-12:
            violations += 1
    return KernelBoundReport(n_samples, violations, max_excess)


def table_to_csv(table: PolarizationTable, csv_path, json_path):
    """CSV body k, B, b; the header metadata goes to a JSON side file."""
    write_csv(csv_path, ("k", "B", "b"), (table.k_nodes, table.B, table.b))
    meta = {
        "alpha": table.params.alpha,
        "cutoff": table.params.cutoff,
        "L": table.params.L,
        "dispersion_kind": "dressed",
        "B0_at_zero": table.B0_at_zero,
    }
    write_json(json_path, meta)
