"""Vacuum-polarization function B(k) and screening b(k).

B(k) is the momentum-space linear-response kernel of the dressed Dirac
sea,

    B(k) = 1/(pi^2 k^2) * int_{|l +- k/2| < Cut} f(l) dl,

with the integrand written in a cancellation-free wedge form built from
the 4-vector g(p) = (g0(p), g1(p) w_p): the numerator |g(p) ^ g(q)|^2
replaces the difference Et(p)Et(q) - g(p).g(q), which would lose all
accuracy as k -> 0.  At k = 0 the kernel has a radial closed form in the
profile derivatives, used both as the k -> 0 value and as an independent
cross-check of the 2-d integral.

B(0) and every B(k) evaluate the profiles, and B(0) their slopes, through
the one (g0, g1) interpolant the Dispersion caches.  Each B(k) integrates
its k in a single array pass over all of its radial panels; the per-panel
sums are still added in panel order, so the result does not depend on the
batching.  Swapping p = l + k/2 and q = l - k/2 maps c = cos(l, k) to -c
and leaves the integrand unchanged, so B(k) takes only the c >= 0 half of
the symmetric Gauss rule in c, with doubled weights.

B(k) writes every per-k temporary into the buffers of a Workspace.
polarization_table makes one per table and reuses it for all of its k;
the buffers grow to the largest panel count asked for and never shrink.
Each product, sum and quotient is the one the plain expression rounds, in
the same order, so every B(k) is bitwise the same with a shared
workspace, a fresh one or none.  Where float64 overflows (the radial B(0)
from a cutoff near 1e77 on the free dispersion, B(k) near 5e102), B(0)
and B(k) raise InvalidParameterError rather than return NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Dispersion, ModelParams
from .numerics import InvalidParameterError, OutOfRangeError, write_csv, write_json

# Below this k the 2-d integral cancels catastrophically; continuity of B
# at 0 lets us report the radial k=0 closed form instead.
K_SWITCH = 1e-3

DEFAULT_K_MIN = 1e-4

# leggauss symmetrizes its nodes, so _GL64_X[32:] == -_GL64_X[31::-1]
# exactly: the c >= 0 half of the rule, as _momenta requires
_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_HALF_X, _HALF_W = _GL64_X[32:], 2.0 * _GL64_W[32:]


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

    The profiles and their slopes come from the interpolant, integrated by
    one 4-point Gauss rule per cubic piece: in u on [0, x_0], in ln u on
    each node interval and on [x_{n-1}, cutoff].  The two integrals differ
    by a Cauchy-Schwarz-positive wedge, so the result is strictly positive
    for any non-degenerate profile.
    """
    x = d.grid.nodes
    t = np.log(np.append(x, d.grid.cutoff))
    a, b = t[:-1, None], t[1:, None]
    u_log = np.exp(0.5 * (a + b) + 0.5 * (b - a) * _GL4_X)
    u = np.concatenate([0.5 * x[0] * (1.0 + _GL4_X), u_log.ravel()])
    w = np.concatenate([0.5 * x[0] * _GL4_W, (0.5 * (b - a) * _GL4_W * u_log).ravel()])
    g0, g1 = d.interpolant(u).T
    g0p, g1p = d.interpolant(u, 1).T
    et = np.hypot(g0, g1)
    with np.errstate(over="ignore", invalid="ignore"):
        first = u**2 * (g0p**2 + g1p**2 + 2.0 * (g1 / u) ** 2) / et**3
        second = u**2 * (g0 * g0p + g1 * g1p) ** 2 / et**5
        B0 = float(np.dot(w, first) - np.dot(w, second)) / (3.0 * math.pi)
    return _finite(B0, "B(0)", d)


def _finite(value: float, what: str, d: Dispersion) -> float:
    """value, or InvalidParameterError where float64 overflowed on the way."""
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"{what} = {value} at cutoff {d.grid.cutoff:.3g}: the integrand "
            "overflows float64 at this cutoff"
        )
    return value


class Workspace:
    """Scratch arrays for B(k), reused from one k to the next.

    work(name, shape, count) returns count C-contiguous arrays of that
    shape, stacked on a leading axis: a view of the start of the storage
    kept under name, which grows when a k needs more and never shrinks.
    Nothing carries over from one k to the next: every buffer is written
    before it is read.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], count: int) -> np.ndarray:
        size = count * math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(count, *shape)


def _momenta(d: Dispersion, k: float, u: np.ndarray, c: np.ndarray, work: Workspace):
    """Set-up shared by the B(k) integrands: for l at |l| = u, cos(l, k) = c,
    the transverse component lx, the axial components pz, qz and the norms
    pn, qn of p = l + k/2 and q = l - k/2, then g0, g1 and Et at pn and qn,
    all in the buffers of work.

    u broadcasts against c, and c must be the c >= 0 half of a symmetric
    rule along its last axis.  qn at c is pn at -c, so [qn reversed, pn]
    is pn over the full rule, in ascending order: one interpolant call on
    that row gives both sides.
    """
    shape = c.shape
    h = shape[-1]
    lx, pz, qz, pn, qn, t, g0p, g1p, etp, g0q, g1q, etq = work("momenta", shape, 12)
    # sin = sqrt(max(1 - c^2, 0)), then lx = u sin, all in lx
    np.multiply(c, c, out=lx)
    np.subtract(1.0, lx, out=lx)
    np.maximum(lx, 0.0, out=lx)
    np.sqrt(lx, out=lx)
    np.multiply(u, lx, out=lx)
    np.multiply(u, c, out=pz)
    np.subtract(pz, 0.5 * k, out=qz)
    np.add(pz, 0.5 * k, out=pz)
    np.hypot(lx, pz, out=pn)
    np.hypot(lx, qz, out=qn)
    (row,) = work("row", shape[:-1] + (2 * h,), 1)
    np.copyto(row[..., h - 1 :: -1], qn)
    np.copyto(row[..., h:], pn)
    g = d.interpolant(row)
    p_side, q_side = [g0p, g1p, etp], [g0q, g1q, etq]
    for (g0, g1, et), half in ((p_side, g[..., h:, :]), (q_side, g[..., h - 1 :: -1, :])):
        np.copyto(g0, half[..., 0])
        np.copyto(g1, half[..., 1])
        # Et = sqrt(g0^2 + g1^2)
        np.add(np.multiply(g0, g0, out=t), np.multiply(g1, g1, out=et), out=et)
        np.sqrt(et, out=et)
    return lx, pz, qz, pn, qn, p_side, q_side


def _wedge_integrand(d: Dispersion, k: float, u: np.ndarray, c: np.ndarray, work: Workspace):
    """Wedge-form integrand f(l) on arrays of |l| = u and cos(l, k) = c >= 0.

    Every step writes into a buffer of work; lx, pz and qz are overwritten.
    Each product, sum and quotient is the one the textbook expression
    rounds, taken in its order, so f does not depend on the buffering.
    """
    lx, pz, qz, pn, qn, (g0p, g1p, etp), (g0q, g1q, etq) = _momenta(d, k, u, c, work)
    ax, d0, dx, dz, t, f = work("wedge", c.shape, 6)
    # every Gauss point has u > 0 and |c| < 1, so lx, pn and qn are positive:
    # ax = g1p lx/pn, az = g1p pz/pn, bx = g1q lx/qn, bz = g1q qz/qn
    az, bx, bz = pz, lx, qz
    np.multiply(np.divide(lx, pn, out=ax), g1p, out=ax)
    np.multiply(np.divide(pz, pn, out=az), g1p, out=az)
    np.multiply(np.divide(lx, qn, out=bx), g1q, out=bx)
    np.multiply(np.divide(qz, qn, out=bz), g1q, out=bz)
    # difference form of the 2x2 minors keeps full accuracy at small k:
    # D0x = d0 bx - g0q dx in f, D0z = d0 bz - g0q dz in d0,
    # Dxz = dx bz - dz bx in dx
    np.subtract(g0p, g0q, out=d0)
    np.subtract(ax, bx, out=dx)
    np.subtract(az, bz, out=dz)
    np.subtract(np.multiply(d0, bx, out=f), np.multiply(g0q, dx, out=t), out=f)
    np.subtract(np.multiply(d0, bz, out=d0), np.multiply(g0q, dz, out=t), out=d0)
    np.subtract(np.multiply(dx, bz, out=dx), np.multiply(dz, bx, out=dz), out=dx)
    # wedge = D0x^2 + D0z^2 + Dxz^2 in f
    np.add(np.square(f, out=f), np.square(d0, out=d0), out=f)
    np.add(f, np.square(dx, out=dx), out=f)
    # dot = g0p g0q + ax bx + az bz in t
    np.add(np.multiply(g0p, g0q, out=t), np.multiply(ax, bx, out=ax), out=t)
    np.add(t, np.multiply(az, bz, out=az), out=t)
    # f = wedge / (etp etq (etp + etq) (etp etq + dot))
    np.multiply(etp, etq, out=dx)
    np.multiply(dx, np.add(etp, etq, out=d0), out=d0)
    np.multiply(d0, np.add(dx, t, out=t), out=d0)
    return np.divide(f, d0, out=f)


def _b_lambda_k_generic(d: Dispersion, k: float, integrand, work: Workspace) -> float:
    """B(k) with integrand(d, k, u, c, work) on the (u, c) rule of every panel."""
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
    # every panel's (u, c) rule in one (panels, 64, 32) array, so that
    # each k takes one integrand call
    bounds = np.array(panels)
    a, b = bounds[:, :1], bounds[:, 1:]
    um = 0.5 * (a + b) + 0.5 * (b - a) * _GL64_X
    uw = 0.5 * (b - a) * _GL64_W
    cmax = np.clip((cut * cut - um * um - 0.25 * k * k) / (um * k), 0.0, 1.0)[..., None]
    shape = cmax.shape[:-1] + _HALF_X.shape
    C, Cw = work("rule", shape, 2)
    np.multiply(cmax, _HALF_X, out=C)
    np.multiply(cmax, _HALF_W, out=Cw)
    f = integrand(d, k, um[..., None], C, work)
    rows = np.add.reduce(np.multiply(f, Cw, out=f), axis=-1)
    # panel-by-panel accumulation, in panel order, keeps the sum's rounding
    total = 0.0
    for w_row, f_row in zip(uw * um * um, rows):
        total += float(np.dot(w_row, f_row))
    # azimuthal 2 pi; the doubled weights cover c < 0
    return 2.0 * math.pi * total / (math.pi**2 * k * k)


def b_lambda_k(d: Dispersion, k: float, work: Workspace | None = None) -> float:
    """B(k) for k > 0 by 2-d reduction of the momentum-ball integral; work
    holds the temporaries (polarization_table passes one for all its k)."""
    work = Workspace() if work is None else work
    with np.errstate(over="ignore", invalid="ignore"):
        Bk = _b_lambda_k_generic(d, k, _wedge_integrand, work)
    return _finite(Bk, f"B({k:g})", d)


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
    closed form (continuity at 0 backs the substitution).  An empty k grid
    gives B0_at_zero alone."""
    k_nodes = np.asarray(k_nodes, dtype=float)
    B0 = b_lambda_zero_radial(d)
    alpha = d.params.alpha
    work = Workspace()
    B = np.array([B0 if k < K_SWITCH else b_lambda_k(d, k, work) for k in k_nodes])
    b = np.array([b_screening(Bk, alpha) for Bk in B])
    return PolarizationTable(d.params, k_nodes, B, b, B0)


def charge_renormalization(params: ModelParams, B0_zero: float) -> tuple[float, float]:
    """(Z3, alpha_phys) from the free-dispersion polarization B0_zero at k = 0."""
    Z3 = 1.0 / (1.0 + params.alpha * B0_zero)
    return Z3, params.alpha * Z3


@dataclass(frozen=True)
class ContinuityReport:
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
    return ContinuityReport(float(ratios.max()) if ratios.size else 0.0)


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
    # uniform directions, radii in [1/cutoff, cutoff] biased toward small
    # |p| where the bound is tightest; drawn pair by pair, in this order
    vec, expo = zip(
        *((rng.normal(size=(2, 3)), rng.uniform(-1.0, 1.0, size=2)) for _ in range(n_samples))
    )
    vec = np.array(vec)
    vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
    radii = d.grid.cutoff ** np.array(expo)
    p_vec, q_vec = np.moveaxis(vec * radii[..., None], 1, 0)
    cosang = np.sum(p_vec * q_vec, axis=-1) / (radii[:, 0] * radii[:, 1])
    (g0p, g1p), (g0q, g1q) = np.transpose(d.interpolant(radii), (1, 2, 0))
    ep, eq = np.hypot(g0p, g1p), np.hypot(g0q, g1q)
    dot = g0p * g0q + g1p * g1q * cosang
    lhs = (ep * eq - dot) / (ep * eq * (ep + eq))
    ksq = np.sum((p_vec - q_vec) ** 2, axis=-1)
    # the smaller of 4k^2/E(p)^2 and 4k^2/E(q)^2 divides by the larger E
    excess = lhs - np.minimum(2.0, 4.0 * ksq / np.maximum(ep, eq) ** 2)
    violations = int(np.count_nonzero(excess > 1e-12))
    max_excess = float(np.max(excess))
    return KernelBoundReport(n_samples, violations, max_excess)


def table_to_csv(table: PolarizationTable, csv_path, json_path):
    """CSV body k, B, b; the header metadata goes to a JSON side file."""
    write_csv(csv_path, ("k", "B", "b"), (table.k_nodes, table.B, table.b))
    meta = {
        "alpha": table.params.alpha,
        "cutoff": table.params.cutoff,
        "L": table.params.L,
        "B0_at_zero": table.B0_at_zero,
    }
    write_json(json_path, meta)
