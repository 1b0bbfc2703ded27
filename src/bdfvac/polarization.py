"""Vacuum-polarization function B(k) and screening b(k).

B(k) is the momentum-space linear-response kernel of the dressed Dirac
sea,

    B(k) = 1/(pi^2 k^2) * int_{|p|, |q| < Cut} f(p, q) dq,   p = q + k,

with the integrand written in a cancellation-free wedge form built from
the 4-vector g(p) = (g0(p), g1(p) w_p): the numerator |g(p) ^ g(q)|^2
replaces the difference Et(p)Et(q) - g(p).g(q), which would lose all
accuracy as k -> 0.  At k = 0 the kernel has a radial closed form in the
profile derivatives, used both as the k -> 0 value and as an independent
cross-check of the 2-d integral.

B(k) integrates in spherical coordinates centred on q: r = |q| and
c = cos(q, k).  Swapping p and q leaves f unchanged, so B(k) takes the
half-space |p| >= |q| (l.k >= 0 for l = q + k/2) with weight 2:

    B(k) = 4/(pi k^2) int r^2 dr int_{c_lo(r)}^{c_hi(r)} f dc,
    c_lo = max(-1, -k/(2r)),  c_hi = min(1, (Cut^2 - r^2 - k^2)/(2rk)),

for r in [max(0, k - Cut), Cut].  The radial panels break at the two
kinks of those limits, r = k/2 and r = |Cut - k|, so that no Gauss panel
straddles one, and q = 0, a conic point of the integrand in coordinates
centred on l, is the coordinate origin.  Each panel takes a 16 x 16 Gauss
rule in (r, c).  b_lambda_k takes one k or a 1-d array of them: the
panels of every k go through the integrand together, PANELS_PER_PASS at
a time, and each k adds its panel sums in panel order, so a k's B does
not depend on the other k of its call.  polarization_table makes one
such call for all of its k from K_SWITCH on.  |q| = r is a radial node,
so the q side of the interpolant is read once per node.

B(0) and every B(k) evaluate the profiles, and B(0) their slopes, through
the one (g0, g1) interpolant the Dispersion caches.  Where float64
overflows (on the free dispersion, the radial B(0) from a cutoff near
1e77 and the wedge's squared minors in B(k) near 2e85), B(0) and B(k)
raise InvalidParameterError rather than return NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Dispersion, ModelParams, free_dispersion
from .numerics import InvalidParameterError, OutOfRangeError, write_csv, write_json

# Below this k polarization_table reports the radial B(0).  The wedge form
# does not cancel as k -> 0 (on the free vacuum at cutoff 1e4 it holds
# Uehling's drop within 1.4e-8 B(0) down to k = 1e-6), but the 2-d rule
# degrades once cutoff/k passes about 1e10, and continuity of B at 0
# backs reporting B(0) there.
K_SWITCH = 1e-3

DEFAULT_K_MIN = 1e-4

# B(k)'s panels take a 16-point Gauss rule in r and in c, B(0) one 4-point
# rule per cubic piece
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
# B(k)'s radial panels grow by this factor from r = k/2 to the cutoff
PANEL_RATIO = 4.0
# radial panels that one B(k) array pass integrates: each (panels, 16, 16)
# temporary then takes 64 kB, and a pass about 1.5 MB.  At 512 and 2048
# momentum nodes, 16 to 64 panels run within 10% of one another.
PANELS_PER_PASS = 32


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


def _radial_edges(k: float, cut: float) -> np.ndarray:
    """Panel edges in r = |q| over [max(0, k - cut), cut]: the kinks k/2
    and |cut - k| of the c limits, then PANEL_RATIO octaves from k/2."""
    r0 = max(0.0, k - cut)
    edges = {r0, abs(cut - k), cut}
    edge = 0.5 * k
    while edge < cut:
        edges.add(edge)
        edge *= PANEL_RATIO
    return np.array(sorted(e for e in edges if e >= r0))


def _wedge_integrand(lx, pz, qz, pn, qn, gp, gq):
    """Wedge-form integrand f from the transverse component lx, the axial
    components pz, qz and the norms pn, qn of p and q, with (g0, g1) at pn
    in gp and at qn in gq on their last axis; all broadcast together."""
    g0p, g1p, g0q, g1q = gp[..., 0], gp[..., 1], gq[..., 0], gq[..., 1]
    # every Gauss point has pn, qn > 0 and lx > 0
    ax, az = g1p * (lx / pn), g1p * (pz / pn)
    bx, bz = g1q * (lx / qn), g1q * (qz / qn)
    # difference form of the 2x2 minors keeps full accuracy at small k
    d0, dx, dz = g0p - g0q, ax - bx, az - bz
    d0x = d0 * bx - g0q * dx
    d0z = d0 * bz - g0q * dz
    dxz = dx * bz - dz * bx
    wedge = d0x * d0x + d0z * d0z + dxz * dxz
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    dot = g0p * g0q + ax * bx + az * bz
    return wedge / (etp * etq * (etp + etq) * (etp * etq + dot))


def _b_lambda_k_generic(d: Dispersion, k: np.ndarray, integrand) -> np.ndarray:
    """B at each k of the 1-d array k, with integrand(lx, pz, qz, pn, qn, gp,
    gq) on the (r, c) rule of every radial panel of the half-space |p| >= |q|.

    The panels of all k go through the integrand together, PANELS_PER_PASS
    at a time, and each k adds its panel sums in panel order."""
    cut = d.grid.cutoff
    outside = ~((k > 0) & (k <= 2.0 * cut))
    if outside.any():
        raise OutOfRangeError(f"k={k[outside][0]} outside (0, {2 * cut}]")
    edges = [_radial_edges(kk, cut) for kk in k]
    counts = np.array([e.size - 1 for e in edges], dtype=int)
    owner = np.repeat(np.arange(k.size), counts)  # the index of each panel's k
    a = np.concatenate([np.empty(0), *(e[:-1] for e in edges)])[:, None]
    b = np.concatenate([np.empty(0), *(e[1:] for e in edges)])[:, None]
    kp = k[owner][:, None]
    r = 0.5 * (a + b) + 0.5 * (b - a) * _GL16_X
    w = 0.5 * (b - a) * _GL16_W * r * r
    # c from the plane |p| = |q| to the sphere |p| = cut
    c_lo = np.maximum(-1.0, -0.5 * kp / r)
    c_hi = np.minimum(1.0, 0.5 * ((cut - r) * (cut + r) / kp - kp) / r)
    mid, half = (0.5 * (c_hi + c_lo))[..., None], (0.5 * (c_hi - c_lo))[..., None]
    gq = d.interpolant(r)[..., None, :]
    sums = np.empty(len(r))
    for start in range(0, len(r), PANELS_PER_PASS):
        part = slice(start, start + PANELS_PER_PASS)
        c, cw = mid[part] + half[part] * _GL16_X, half[part] * _GL16_W
        # q = r (sin, 0, c), p = q + k e_z: one (panels, 16, 16) array
        qn = r[part, :, None]
        lx = qn * np.sqrt(1.0 - c * c)
        qz = qn * c
        pz = qz + kp[part, :, None]
        pn = np.sqrt(lx * lx + pz * pz)
        f = integrand(lx, pz, qz, pn, qn, d.interpolant(pn), gq[part])
        # one 16-point dot a panel, the same sum as np.dot row by row
        sums[part] = np.vecdot(w[part], np.sum(f * cw, axis=-1))
    # bincount adds each k's panel sums in panel order; a k whose ball is
    # empty has no panel and keeps 0
    total = np.bincount(owner, weights=sums, minlength=k.size)
    # azimuthal 2 pi, and 2 for the half-space |p| < |q|
    return 4.0 * total / (math.pi * k * k)


def b_lambda_k(d: Dispersion, k):
    """B(k) for k > 0 by 2-d reduction of the momentum-ball integral: a
    float for a float k, an array for a 1-d array of k.

    Raises OutOfRangeError for any k outside (0, 2 cutoff], and
    InvalidParameterError naming the first k whose B is not finite."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        Bk = _b_lambda_k_generic(d, ks, _wedge_integrand)
    bad = ~np.isfinite(Bk)
    if bad.any():
        i = int(np.argmax(bad))
        _finite(float(Bk[i]), f"B({ks[i]:g})", d)
    return float(Bk[0]) if np.ndim(k) == 0 else Bk


def b_screening(B, alpha: float):
    """Dielectric screening fraction alpha B / (1 + alpha B) in [0, 1) of a
    B value or of each in an array, exactly 0 at alpha = 0."""
    if np.any(np.less(B, 0.0)):
        raise InvalidParameterError(f"B must be nonnegative, got {np.min(B)}")
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be nonnegative, got {alpha}")
    x = alpha * B
    return x / (1.0 + x)


def default_k_nodes(cutoff: float, n: int, k_min: float):
    """Geometric k grid from k_min to 2*cutoff."""
    return np.geomspace(k_min, 2.0 * cutoff, n)


def polarization_table(d: Dispersion, k_nodes: np.ndarray) -> PolarizationTable:
    """Tabulate B and b on a k grid; k below K_SWITCH uses the radial
    closed form (continuity at 0 backs the substitution), and every other
    k goes into one b_lambda_k call.  An empty k grid gives B0_at_zero
    alone."""
    k_nodes = np.asarray(k_nodes, dtype=float)
    B0 = b_lambda_zero_radial(d)
    B = np.full(k_nodes.shape, B0)
    # not "k >= K_SWITCH": a NaN k goes to b_lambda_k, which refuses it
    integral = ~(k_nodes < K_SWITCH)
    if integral.any():
        B[integral] = b_lambda_k(d, k_nodes[integral])
    return PolarizationTable(d.params, k_nodes, B, b_screening(B, d.params.alpha), B0)


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
    # the k below K_SWITCH carry B(0) itself, so their ratios are 0
    mask = table.k_nodes <= 0.1
    k = table.k_nodes[mask]
    budget = k * (1.0 / table.params.cutoff + np.sqrt(k))
    ratios = np.abs(table.B[mask] - table.B0_at_zero) / budget
    return ContinuityReport(float(ratios.max()) if ratios.size else 0.0)


def uehling(k: float) -> float:
    """Uehling's one-loop vacuum polarization in units of the bare mass
    (Uehling, Phys. Rev. 48, 55, 1935), U(k) = (2/pi) int_0^1 z(1-z)
    ln(1 + k^2 z(1-z)) dz, by its elementary form with beta = sqrt(1 + 4/k^2),

        (2/pi) [-5/18 + 2/(3k^2) + (1/6)(1 - 2/k^2) beta ln((beta+1)/(beta-1))],

    accurate to 2e-15 at k = 1.  That form cancels as k -> 0 (2e-5
    relative at k = 0.01), so below k = 0.05 U takes the series
    (2/pi)(k^2/30 - k^4/280 + k^6/1890), whose next term is 4e-11
    relative there."""
    k2 = k * k
    if k < 0.05:
        return 2.0 / math.pi * (k2 * (1.0 / 30.0 - k2 / 280.0 + k2 * k2 / 1890.0))
    beta = math.sqrt(1.0 + 4.0 / k2)
    log = math.log((beta + 1.0) / (beta - 1.0))
    return 2.0 / math.pi * (-5.0 / 18.0 + 2.0 / (3.0 * k2) + (1.0 - 2.0 / k2) * beta * log / 6.0)


# the free B(0) exceeds its closed form by 0.106/cutoff^2, and the free
# drop at k = 1 exceeds U(1) + 1/(8 pi cutoff) by about 0.133/(8 pi cutoff^2);
# with a margin, cutoff 10 to 1e8
FREE_CUTOFF_TERM = 0.125
# 2.5 times the 1e-10 B(0) that the 2-d B(1) misses by up to cutoff 1e10
FREE_FLOOR = 2.5e-10


def free_reference(d: Dispersion) -> tuple[float, float]:
    """The free vacuum on d's grid against its closed forms: B(0) against
    (2/(3 pi))(ln cutoff + ln 2) - 5/(9 pi) (Gravejat, Lewin and Sere,
    Commun. Math. Phys. 306, 2011), and the drop B(0) - B(1) against
    U(1) + 1/(8 pi cutoff).  Returns the sum of both misses over the free
    B(0), and its budget: FREE_CUTOFF_TERM/cutoff^2 over B(0), which both
    closed forms leave out, plus FREE_FLOOR."""
    table = polarization_table(free_dispersion(d.params, d.grid), np.array([1.0]))
    cut = d.params.cutoff
    B0 = table.B0_at_zero
    closed = 2.0 / (3.0 * math.pi) * (math.log(cut) + math.log(2.0)) - 5.0 / (9.0 * math.pi)
    drop = B0 - float(table.B[0])
    miss = abs(B0 - closed) + abs(drop - uehling(1.0) - 1.0 / (8.0 * math.pi * cut))
    return miss / B0, FREE_CUTOFF_TERM / cut**2 / B0 + FREE_FLOOR


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
