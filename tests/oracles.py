"""Reference implementations that the tests check the pipeline against.

None of these is run by a bdfvac subcommand.  They are independent routes
to quantities the pipeline computes another way (the angular kernels
with adaptive quad on each cubic piece against KernelRules, the 26-term
K1 bracket series against dispersion's, the raw B(k)
integrand against the wedge form, an unfolded l-centred rule graded
toward the integrand's kinks, with the wedge built from vector minors,
against B(k)'s (|q|, |p| - |q|) one, that (|q|, |p| - |q|) form on a
Gauss rule of any order and panel ratio against B(k)'s 16 x 16 one, the
per-sample kernel-bound check against the batched one, the free B(0)
against its closed form, the free B(0) - B(k) against Uehling's, the
dressed m, g1'(0) and alpha B(0) against their alpha -> 0 laws at fixed
L, the explicit descent step against the implicit one, the banded Pekar
descent against the one that reuses each Hartree potential, the EL
residual with mu recomputed as a Rayleigh quotient against the state's mu,
closed forms against the assembled breakdown) or small helpers the tests use.  pytest
does not collect this module: its name has no test_ prefix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import fields

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.interpolate import PchipInterpolator

from bdfvac.cli import RunConfig
from bdfvac.dispersion import Dispersion
from bdfvac.energy import _ingredients
from bdfvac.numerics import InvalidParameterError, OutOfRangeError, RadialGrid
from bdfvac import pekar
from bdfvac.pekar import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    GAUSSIAN_SIGMA_STAR,
    PekarState,
    _apply_h,
    _laplacian_u,
    hartree_potential,
    kinetic_energy,
    make_state,
)
from bdfvac.polarization import (
    KernelBoundReport,
    PolarizationTable,
    _b_lambda_k_generic,
)

# ---------------------------------------------------------------- numerics


def interp(grid: RadialGrid, samples: np.ndarray, p) -> float | np.ndarray:
    """Monotone piecewise-cubic interpolation of node samples.

    p = 0 is allowed (extrapolation from the smallest nodes); p > cutoff is
    an error.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ValueError("samples do not match grid")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > grid.cutoff):
        raise OutOfRangeError(f"query point outside [0, {grid.cutoff}]")
    out = PchipInterpolator(grid.nodes, samples, extrapolate=True)(p_arr)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def geometric_bounds_grid(first, cutoff, n=512):
    """n cells with bounds 0, then geometric from first to cutoff: the
    geometric grid of numerics.make_grid with its origin set by hand."""
    bounds = np.concatenate([[0.0], np.geomspace(first, cutoff, n)])
    return RadialGrid(0.5 * (bounds[1:] + bounds[:-1]), cutoff)


# ---------------------------------------------------------------- dispersion


def angular_kernel_K0(p, s):
    """Angular reduction of the isotropic Coulomb-square kernel:
    int_{|r|<Cut} f(|r|)/|p-r|^2 dr = int_0^Cut K0(p, s) f(s) ds."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(p <= 0) or np.any(s <= 0):
        raise InvalidParameterError("angular kernels need p > 0 and s > 0")
    if np.any(p == s):
        raise InvalidParameterError("p = s is singular; integrate through numerics")
    out = (2.0 * np.pi * s / p) * np.log((p + s) / np.abs(p - s))
    return float(out) if out.ndim == 0 else out


def angular_kernel_K1(p, s):
    """Angular reduction of the kernel carrying the <w_p, w_r> factor:
    int_{|r|<Cut} <w_p, w_r> f(|r|)/|p-r|^2 dr = int_0^Cut K1(p, s) f(s) ds."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(p <= 0) or np.any(s <= 0):
        raise InvalidParameterError("angular kernels need p > 0 and s > 0")
    if np.any(p == s):
        raise InvalidParameterError("p = s is singular; integrate through numerics")
    bracket = (p**2 + s**2) / (2.0 * p * s) * np.log((p + s) / np.abs(p - s)) - 1.0
    out = (2.0 * np.pi * s / p) * bracket
    return float(out) if out.ndim == 0 else out


# sum_{k>=1} 4k/(4k^2-1) t^{2k}, the K1 bracket below t = 1/2, to 30 terms
_BRACKET_COEF = [4.0 * k / (4.0 * k * k - 1.0) for k in range(1, 31)]


def _bracket(p: float, s: float) -> float:
    """(p^2+s^2)/(2ps) ln((p+s)/|p-s|) - 1, in scalar arithmetic."""
    t = min(p, s) / max(p, s)
    if t > 0.5:
        return (p * p + s * s) / (2.0 * p * s) * math.log1p(2.0 * min(p, s) / abs(p - s)) - 1.0
    acc = 0.0
    for coef in reversed(_BRACKET_COEF):
        acc = (acc + coef) * t * t
    return acc


def bracket_series_26(t):
    """(1+t^2) atanh(t)/t - 1 for t in [0, 1/2] as every t takes it from
    the 26-term series sum_{k>=1} 4k/(4k^2-1) t^{2k} by Horner's rule,
    truncation error below t^52."""
    t2 = t * t
    acc = np.zeros_like(t)
    for k in range(26, 0, -1):
        acc = (acc + 4.0 * k / (4.0 * k * k - 1.0)) * t2
    return acc


def kernel_row_by_quad(grid: RadialGrid, f: np.ndarray, i: int, kernel: int) -> float:
    """The K0 (kernel 0) or K1 (kernel 1) integral at node i of scipy's
    PCHIP of f, extrapolated on [0, x_0] and [x_{n-1}, cutoff], by adaptive
    quad on each cubic piece: every knot is a breakpoint, so quad sees one
    cubic times the kernel, log-singular at most at one end."""
    x = grid.nodes
    coef = PchipInterpolator(x, f, extrapolate=True).c
    edges = np.concatenate([[0.0], x, [grid.cutoff]])
    p = float(x[i])
    parts = []
    for j in range(edges.size - 1):
        k = min(max(j - 1, 0), x.size - 2)
        c3, c2, c1, c0 = coef[:, k]
        xk = float(x[k])

        def integrand(s):
            d = s - xk
            cubic = ((c3 * d + c2) * d + c1) * d + c0
            if kernel == 0:
                return s * math.log1p(2.0 * min(p, s) / abs(p - s)) * cubic
            return s * _bracket(p, s) * cubic

        value, _ = quad(integrand, edges[j], edges[j + 1], epsabs=0.0, epsrel=1e-13, limit=200)
        parts.append(value)
    return math.fsum(parts)


def e_tilde(d: Dispersion, p) -> float:
    """Modulus of the dressed symbol at momentum p."""
    if np.any(np.asarray(p) < 0) or np.any(np.asarray(p) > d.grid.cutoff):
        raise OutOfRangeError(f"p={p} outside [0, {d.grid.cutoff}]")
    return np.hypot(interp(d.grid, d.g0, p), interp(d.grid, d.g1, p))


# ---------------------------------------------------------------- polarization


def raw_integrand(s, gp, gq, work):
    """Textbook-form integrand in s = 1 - cos(p, q), kept only to validate
    the wedge form; it leaves work unused."""
    (g0p, g1p), (g0q, g1q) = gp, gq
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    dot = g0p * g0q + g1p * g1q * (1.0 - s)
    return (etp * etq - dot) / (etp * etq * (etp + etq))


def _vector_wedge_integrand(lx, pz, qz, pn, qn, gp, gq):
    """The wedge-form integrand from the vectors q = (lx, 0, qz) and
    p = (lx, 0, pz) with norms pn, qn: |g(p) ^ g(q)|^2 as the sum of the
    squared 2x2 minors of g = (g0, g1 p/|p|), each in difference form,
    over Et(p) Et(q) (Et(p) + Et(q)) (Et(p) Et(q) + g(p).g(q)), with
    (g0, g1) at pn in gp and at qn in gq on their last axis."""
    g0p, g1p, g0q, g1q = gp[..., 0], gp[..., 1], gq[..., 0], gq[..., 1]
    ax, az = g1p * (lx / pn), g1p * (pz / pn)
    bx, bz = g1q * (lx / qn), g1q * (qz / qn)
    d0, dx, dz = g0p - g0q, ax - bx, az - bz
    d0x = d0 * bx - g0q * dx
    d0z = d0 * bz - g0q * dz
    dxz = dx * bz - dz * bx
    wedge = d0x * d0x + d0z * d0z + dxz * dxz
    etp = np.sqrt(g0p * g0p + g1p * g1p)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    dot = g0p * g0q + ax * bx + az * bz
    return wedge / (etp * etq * (etp + etq) * (etp * etq + dot))


def b_lambda_k_raw(d: Dispersion, k: float) -> float:
    """B(k) from the cancellation-prone raw integrand (validation only)."""
    return float(_b_lambda_k_generic(d, np.array([k]), raw_integrand)[0])


def _graded_breaks(a: float, b: float, levels: int) -> np.ndarray:
    """Breaks of [a, b] that halve toward b: a, b - (b - a)/2, ..., down to
    (b - a) 2**-levels from b, and b."""
    return b - (b - a) * np.append(0.5 ** np.arange(levels + 1), 0.0)


def _gauss_on(breaks: np.ndarray, order: int):
    """Nodes and weights of an order-point Gauss rule on each panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = breaks[:-1, None], breaks[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def b_lambda_k_unfolded(d: Dispersion, k: float, levels: int = 24, order: int = 16) -> float:
    """B(k) on a rule that shares nothing with b_lambda_k but the profiles.

    l-centred coordinates u = |l|, c = cos(l, k) with p = l + k/2 and
    q = l - k/2, over the whole domain |c| <= cmax(u), with no p <-> q
    fold.  The radial panels split at the conic points u = k/2 (q = 0 at
    c = 1, p = 0 at c = -1) and at u = cut - k/2, where cmax reaches 1,
    and are graded geometrically toward k/2 on both sides; past k they
    double up to the largest u.  The c panels are graded toward +-1.  The
    profiles come from scipy's PchipInterpolator, and one radial panel is
    integrated at a time.
    """
    cut = d.grid.cutoff
    u_max = math.sqrt((cut - 0.5 * k) * (cut + 0.5 * k))
    breaks = [
        *_graded_breaks(0.0, 0.5 * k, levels),
        *_graded_breaks(k, 0.5 * k, levels),
        cut - 0.5 * k,
        u_max,
    ]
    edge = 2.0 * k
    while edge < u_max:
        breaks.append(edge)
        edge *= 2.0
    breaks = np.unique(np.clip(breaks, 0.0, u_max))
    half = _graded_breaks(0.0, 1.0, levels)
    t, tw = _gauss_on(np.concatenate([-half[::-1], half[1:]]), order)
    g0 = PchipInterpolator(d.grid.nodes, d.g0, extrapolate=True)
    g1 = PchipInterpolator(d.grid.nodes, d.g1, extrapolate=True)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        u, uw = _gauss_on(np.array([a, b]), order)
        u = u[:, None]
        cmax = np.clip(((cut - u) * (cut + u) - 0.25 * k * k) / (u * k), 0.0, 1.0)
        c = cmax * t
        lx = u * np.sqrt((1.0 - c) * (1.0 + c))
        pz, qz = u * c + 0.5 * k, u * c - 0.5 * k
        pn, qn = np.hypot(lx, pz), np.hypot(lx, qz)
        gp = np.stack([g0(pn), g1(pn)], axis=-1)
        gq = np.stack([g0(qn), g1(qn)], axis=-1)
        f = _vector_wedge_integrand(lx, pz, qz, pn, qn, gp, gq)
        total += float(np.dot(uw * u[:, 0] ** 2, (f * cmax) @ tw))
    # azimuthal 2 pi over pi^2 k^2
    return 2.0 * total / (math.pi * k * k)


def b_lambda_k_rt(d: Dispersion, k: float, order: int, ratio: float) -> float:
    """B(k) on b_lambda_k's (|q|, |p| - |q|) = (r, t) form with an
    order x order Gauss rule on each radial panel and the panels past k/2
    growing by ratio: the same breaks at k/2 and |cutoff - k|, any rule.
    The profiles come from scipy's PchipInterpolator, the wedge from its
    s = 1 - cos(p, q) form, and one radial panel is integrated at a time.
    """
    cut = d.grid.cutoff
    r0 = max(0.0, k - cut)
    edges = {r0, abs(cut - k), cut}
    edge = 0.5 * k
    while edge < cut:
        edges.add(edge)
        edge *= ratio
    edges = sorted(e for e in edges if e >= r0)
    x, w = np.polynomial.legendre.leggauss(order)
    g0 = PchipInterpolator(d.grid.nodes, d.g0, extrapolate=True)
    g1 = PchipInterpolator(d.grid.nodes, d.g1, extrapolate=True)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        t_lo = np.maximum(0.0, k - 2.0 * r)
        t_hi = np.minimum(k, cut - r)
        mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
        t = mid[:, None] + half[:, None] * x
        r = r[:, None]
        pn = r + t
        s = (k - t) * (k + t) / (2.0 * r * pn)
        g0p, g1p, g0q, g1q = g0(pn), g1(pn), g0(r), g1(r)
        minor = (g0p - g0q) * g1q - (g1p - g1q) * g0q
        both, same = g1p * g1q, g0p * g0q
        dot = (same + both) - both * s
        wedge = minor * minor + ((same + both) + dot) * (both * s)
        etp, etq = np.hypot(g0p, g1p), np.hypot(g0q, g1q)
        f = wedge / ((dot + etp * etq) * (etp * etq) * (etp + etq))
        total += float(np.sum(0.5 * (b - a) * w * r[:, 0] * half * ((f * pn) @ w)))
    # azimuthal 2 pi, and 2 for the half-space |p| < |q|
    return 4.0 * total / (math.pi * k**3)


def kernel_bound_per_sample(d: Dispersion, seed: int) -> KernelBoundReport:
    """kernel_difference_bound_check one sample pair at a time: the same
    draws, one interpolant call and the literal three-way min per pair."""
    rng = np.random.default_rng(seed)
    n_samples = 100
    violations = 0
    max_excess = -np.inf
    for _ in range(n_samples):
        vec = rng.normal(size=(2, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        radii = d.grid.cutoff ** rng.uniform(-1.0, 1.0, size=2)
        p_vec, q_vec = vec * radii[:, None]
        pn, qn = radii
        cosang = float(np.dot(p_vec, q_vec) / (pn * qn))
        (g0p, g0q), (g1p, g1q) = d.interpolant(radii).tolist()
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


def free_b_lambda_zero(cutoff: float) -> float:
    """Closed form of B(0) for the free profiles g0 = 1, g1 = p,

        (2/(3 pi)) (ln cutoff + ln 2) - 5/(9 pi) + O(cutoff^-2)

    (Gravejat, Lewin and Sere, Commun. Math. Phys. 306, 2011), without the
    O(cutoff^-2) term."""
    return 2.0 / (3.0 * math.pi) * (math.log(cutoff) + math.log(2.0)) - 5.0 / (9.0 * math.pi)


def uehling(k):
    """Uehling's one-loop vacuum polarization in units of the bare mass
    (Uehling, Phys. Rev. 48, 55, 1935),

        U(k) = (2/pi) int_0^1 z(1-z) ln(1 + k^2 z(1-z)) dz,

    the free B(0) - B(k) as the cutoff goes to infinity.  The elementary
    form (2/pi)[-5/18 + 2/(3k^2) + (1/6)(1 - 2/k^2) beta ln((beta+1)/(beta-1))],
    beta = sqrt(1 + 4/k^2), cancels at small k (2e-5 relative at k = 0.01),
    so below k = 0.05 the series (2/pi)(k^2/30 - k^4/280 + k^6/1890) is
    taken, whose next term is 4e-11 relative there."""
    k = np.asarray(k, dtype=float)
    small = k < 0.05
    kc = np.where(small, 1.0, k)
    beta = np.sqrt(1.0 + 4.0 / kc**2)
    log = np.log((beta + 1.0) / (beta - 1.0))
    closed = -5.0 / 18.0 + 2.0 / (3.0 * kc**2) + (1.0 - 2.0 / kc**2) * beta * log / 6.0
    k2 = k * k
    series = k2 * (1.0 / 30.0 - k2 / 280.0 + k2 * k2 / 1890.0)
    return 2.0 / math.pi * np.where(small, series, closed)


def free_b_drop(cutoff: float, k):
    """B(0) - B(k) of the free profiles g0 = 1, g1 = p at the cutoff:
    U(k) + (k/(8 pi cutoff)) F(k/cutoff), with F(x) = 1 + 0.133 x the
    small-x form of the edge term's shape (F reads 1.0136 at x = 0.1),
    up to O(cutoff^-2) in F."""
    k = np.asarray(k, dtype=float)
    return uehling(k) + k / (8.0 * math.pi * cutoff) * (1.0 + 0.133 * k / cutoff)


def limit_laws(L: float) -> dict:
    """The alpha -> 0 limits at fixed L = alpha ln(cutoff) of m, g1'(0)
    and alpha B(0): (1+x)^(3/2), 1 + x and l = ln(1+x), with x = 2L/(3 pi).
    At first order in L they are the small-L forms 1 + L/pi, 1 + 2L/(3 pi)
    and 2L/(3 pi).  Through C0^2 = 2 g1'(0)^2/((alpha b(0))^2 m) and
    b(0) -> l/(1+l), the binding -E_CP/C0^2 over alpha^2 |E_CP| tends to
    (1/2)(l/(1+l))^2 (1+x)^(-1/2)."""
    x = 2.0 * L / (3.0 * math.pi)
    ell = math.log1p(x)
    return {
        "m": (1.0 + x) ** 1.5,
        "g1_prime_zero": 1.0 + x,
        "alpha_b0": ell,
        "binding_per_E": 0.5 * (ell / (1.0 + ell)) ** 2 / math.sqrt(1.0 + x),
    }


def screened_density(table: PolarizationTable, n_hat: np.ndarray) -> np.ndarray:
    """Leading screening response -b(k) n_hat(k); the total effective
    density is (1 - b(k)) n_hat(k)."""
    n_hat = np.asarray(n_hat)
    if n_hat.shape != table.k_nodes.shape:
        raise ValueError("n_hat does not match the table's k grid")
    return -table.b * n_hat


# ---------------------------------------------------------------- pekar


def gaussian_trial_energy(sigma: float) -> float:
    """Energy of the normalized Gaussian of width sigma:
    3/(2 sigma^2) - sqrt(2/pi)/sigma, minimized at sigma = 3 sqrt(pi/2)."""
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    return 1.5 / sigma**2 - math.sqrt(2.0 / math.pi) / sigma


def imaginary_time_step(state: PekarState, dt: float) -> PekarState:
    """One projected descent step u <- normalize(clip(u - dt r H phi)).

    Negative overshoots are clipped to zero before renormalization to keep
    the iterate in the positive cone where the minimizer lives.
    """
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    u = state.u - dt * _apply_h(state)
    np.clip(u, 0.0, None, out=u)
    return make_state(state.grid, u)


def direct_energy(grid: RadialGrid, u2: np.ndarray) -> float:
    """D(n, n) of the density n = u2/r^2 via its Hartree potential."""
    V = hartree_potential(grid, u2)
    return 4.0 * math.pi * grid.uniform_spacing * float(np.dot(V, u2))


def normalized(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """u scaled to 4 pi h sum u^2 = 1, the unit L^2 norm of phi = u/r;
    like make_state, InvalidParameterError for a norm that is 0 or not
    finite."""
    u = np.asarray(u, dtype=float)
    norm2 = 4.0 * math.pi * grid.uniform_spacing * float(np.dot(u, u))
    if not 0.0 < norm2 < math.inf:
        raise InvalidParameterError(f"profile norm^2 {norm2} is not finite and positive")
    return u / math.sqrt(norm2)


def _banded_state(grid: RadialGrid, u: np.ndarray) -> PekarState:
    """make_state with D from direct_energy, which finds the Hartree
    potential anew."""
    u = normalized(grid, u)
    T = kinetic_energy(grid, u)
    D = direct_energy(grid, u**2)
    V = hartree_potential(grid, u**2)
    return PekarState(grid=grid, u=u, T=T, D=D, E=T - D, mu=T - 2.0 * D, V=V)


def _banded_step(state: PekarState, dt: float) -> PekarState:
    """The implicit descent step through scipy's solve_banded, with the
    Hartree potential recomputed from u."""
    grid = state.grid
    h = grid.uniform_spacing
    V = hartree_potential(grid, state.u**2)
    c = dt / (h * h)
    n = V.size
    ab = np.empty((3, n))
    ab[0, :] = -c
    ab[1, :] = 1.0 + 2.0 * c - 2.0 * dt * V
    ab[1, 0] = 1.0 + 3.0 * c - 2.0 * dt * V[0]
    ab[1, -1] = 1.0 + 3.0 * c - 2.0 * dt * V[-1]
    ab[2, :] = -c
    u = solve_banded((1, 1), ab, state.u)
    np.clip(u, 0.0, None, out=u)
    return _banded_state(grid, u)


def rayleigh_el_residual(state: PekarState) -> float:
    """el_residual with the Hartree potential recomputed from u and mu
    recomputed as the Rayleigh quotient 4 pi h sum u (r H phi)."""
    grid, u = state.grid, state.u
    ball = 4.0 * math.pi * grid.uniform_spacing
    V = hartree_potential(grid, u**2)
    rh = -_laplacian_u(u, grid.uniform_spacing) - 2.0 * V * u
    mu = ball * float(np.dot(rh, u))
    defect = rh - mu * u
    return math.sqrt(ball * float(np.dot(defect, defect)))


def solve_pekar_banded(
    grid: RadialGrid, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> PekarState:
    """solve_pekar's descent loop on the banded step: the same schedule
    (DEFAULT_DT, CHECK_EVERY and accepted_step's rejection rule, read from
    pekar) from the same Gaussian, each Hartree potential recomputed where
    it is read."""
    r = grid.nodes
    state = _banded_state(grid, r * np.exp(-(r**2) / (2.0 * GAUSSIAN_SIGMA_STAR**2)))
    dt = pekar.DEFAULT_DT
    for it in range(1, max_iter + 1):
        new = pekar.accepted_step(_banded_step, state, dt)
        if new is None:
            dt *= 0.5
            if dt < 1e-12:
                break
            continue
        state = new
        if it % pekar.CHECK_EVERY == 0 and rayleigh_el_residual(state) <= tol:
            return state
    if rayleigh_el_residual(state) <= tol:
        return state
    raise AssertionError("the banded descent did not converge")


# ---------------------------------------------------------------- energy


def scaling_lambda(d: Dispersion, t: PolarizationTable) -> float:
    """Reciprocal length scale lambda^{-1} = alpha * b(0) * m / g1'(0)^2.

    Zero at alpha = 0 (no screening, no binding scale).
    """
    m, g1p, alpha, b0, _ = _ingredients(d, t)
    return alpha * b0 * m / g1p**2


def predicted_ground_energy(d: Dispersion, t: PolarizationTable, E_CP: float) -> float:
    """m + C0^{-2} * E_CP; warns when E_CP >= 0 (no binding predicted)."""
    m, _, _, _, c0sq = _ingredients(d, t)
    if E_CP >= 0:
        warnings.warn("E_CP >= 0: no binding predicted", stacklevel=2)
    if math.isinf(c0sq):
        return m
    return m + E_CP / c0sq


# ---------------------------------------------------------------- cli


def config_to_ini(cfg: RunConfig) -> str:
    """Serialize back to INI text; load_config(parse of this) == cfg.

    [model] carries L instead of cutoff when the cutoff was derived from L.
    """
    derived = {("model", "cutoff")} if cfg.model.L is not None else set()
    lines = []
    for section in fields(cfg):
        part = getattr(cfg, section.name)
        lines.append(f"[{section.name}]")
        for spec in fields(part):
            value = getattr(part, spec.name)
            if value is None or (section.name, spec.name) in derived:
                continue
            text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            lines.append(f"{spec.name} = {text}")
        lines.append("")
    return "\n".join(lines)
