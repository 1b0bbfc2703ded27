"""Self-consistent dressed Dirac dispersion on a radial momentum grid.

The dressed symbol is determined by two radial profiles g0, g1 satisfying

    g0(p) = 1 + a/(4 pi^2) * int_{|r|<Cut} dr g0(|r|) / (|p-r|^2 Et(|r|)),
    g1(p) = p + a/(4 pi^2) * int_{|r|<Cut} dr <w_p, w_r> g1(|r|) / (|p-r|^2 Et(|r|)),

with Et = sqrt(g0^2 + g1^2).  After the angular integrals the 3-d
convolutions reduce to 1-d kernels with an integrable log singularity at
s = p; those are handled by the graded rules in numerics.  The net
prefactor is a/(4 pi^2) times the 2 pi from the azimuthal integration,
i.e. a/(2 pi) -- applied exactly once, in scf_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .numerics import (
    FixedPointReport,
    InvalidParameterError,
    OutOfRangeError,
    RadialGrid,
    _distance_panels,
    fixed_point_solve,
    interp,
    make_grid,
)

ALPHA_REGIME_LIMIT = 4.0 / math.pi

DEFAULT_N_NODES = 512
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs: coupling alpha and ultraviolet cutoff."""

    alpha: float
    cutoff: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidParameterError(f"alpha must be >= 0, got {self.alpha}")
        if self.cutoff <= 1:
            raise InvalidParameterError(f"cutoff must exceed 1, got {self.cutoff}")

    @property
    def L(self) -> float:
        """Coupling-cutoff regime parameter alpha * log(cutoff)."""
        return self.alpha * math.log(self.cutoff)

    @property
    def regime_warning(self) -> bool:
        """True when alpha is at or above 4/pi, outside the model's regime."""
        return self.alpha >= ALPHA_REGIME_LIMIT

    @classmethod
    def from_L(cls, alpha: float, L: float) -> "ModelParams":
        if alpha <= 0:
            raise InvalidParameterError("alpha must be positive to derive the cutoff from L")
        return cls(alpha=alpha, cutoff=math.exp(L / alpha))


@dataclass(frozen=True)
class Dispersion:
    """Sampled dressed dispersion profiles on a momentum grid."""

    params: ModelParams
    grid: RadialGrid
    g0: np.ndarray
    g1: np.ndarray
    report: FixedPointReport

    @property
    def e_tilde_samples(self) -> np.ndarray:
        return np.hypot(self.g0, self.g1)

    @cached_property
    def interpolant(self) -> PchipInterpolator:
        """Monotone cubic interpolant of (g0, g1): evaluated at p it returns
        an array of shape p.shape + (2,), g0 in [..., 0] and g1 in [..., 1].

        Built on first use and kept: the instance is frozen and replace()
        makes a new one, so the cache follows the profiles.  It extrapolates
        beyond the grid; callers guard their own range.
        """
        return PchipInterpolator(
            self.grid.nodes, np.column_stack([self.g0, self.g1]), extrapolate=True
        )


def free_dispersion(params: ModelParams, grid: RadialGrid) -> Dispersion:
    """Undressed profiles g0 = 1, g1(p) = p (exact at alpha = 0)."""
    if grid.cutoff != params.cutoff:
        raise InvalidParameterError(
            f"grid cutoff {grid.cutoff} does not match params cutoff {params.cutoff}"
        )
    report = FixedPointReport(True, 0, [], 0.0)
    return Dispersion(params, grid, np.ones_like(grid.nodes), grid.nodes.copy(), report)


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


def _k1_bracket_series(t):
    """(1+t^2) atanh(t)/t - 1 for t in [0, 1), stable as t -> 0.

    This is the K1 angular factor with the kernel scale stripped off:
    K1(p,s) = (2 pi s / p) * bracket(min(p,s)/max(p,s)).
    """
    t2 = t * t
    acc = np.zeros_like(t)
    # sum_{k>=1} 4k/(4k^2-1) t^{2k}; truncation error < t^{2K} for t <= 1/2
    for k in range(26, 0, -1):
        acc = (acc + 4.0 * k / (4.0 * k * k - 1.0)) * t2
    return acc


class KernelRules:
    """Precomputed singular quadrature for every grid node.

    The rules depend on the grid only, so one instance serves the whole
    self-consistent iteration.  For node p_i, S[i] holds the quadrature
    abscissae; WK0[i] carries the full K0 weight s*ln((p+s)/|p-s|) and
    WK1[i] the full K1 weight s*bracket(p,s), both times the plain Gauss
    weight.  Everything singular or cancellation-prone is evaluated in the
    distance u = |s - p|, never by subtracting nearly equal integrals.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        S_rows, K0_rows, K1_rows = [], [], []
        for p in grid.nodes:
            u_l, w_l = _distance_panels(p)
            u_r, w_r = _distance_panels(grid.cutoff - p)
            s = np.concatenate([p - u_l, p + u_r])
            u = np.concatenate([u_l, u_r])
            w = np.concatenate([w_l, w_r])
            logf = np.log((p + s) / u)
            t = np.minimum(p, s) / np.maximum(p, s)
            sym = (p * p + s * s) / (2.0 * p * s)
            brack = np.where(t <= 0.5, _k1_bracket_series(np.minimum(t, 0.5)), sym * logf - 1.0)
            S_rows.append(s)
            K0_rows.append(w * s * logf)
            K1_rows.append(w * s * brack)
        self.S = np.vstack(S_rows)
        self.WK0 = np.vstack(K0_rows)
        self.WK1 = np.vstack(K1_rows)


def scf_step(d: Dispersion, rules: KernelRules | None = None) -> Dispersion:
    """One application of the self-consistency map to (g0, g1).

    Both integrands are nonnegative, so the output automatically satisfies
    g0 >= 1 and g1(p) >= p.
    """
    alpha = d.params.alpha
    if alpha == 0.0:
        return d
    if rules is None or rules.grid is not d.grid:
        rules = KernelRules(d.grid)
    p = d.grid.nodes
    et = d.e_tilde_samples
    f0 = d.g0 / et
    f1 = d.g1 / et
    F0 = PchipInterpolator(p, f0, extrapolate=True)(rules.S)
    F1 = PchipInterpolator(p, f1, extrapolate=True)(rules.S)
    i0 = np.einsum("ij,ij->i", F0, rules.WK0)
    i1 = np.einsum("ij,ij->i", F1, rules.WK1)
    # net prefactor alpha/(4 pi^2) * 2 pi / p, applied exactly once
    pref = alpha / (2.0 * math.pi) / p
    g0_new = 1.0 + pref * i0
    g1_new = p + pref * i1
    return replace(d, g0=g0_new, g1=g1_new)


def _scf_norm(nodes: np.ndarray):
    """Convergence metric: sup|dg0| and sup|dg1|/max(p, 0.1).

    The relative metric for g1 degenerates at p -> 0, hence the floor.
    """
    denom = np.maximum(nodes, 0.1)

    def norm(delta):
        n = nodes.size
        return float(max(np.max(np.abs(delta[:n])), np.max(np.abs(delta[n:]) / denom)))

    return norm


def solve_dispersion(
    params: ModelParams,
    grid: RadialGrid | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = 1.0,
) -> Dispersion:
    """Solve the self-consistent equations for (g0, g1) by damped Picard
    iteration; raises FixedPointError with the report on non-convergence."""
    if grid is None:
        grid = make_grid(params.cutoff, DEFAULT_N_NODES, "geometric")
    d0 = free_dispersion(params, grid)
    if params.alpha == 0.0:
        _, report = fixed_point_solve(lambda y: y, _pack(d0), tol, max_iter)
        return replace(d0, report=report)
    rules = KernelRules(grid)

    def step(y):
        return _pack(scf_step(_unpack(d0, y), rules))

    y, report = fixed_point_solve(
        step, _pack(d0), tol, max_iter, damping=damping, norm=_scf_norm(grid.nodes)
    )
    return replace(_unpack(d0, y), report=report)


def _pack(d: Dispersion) -> np.ndarray:
    return np.concatenate([d.g0, d.g1])


def _unpack(template: Dispersion, y: np.ndarray) -> Dispersion:
    n = template.grid.n_points
    return replace(template, g0=y[:n], g1=y[n:])


def e_tilde(d: Dispersion, p) -> float:
    """Modulus of the dressed symbol at momentum p."""
    if np.any(np.asarray(p) < 0) or np.any(np.asarray(p) > d.grid.cutoff):
        raise OutOfRangeError(f"p={p} outside [0, {d.grid.cutoff}]")
    return np.hypot(interp(d.grid, d.g0, p), interp(d.grid, d.g1, p))


def m_alpha(d: Dispersion) -> float:
    """Effective rest energy g0(0), extrapolated to the origin."""
    return float(interp(d.grid, d.g0, 0.0))


def _require_fine_origin(d: Dispersion):
    if np.count_nonzero(d.grid.nodes < d.grid.cutoff / 100.0) < 4:
        raise InvalidParameterError(
            "grid too coarse near p=0 for derivative extraction "
            "(need >= 4 nodes below cutoff/100; use geometric clustering)"
        )


def g1_prime(d: Dispersion, p) -> float | np.ndarray:
    """d g1 / dp by centered finite differences on the grid."""
    _require_fine_origin(d)
    deriv = np.gradient(d.g1, d.grid.nodes)
    return interp(d.grid, deriv, p)


def g1_prime_zero(d: Dispersion) -> float:
    """Slope of g1 at the origin via a one-sided second-order stencil over
    the three smallest nodes (g1 extends continuously with g1(0) = 0)."""
    _require_fine_origin(d)
    x = d.grid.nodes[:3]
    y = d.g1[:3]
    # derivative at 0 of the quadratic through the three points
    c = np.polyfit(x, y, 2)
    return float(c[1])


def g0_prime_zero(d: Dispersion) -> float:
    """Slope of g0 at the origin via the same one-sided stencil as
    g1_prime_zero; vanishes for the smooth radial profile."""
    _require_fine_origin(d)
    c = np.polyfit(d.grid.nodes[:3], d.g0[:3], 2)
    return float(c[1])


def g0_derivatives(d: Dispersion) -> tuple[np.ndarray, np.ndarray]:
    """(g0', g0'') sampled at the grid nodes, by repeated centered
    differences."""
    _require_fine_origin(d)
    d1 = np.gradient(d.g0, d.grid.nodes)
    d2 = np.gradient(d1, d.grid.nodes)
    return d1, d2


@dataclass(frozen=True)
class AsymptoticsEntry:
    name: str
    measured: float
    predicted: float
    rel_deviation: float


@dataclass(frozen=True)
class AsymptoticsReport:
    params: ModelParams
    entries: tuple[AsymptoticsEntry, ...]

    def __getitem__(self, name: str) -> AsymptoticsEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "cutoff": self.params.cutoff,
            "L": self.params.L,
            "entries": [
                {
                    "name": e.name,
                    "measured": e.measured,
                    "predicted": e.predicted,
                    "rel_deviation": e.rel_deviation,
                }
                for e in self.entries
            ],
        }


def check_asymptotics(d: Dispersion) -> AsymptoticsReport:
    """Compare the solved profiles against their small-L expansions:
    m = 1 + L/pi, g1'(0) = 1 + 2L/(3 pi), and the O(alpha) bounds on the
    g0 derivatives (reported as measured sup-norm over alpha)."""
    params = d.params
    L = params.L
    m = m_alpha(d)
    g1p0 = g1_prime_zero(d)
    d1, d2 = g0_derivatives(d)
    alpha = params.alpha

    def rel(measured, predicted):
        if predicted == measured:
            return 0.0
        scale = max(abs(predicted), 1e-300)
        return abs(measured - predicted) / scale

    m_pred = 1.0 + L / math.pi
    g1p_pred = 1.0 + 2.0 * L / (3.0 * math.pi)
    sup_d1 = float(np.max(np.abs(d1)))
    sup_d2 = float(np.max(np.abs(d2)))
    ratio1 = sup_d1 / alpha if alpha > 0 else 0.0
    ratio2 = sup_d2 / alpha if alpha > 0 else 0.0
    entries = (
        AsymptoticsEntry("m_alpha", m, m_pred, rel(m, m_pred)),
        AsymptoticsEntry("g1_prime_zero", g1p0, g1p_pred, rel(g1p0, g1p_pred)),
        AsymptoticsEntry("sup_g0_prime_over_alpha", ratio1, 0.0, ratio1),
        AsymptoticsEntry("sup_g0_second_over_alpha", ratio2, 0.0, ratio2),
    )
    return AsymptoticsReport(params, entries)


def dispersion_to_csv(d: Dispersion, path):
    """Write p, g0, g1, e_tilde (17 significant digits, one row per node)."""
    et = d.e_tilde_samples
    with open(path, "w") as fh:
        fh.write("p,g0,g1,e_tilde\n")
        for p, a, b, c in zip(d.grid.nodes, d.g0, d.g1, et):
            fh.write(f"{p:.17g},{a:.17g},{b:.17g},{c:.17g}\n")
