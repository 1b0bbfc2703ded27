"""Self-consistent dressed Dirac dispersion on a radial momentum grid.

The dressed symbol is determined by two radial profiles g0, g1 satisfying

    g0(p) = 1 + a/(4 pi^2) * int_{|r|<Cut} dr g0(|r|) / (|p-r|^2 Et(|r|)),
    g1(p) = p + a/(4 pi^2) * int_{|r|<Cut} dr <w_p, w_r> g1(|r|) / (|p-r|^2 Et(|r|)),

with Et = sqrt(g0^2 + g1^2).  After the angular integrals the 3-d
convolutions reduce to 1-d kernels with an integrable log singularity at
s = p; those are handled by the graded rules in numerics.  The integrands
g/Et between nodes come from the monotone cubic (PCHIP) interpolant of
their node samples, whose value at a fixed point is linear in the node
samples and the PCHIP node slopes.  KernelRules folds that interpolation
into the quadrature weights once per grid, so an iteration is one slope
pass and one sparse mat-vec per profile.  The net prefactor is a/(4 pi^2)
times the 2 pi from the azimuthal integration, i.e. a/(2 pi) -- applied
exactly once, in scf_step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.sparse import csr_array

from .numerics import (
    FixedPointReport,
    InvalidParameterError,
    RadialGrid,
    _distance_panels,
    fixed_point_solve,
    write_csv,
)

ALPHA_REGIME_LIMIT = 4.0 / math.pi

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs: coupling alpha and ultraviolet cutoff."""

    alpha: float
    cutoff: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 1):
            raise InvalidParameterError(f"cutoff must be finite and exceed 1, got {self.cutoff}")

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
        if not alpha > 0:
            raise InvalidParameterError("alpha must be positive to derive the cutoff from L")
        try:
            cutoff = math.exp(L / alpha)
        except OverflowError:
            raise InvalidParameterError(f"cutoff exp({L / alpha:g}) overflows a float") from None
        return cls(alpha=alpha, cutoff=cutoff)


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


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of PchipInterpolator(x, y) for 1-d y on n >= 3 nodes.

    The same operations as scipy's PchipInterpolator._find_derivatives and
    _edge_case (Fritsch-Butland weighted harmonic mean inside, Moler's
    one-sided three-point end slopes), so the result agrees to the bit.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    dk = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk[1:-1][~flat] = 1.0 / whmean[~flat]
    dk[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return dk


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


# grid nodes whose rules are built and folded in one array pass
_RULE_BLOCK = 64


class KernelRules:
    """The singular quadrature of every grid node, folded with the PCHIP.

    The rules depend on the grid only, so one instance serves the whole
    self-consistent iteration.  Node p carries the dyadic rule of
    numerics._distance_panels on each side of s = p, with the full K0
    weight s*ln((p+s)/|p-s|) and the full K1 weight s*bracket(p,s) times
    the plain Gauss weight.  Everything singular or cancellation-prone is
    evaluated in the distance u = |s - p|, never by subtracting nearly
    equal integrals.

    The integrand at an abscissa s is the cubic Hermite form on the PCHIP
    interval of s (the first or last one outside the nodes, where it
    extrapolates), linear in the two end samples and the two end slopes.
    Summing weight times Hermite basis per column gives A0 and A1, sparse
    (n, 2n) operators with (A0 @ [f, slopes(f)])[i] the K0 integral of
    the interpolant of f at node i, and A1 likewise for K1.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        x = grid.nodes
        n = x.size
        width = 2 * n
        values0, values1, columns, counts = [], [], [], []
        for lo in range(0, n, _RULE_BLOCK):
            p = x[lo : lo + _RULE_BLOCK, None]
            u_l, w_l = _distance_panels(p)
            u_r, w_r = _distance_panels(grid.cutoff - p)
            s = np.concatenate([p - u_l, p + u_r], axis=1)
            u = np.concatenate([u_l, u_r], axis=1)
            w = np.concatenate([w_l, w_r], axis=1)
            logf = np.log((p + s) / u)
            t = np.minimum(p, s) / np.maximum(p, s)
            sym = (p * p + s * s) / (2.0 * p * s)
            brack = sym * logf - 1.0
            near = t <= 0.5
            brack[near] = _k1_bracket_series(t[near])

            # interval of each abscissa, clipped so the end cubics extrapolate
            k = np.clip(np.searchsorted(x, s, side="right") - 1, 0, n - 2)
            h = x[k + 1] - x[k]
            tau = (s - x[k]) / h
            rest = 1.0 - tau
            basis = np.stack(
                [
                    (1.0 + 2.0 * tau) * rest * rest,
                    tau * tau * (3.0 - 2.0 * tau),
                    h * tau * rest * rest,
                    -h * tau * tau * rest,
                ],
                axis=-1,
            )
            # sum weight x basis into a dense block of rows; A0 and A1 share
            # the pattern of touched columns, taken from a boolean mask
            # because flatnonzero scans it several times faster than floats
            rows = p.shape[0]
            cols = np.stack([k, k + 1, n + k, n + k + 1], axis=-1)
            pos = (np.arange(rows)[:, None, None] * width + cols).ravel()
            touched = np.zeros(rows * width, dtype=bool)
            touched[pos] = True
            nz = np.flatnonzero(touched)
            for values, wk in ((values0, w * s * logf), (values1, w * s * brack)):
                dense = np.bincount(pos, (wk[..., None] * basis).ravel(), rows * width)
                values.append(dense[nz])
            columns.append(nz % width)
            counts.append(np.bincount(nz // width, minlength=rows))
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
        indptr = indptr.astype(index)
        indices = np.concatenate(columns).astype(index)
        self.A0 = csr_array((np.concatenate(values0), indices, indptr), shape=(n, width))
        self.A1 = csr_array((np.concatenate(values1), indices, indptr), shape=(n, width))


def scf_step(d: Dispersion, rules: KernelRules) -> Dispersion:
    """One application of the self-consistency map to (g0, g1).

    Each integral is the folded operator of KernelRules applied to the node
    samples of g/Et and their PCHIP slopes.  Both exact integrands are
    nonnegative, so the exact map gives g0 >= 1 and p <= g1 <= p g0; the
    folded rows carry signed Hermite weights, so in floating point these
    bounds hold to rounding, which the tests check up to strong coupling.
    At alpha = 0 the map is the identity and the rules are not read.
    """
    alpha = d.params.alpha
    if alpha == 0.0:
        return d
    if rules.grid is not d.grid:
        raise InvalidParameterError("kernel rules were built on another grid")
    p = d.grid.nodes
    et = d.e_tilde_samples
    f0 = d.g0 / et
    f1 = d.g1 / et
    i0 = rules.A0 @ np.concatenate([f0, _pchip_slopes(p, f0)])
    i1 = rules.A1 @ np.concatenate([f1, _pchip_slopes(p, f1)])
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
    grid: RadialGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Dispersion:
    """Solve the self-consistent equations for (g0, g1) by damped Picard
    iteration; raises FixedPointError with the report on non-convergence."""
    d0 = free_dispersion(params, grid)
    if params.alpha == 0.0:
        _, report = fixed_point_solve(lambda y: y, _pack(d0), tol, max_iter)
        return replace(d0, report=report)
    rules = KernelRules(grid)

    def step(y):
        return _pack(scf_step(_unpack(d0, y), rules))

    y, report = fixed_point_solve(step, _pack(d0), tol, max_iter, norm=_scf_norm(grid.nodes))
    return replace(_unpack(d0, y), report=report)


def _pack(d: Dispersion) -> np.ndarray:
    return np.concatenate([d.g0, d.g1])


def _unpack(template: Dispersion, y: np.ndarray) -> Dispersion:
    n = template.grid.n_points
    return replace(template, g0=y[:n], g1=y[n:])


def m_alpha(d: Dispersion) -> float:
    """Effective rest energy g0(0), extrapolated to the origin."""
    return float(d.interpolant(0.0)[0])


def _require_fine_origin(d: Dispersion):
    if np.count_nonzero(d.grid.nodes < d.grid.cutoff / 100.0) < 4:
        raise InvalidParameterError(
            "grid too coarse near p=0 for derivative extraction "
            "(need >= 4 nodes below cutoff/100; use geometric clustering)"
        )


def g1_prime_zero(d: Dispersion) -> float:
    """Slope of g1 at the origin via a one-sided second-order stencil over
    the three smallest nodes (g1 extends continuously with g1(0) = 0)."""
    _require_fine_origin(d)
    x = d.grid.nodes[:3]
    y = d.g1[:3]
    # derivative at 0 of the quadratic through the three points
    c = np.polyfit(x, y, 2)
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
        params = self.params
        entries = [asdict(e) for e in self.entries]
        return {"alpha": params.alpha, "cutoff": params.cutoff, "L": params.L, "entries": entries}


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
    write_csv(path, ("p", "g0", "g1", "e_tilde"), (d.grid.nodes, d.g0, d.g1, d.e_tilde_samples))
