"""Self-consistent dressed Dirac dispersion on a radial momentum grid.

The dressed symbol is determined by two radial profiles g0, g1 satisfying

    g0(p) = 1 + a/(4 pi^2) * int_{|r|<Cut} dr g0(|r|) / (|p-r|^2 Et(|r|)),
    g1(p) = p + a/(4 pi^2) * int_{|r|<Cut} dr <w_p, w_r> g1(|r|) / (|p-r|^2 Et(|r|)),

with Et = sqrt(g0^2 + g1^2).  After the angular integrals the 3-d
convolutions reduce to 1-d kernels K0, K1 with an integrable log
singularity at s = p.  The integrands g/Et between nodes come from the
monotone cubic (PCHIP) interpolant of their node samples, one cubic per
grid interval, and KernelRules integrates each kernel against each
interval's cubic Hermite basis exactly to rounding: 8-point Gauss panels
graded toward s = p in half octaves, closed by a product rule for the
log where p is an end.  On the geometric grid both kernels are
homogeneous of degree 1, so the interval integrals of every row but the
first are one template per kernel, scaled by p^2 and shifted: a Toeplitz
operator, applied by FFT, plus a few pieces off the geometric ladder
integrated per row.  An iteration is one slope pass over both profiles
and one FFT correlation.  The net prefactor is a/(4 pi^2) times the 2 pi from
the azimuthal integration, i.e. a/(2 pi) -- applied exactly once, in
scf_step.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .numerics import (
    FixedPointReport,
    InvalidParameterError,
    RadialGrid,
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
    """Sampled dressed dispersion profiles on a momentum grid.

    rules is the KernelRules that solve_dispersion iterated on, None for
    free profiles: it is held only so that a rule lives as long as some
    result solved with it.
    """

    params: ModelParams
    grid: RadialGrid
    g0: np.ndarray
    g1: np.ndarray
    report: FixedPointReport
    rules: KernelRules | None = field(default=None, repr=False, compare=False)

    @property
    def e_tilde_samples(self) -> np.ndarray:
        return np.hypot(self.g0, self.g1)

    @cached_property
    def interpolant(self) -> ProfileSpline:
        """Monotone cubic interpolant of (g0, g1): the ProfileSpline on the
        _pchip_slopes node slopes the SCF operators use.  At p it returns
        shape (2,) + p.shape, g0 in [0] and g1 in [1].

        Built on first use and kept: the instance is frozen and replace()
        makes a new one, so the cache follows the profiles.  It extrapolates
        beyond the grid; callers guard their own range.
        """
        return ProfileSpline(self.grid.nodes, (self.g0, self.g1))


def free_dispersion(params: ModelParams, grid: RadialGrid) -> Dispersion:
    """Undressed profiles g0 = 1, g1(p) = p (exact at alpha = 0)."""
    if grid.cutoff != params.cutoff:
        raise InvalidParameterError(
            f"grid cutoff {grid.cutoff} does not match params cutoff {params.cutoff}"
        )
    report = FixedPointReport(True, 0, [], 0.0)
    return Dispersion(params, grid, np.ones_like(grid.nodes), grid.nodes.copy(), report)


# sum_{k>=1} 4k/(4k^2-1) t^{2k}, the K1 bracket below t = 1/2, to 26 terms
_BRACKET_COEF = [4.0 * k / (4.0 * k * k - 1.0) for k in range(1, 27)]


def _k1_bracket_series(t):
    """(1+t^2) atanh(t)/t - 1 for t in [0, 1/2], stable as t -> 0.

    This is the K1 angular factor with the kernel scale stripped off:
    K1(p,s) = (2 pi s / p) * bracket(min(p,s)/max(p,s)).  The series is
    summed by Horner's rule from its last term; 26 terms leave an error
    below t^52.
    """
    t2 = t * t
    acc = _BRACKET_COEF[-1] * t2
    for coef in _BRACKET_COEF[-2::-1]:
        acc += coef
        acc *= t2
    return acc


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PCHIP node slopes of y on n >= 3 nodes x, along y's last axis, so
    that stacked profiles (..., n) take one call: the package's one PCHIP
    slope routine, read by the SCF operators and Dispersion.interpolant.

    The same operations as scipy's PchipInterpolator._find_derivatives and
    _edge_case (Fritsch-Butland weighted harmonic mean inside, Moler's
    one-sided three-point end slopes), so each row agrees to the bit; the
    tests keep scipy's PchipInterpolator as the oracle.  Where the
    harmonic mean overflows float64, for a secant slope under about
    3 h/1.8e308 (that of g0/Et ~ 1/p from nodes near 1e103), the slope
    would read 0, so it raises InvalidParameterError instead.
    """
    h = x[1:] - x[:-1]
    m = (y[..., 1:] - y[..., :-1]) / h
    sm = np.sign(m)
    flat = (sm[..., 1:] != sm[..., :-1]) | (m[..., 1:] == 0) | (m[..., :-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    dk = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[..., :-1] + w2 / m[..., 1:]) / (w1 + w2)
        np.divide(1.0, whmean, out=dk[..., 1:-1], where=~flat)
    if np.any(np.isinf(whmean), where=~flat):
        raise InvalidParameterError(f"PCHIP slopes on nodes up to {x[-1]:.3g} overflow float64")
    # both ends at once, each from its own end inward
    ends = [0, -1]
    dk[..., ends] = _pchip_end_slopes(h[ends], h[[1, -2]], m[..., ends], m[..., [1, -2]])
    return dk


def _pchip_end_slopes(h0, h1, m0, m1):
    """The one-sided three-point end slopes d from the end intervals' widths
    h0, h1 and secants m0, m1: 0 where d's sign is not m0's, else 3 m0
    where m0 and m1 differ in sign and |d| exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    d = np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)
    return np.where(wrong_sign, 0.0, d)


# largest relative distance of nodes[1:] from a geometric ladder
_LADDER_RTOL = 1e-12


def _ladder_log_ratio(x: np.ndarray) -> float:
    """ln q of the ladder x_k = x_1 q**(k-1), k >= 1, that the nodes from
    the second on follow within _LADDER_RTOL, the grid KernelRules and
    ProfileSpline need; InvalidParameterError where they do not."""
    log_q = (math.log(x[-1]) - math.log(x[1])) / (x.size - 2)
    ladder = x[1] * np.exp(log_q * np.arange(x.size - 1))
    if not np.all(np.abs(x[1:] - ladder) <= _LADDER_RTOL * x[1:]):
        raise InvalidParameterError(
            "the momentum grid needs nodes[1:] in geometric progression, "
            f"x_k = x_1 q**(k-1) within {_LADDER_RTOL:g} relative"
        )
    return log_q


class ProfileSpline:
    """The cubic Hermite spline of profiles on their PCHIP node slopes, on
    a grid geometric from its second node.  At p it returns shape
    (len(profiles),) + p.shape, each profile contiguous, and derivative(p)
    their first derivatives, both scipy's to the bit: the coefficients are
    CubicHermiteSpline's, each point takes scipy's interval (x_i <= p <
    x_{i+1}, the last one closed, the end ones extrapolated), and the
    powers of s = p - x_i are summed in scipy's order.  The interval comes
    in closed form from the ladder x_k = x_1 q**(k-1), as
    floor(ln(p/x_1)/ln(q)) + 1 clipped to the intervals, then moves one
    step either way against the nodes where rounding put it off by one.
    A NaN p gives NaN, and where the cubics leave float64 they give inf or
    NaN, as scipy's do, without a warning.
    """

    def __init__(self, x: np.ndarray, profiles):
        log_q = _ladder_log_ratio(x)
        self.x = x
        y = np.stack(profiles)
        spline = CubicHermiteSpline(x, y.T, _pchip_slopes(x, y).T)
        # powers 3 to 0, then profile, then interval: one take gathers
        # every coefficient a point needs, profile-major
        self._c = np.ascontiguousarray(spline.c.transpose(0, 2, 1))
        self._top = x.size - 2
        # floor(ln(p/x_1)/ln q) + 1 as ln(p) times 1/ln q plus an offset
        self._inv_log_q = 1.0 / log_q
        self._offset = 1.0 - math.log(x[1]) * self._inv_log_q
        # each interval's bounds for the correction, open to -inf below
        # the first, and no point moves past the last (NaN compares false)
        self._lo = np.concatenate([[-np.inf], x[1:-1]])
        self._hi = np.concatenate([x[1:-1], [np.nan]])

    def interval(self, p) -> np.ndarray:
        """scipy's interval of each point, clip(searchsorted(x, p, "right")
        - 1, 0, n - 2), with 0 for NaN."""
        p = np.asarray(p, dtype=float)
        t = np.empty(p.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(p, out=t)
        t *= self._inv_log_q
        t += self._offset
        np.fmax(t, 0.0, out=t)
        np.fmin(t, self._top, out=t)
        i = t.astype(np.intp)
        i -= p < self._lo.take(i)
        i += p >= self._hi.take(i)
        return i

    def _local(self, p):
        """Each point's offset s = p - x_i in its interval i, and the
        interval's coefficients, shape (4, profiles) + p.shape."""
        i = self.interval(p)
        return p - self.x.take(i), self._c.take(i, axis=-1)

    def __call__(self, p) -> np.ndarray:
        """The profiles at p, ((a0 + a1 s) + a2 s^2) + a3 s^3 with s^3 as
        (s s) s."""
        s, (a3, a2, a1, a0) = self._local(p)
        with np.errstate(all="ignore"):
            a1 *= s
            a1 += a0
            s2 = s * s
            a2 *= s2
            a1 += a2
            s2 *= s
            a3 *= s2
            a1 += a3
        return a1

    def derivative(self, p) -> np.ndarray:
        """The profiles' first derivatives at p, (a1 + (a2 s) 2) + (a3 s^2) 3."""
        s, (a3, a2, a1, _) = self._local(p)
        with np.errstate(all="ignore"):
            a2 *= s
            a2 *= 2.0
            a2 += a1
            a3 *= s * s
            a3 *= 3.0
            a2 += a3
        return a2


# growth exponent e of each kernel's symbol: K(1, s) tends to 2 (K0) and to
# 0 like 1/s (K1) as s grows, so its interval integrals grow like q**(e m)
_GROWTH = np.array([1.0, 0.0])


# the cubic Hermite basis in powers of tau: the values at the left and right
# ends, then the slopes times the width, one column each
_HERMITE = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [-3.0, 3.0, -2.0, -1.0], [2.0, -2.0, 1.0, 1.0]]
)


# 8-point Gauss-Legendre on [0, 1], the rule of every panel of
# _graded_panels, and the weights _LOG_W on its points that integrate
# v**q * -ln(v) exactly for q <= 7 (the moment is 1/(q+1)**2)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
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


def _graded_depth(p, a, b):
    """Each piece [a, b]'s graded depth toward the singular point p at or
    beyond one of its ends: the smallest J >= 0 with (b - a)*2**-J no
    larger than its room, a quarter of p's distance from that end, or of p
    where p is the end.  _graded_panels gives the piece 1 + 2J columns."""
    delta = np.abs(np.where(p <= a, a, b) - p)
    room = np.where(delta == 0, p, delta) / 4
    width = b - a
    depth = np.maximum(np.ceil(np.log2(width / room)), 0.0).astype(int)
    depth += np.ldexp(width, -depth) > room
    return depth


def _graded_panels(width, depth, log_end):
    """8-point Gauss panels on pieces [0, width] in the distance r from
    their end nearest a log-singular point, graded toward that end.

    A piece of depth J (from _graded_depth) has its last panel [0, g],
    g = width*2**-J, and [g, width] splits into 2J half octaves
    [lo, sqrt(2) lo].  Where log_end, the singular point is the end
    itself: at r = g*v, ln(R/r) = ln(R/g) - ln(v) puts the smooth
    part on the Gauss weights and -ln(v) on g*_LOG_W, exact for -ln(v)
    times any polynomial of degree 7.

    width, depth and log_end are arrays over the pieces.  Returns (piece,
    r, w, c), point-major, one column per panel, piece naming each column's
    piece: first the [0, g] panels, one per piece in piece order, then the
    half octaves, sorted by piece.  c = g*(_LOG_W + _NEAR_W ln v) has one
    column per log_end piece: the integral of F(r) ln(R(r)/r) over a piece
    is the sum of w F ln(R/r) over its points, plus c F over its [0, g]
    panel's where log_end.
    """
    g = np.ldexp(width, -depth)
    # half octave k of a piece starts at lo = width*2**(-(k+1)/2)
    halves = 2 * depth
    half = np.repeat(np.arange(width.size), halves)
    k = np.arange(half.size) - np.repeat(np.cumsum(halves) - halves, halves)
    lo = width[half] * np.exp2(-0.5 * (k + 1))
    span = np.concatenate([g, (math.sqrt(2.0) - 1.0) * lo])
    r = _NEAR_V[:, None] * span
    r[:, width.size :] += lo
    c = (_LOG_W + _NEAR_W * np.log(_NEAR_V))[:, None] * g[log_end]
    return np.concatenate([np.arange(width.size), half]), r, _NEAR_W[:, None] * span, c


def _kernel_rule(p, a, b, depth):
    """Points and K0, K1 weights that integrate K(p, s) F(s) over the
    pieces [a, b] exactly for F a cubic, to rounding.

    The singular point p lies at or beyond an end of each piece, and
    _graded_panels grades each piece toward p to its _graded_depth, depth,
    so that its last panel is no wider than a quarter of its distance from
    p, or, when p is an end, than p/4, which keeps ln(p + s) smooth on the
    product rule's panel.
    K0 = s*ln((p+s)/|p-s|) and K1 = s*bracket(p, s) take the log as
    log1p(2 min(p,s)/u) of the distance u = |s - p|, never by subtracting
    nearly equal numbers, and the bracket takes its series up to
    min/max = t = 1/2 and (1+t^2)/(2t) times the log above.  p, a, b and
    depth broadcast to one array of pieces.

    Returns (piece, s, weights) in _graded_panels' layout, weights of shape
    (2,) + s.shape.
    """
    p, a, b, depth = (np.ravel(v) for v in np.broadcast_arrays(p, a, b, depth))
    right = p <= a
    near = np.where(right, a, b)
    delta = np.abs(near - p)
    log_end = delta == 0
    sign = np.where(right, 1.0, -1.0)
    piece, r, w, c = _graded_panels(b - a, depth, log_end)
    # each piece's scalars broadcast as one row over its columns' points
    ps = p[piece]
    s = r * sign[piece]
    s += near[piece]
    low = np.minimum(s, ps)
    t = low / np.maximum(s, ps)
    logf = np.log1p(2.0 * low / (r + delta[piece]))
    brack = _k1_bracket_series(t)
    close = t > 0.5
    tc = t[close]
    brack[close] = 0.5 * (tc + 1.0 / tc) * logf[close] - 1.0
    w *= s
    weights = np.stack([w * logf, w * brack])
    # the product rule's -ln(v) part, on the [0, g] panels of the pieces
    # that end at p
    ends = np.flatnonzero(log_end)
    sc = s[:, ends] * c
    te = t[:, ends]
    weights[0][:, ends] += sc
    weights[1][:, ends] += sc * (0.5 * (te + 1.0 / te))
    return piece, s, weights


# Gauss columns that one _moments call integrates in the KernelRules build,
# so that its temporaries do not grow with the grid: about 0.7 KiB a
# column, and a piece takes 1 + 2J columns at graded depth J.  On 2 cores,
# numpy 2.4, every call of a 2048- or 4096-node build peaks at 2.0 MiB,
# and the build at 3.14 and 4.50 MiB above its start; blocks of 2560
# pieces peaked at 2.54 and 3.23 MiB in the block of the rows' [0, x_1]
# pieces, and 3.20 and 4.70 MiB in all.  A 512-node build (2650 to 3030
# columns at cutoffs up to 1e40) stays one call: each call costs about
# 0.1 ms.
COLUMNS_PER_BLOCK = 3072


def _moments(p, a, b, left, h, depth):
    """The K0 and K1 integrals over the pieces [a, b] of the cubic Hermite
    basis of the interval [left, left + h], shape (2, 4, pieces), by
    _kernel_rule at the pieces' _graded_depth, depth; the arguments
    broadcast to one array of pieces.  The sums of w tau**j, j = 0..3, are
    taken over every column at once, adding the 8 points in order (np.sum
    would add them pairwise in a one-column call), and the half octaves'
    sums, sorted by piece, add to their pieces over runs of columns."""
    p, a, b, left, h, depth = (np.ravel(v) for v in np.broadcast_arrays(p, a, b, left, h, depth))
    piece, s, w = _kernel_rule(p, a, b, depth)
    tau = (s - left[piece]) / h[piece]
    sums = np.empty((2, 4, piece.size))
    for j in range(4):
        if j:
            w *= tau
        total = sums[:, j]
        np.add(w[:, 0], w[:, 1], out=total)
        for point in range(2, 8):
            total += w[:, point]
    half = piece[p.size :]
    starts = np.flatnonzero(np.diff(half, prepend=-1))
    sums[..., half[starts]] += np.add.reduceat(sums[..., p.size :], starts, axis=2)
    return _HERMITE.T @ sums[..., : p.size]


class KernelRules:
    """The SCF integrals of the PCHIP interpolant, exact per grid interval.

    The grid must be geometric from its second node on, x_k = x_1 q**(k-1)
    within _LADDER_RTOL for k >= 1, with any first node in (0, x_1) and
    the last node below the cutoff.  Both kernels are homogeneous of
    degree 1, and the Hermite basis of interval k maps onto that of
    interval k+1 under s -> q s.  So for a row i >= 1 and an interval
    1 <= k <= n-2 the integral of K(p_i, .) against the four basis
    functions is p_i**2 template[k - i], one template per kernel,
    integrated once on the unit row p = 1 over the intervals
    [q**m, q**(m+1)], m in [2-n, n-3].  The slope functions carry the
    width h_k, so their coefficients are h_k times the node slopes.

    The pieces off the ladder are integrated per row: [0, x_1] on interval
    0's cubic (the first node and the extrapolation to 0) and
    [x_{n-1}, cutoff] on interval n-2's cubic, extrapolated; row 0, whose
    node is off the ladder, takes every piece directly.  Every piece is
    one cubic times a kernel, integrated by _moments to rounding, in
    blocks of about COLUMNS_PER_BLOCK Gauss columns; each piece's sums are
    formed within its call, so no rule depends on the block size.

    A rule depends on its grid alone, not on alpha: solve_dispersion
    shares one between its solves on equal grids, and each Dispersion it
    returns holds the rule it was solved with.  So a rule keeps only what
    integrals reads, not the template.

    The template part is a correlation, applied with numpy's FFT.  Its
    symbol spans q**(+-n), so each kernel's symbol is divided by q**(e m)
    and its input multiplied by p_k**e, with e = _GROWTH: the scaled symbol
    stays bounded on both sides and the FFT keeps the relative accuracy of
    every row.  Where a rule array or the p**2 scale of the rows overflows
    float64 (from a cutoff near 1e153), it raises InvalidParameterError.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        x = grid.nodes
        n = x.size
        _ladder_log_ratio(x)
        if not x[-1] < grid.cutoff:
            raise InvalidParameterError("kernel rules need the last node below the cutoff")
        self.h = np.diff(x)
        p = x[1:]
        # the unit row's intervals [q**m, q**(m+1)], m in [2-n, n-3], with
        # edges read off the nodes, so that the rounding of q does not grow
        # with m
        m = np.arange(2 - n, n - 2)
        ladder = np.concatenate([x[1] / x[:1:-1], x[1:] / x[1]])
        lo, hi = ladder[:-1], ladder[1:]
        # row 0's pieces, [0, x_0] to [x_{n-1}, cutoff], and their intervals
        edges = np.concatenate([[0.0], x, [grid.cutoff]])
        interval = np.clip(np.arange(n + 1) - 1, 0, n - 2)
        # every piece: the template, [0, x_1] and [x_{n-1}, cutoff] of each
        # row from 1 on, and row 0
        pieces = np.concatenate(
            [
                [np.ones_like(lo), lo, hi, lo, hi - lo],
                np.broadcast_arrays(p, 0.0, x[1], x[0], self.h[0]),
                np.broadcast_arrays(p, x[-1], grid.cutoff, x[-2], self.h[-1]),
                np.broadcast_arrays(x[0], edges[:-1], edges[1:], x[interval], self.h[interval]),
            ],
            axis=1,
        )
        # the blocks' results are joined at the end: an output array made
        # before the first block would be fresh memory, which costs a
        # 512-node build (one block) 3-6% in page faults
        with np.errstate(over="ignore", invalid="ignore"):
            # ceil(columns / COLUMNS_PER_BLOCK) blocks of about equal columns,
            # each piece in the one where its last column falls
            depth = _graded_depth(*pieces[:3])
            columns = np.cumsum(1 + 2 * depth)
            blocks = -(-columns[-1] // COLUMNS_PER_BLOCK)
            cuts = np.flatnonzero(np.diff((columns - 1) * blocks // columns[-1])) + 1
            parts = zip(np.split(pieces, cuts, axis=1), np.split(depth, cuts))
            moments = np.concatenate(
                [_moments(*part, part_depth) for part, part_depth in parts], axis=2
            )
            template, origin, tail, row0 = np.split(
                moments, np.cumsum([m.size, n - 1, n - 1]), axis=2
            )
            # copies, so that the rule does not keep the moments
            self.origin, self.tail = origin.copy(), tail.copy()
            # row 0's first two pieces lie on interval 0's cubic, its last
            # two on interval n-2's
            self.row0 = row0[..., 1:-1].copy()
            self.row0[..., 0] += row0[..., 0]
            self.row0[..., -1] += row0[..., -1]
            self._weight_out = p ** (2.0 - _GROWTH[:, None])
        rule = (template, self.origin, self.tail, self.row0, self._weight_out)
        if not all(np.all(np.isfinite(v)) for v in rule):
            raise InvalidParameterError(
                f"kernel rules at cutoff {grid.cutoff:.3g} overflow float64"
            )
        # the scaled template as a circular correlation of length 2n, which
        # holds every lag m = k - i: symbol[-m] = template[m] / q**(e m)
        self._size = 2 * n
        symbol = np.zeros((2, 4, self._size))
        symbol[..., -m % self._size] = template / lo ** _GROWTH[:, None, None]
        self._spectrum = np.fft.rfft(symbol)
        self._weight_in = x[1 : n - 1] ** _GROWTH[:, None, None]

    def coefficients(self, f, slopes):
        """The cubic Hermite coefficients of f (..., n) on each interval,
        shape (..., 4, n-1): the end values, then the end slopes times the
        width."""
        return np.stack(
            [f[..., :-1], f[..., 1:], self.h * slopes[..., :-1], self.h * slopes[..., 1:]],
            axis=-2,
        )

    def integrals(self, f0, f1):
        """The K0 integral of the PCHIP interpolant of f0 and the K1
        integral of that of f1 at every node, shape (2, n): the template
        part by FFT, then the pieces off the ladder and row 0."""
        p = self.grid.nodes
        n = p.size
        f = np.stack([f0, f1])
        coef = self.coefficients(f, _pchip_slopes(p, f))
        scaled = np.zeros((2, 4, self._size))
        scaled[..., 1 : n - 1] = coef[..., 1:] * self._weight_in
        spectrum = np.sum(np.fft.rfft(scaled) * self._spectrum, axis=1)
        toeplitz = np.fft.irfft(spectrum, self._size)[:, 1:n]
        out = np.empty((2, n))
        out[:, 1:] = (
            self._weight_out * toeplitz
            + np.einsum("kci,kc->ki", self.origin, coef[..., 0])
            + np.einsum("kci,kc->ki", self.tail, coef[..., -1])
        )
        out[:, 0] = np.sum(self.row0 * coef, axis=(1, 2))
        return out


def scf_step(d: Dispersion, rules: KernelRules) -> Dispersion:
    """One application of the self-consistency map to (g0, g1).

    The integrals are KernelRules.integrals of the node samples of g/Et:
    the template rows as one scaled FFT correlation per kernel, plus the
    pieces off the geometric ladder and row 0, exact per grid interval.
    Both exact integrands are nonnegative, so the exact map gives g0 >= 1
    and p <= g1 <= p g0; the rows carry signed Hermite weights, so in
    floating point these bounds hold to rounding, which the tests check up
    to strong coupling.

    rules must be built on d.grid itself, not on an equal grid: the solve
    passes the rule it shares together with the rule's own grid object.
    """
    if rules.grid is not d.grid:
        raise InvalidParameterError("kernel rules were built on another grid")
    p = d.grid.nodes
    et = d.e_tilde_samples
    i0, i1 = rules.integrals(d.g0 / et, d.g1 / et)
    # net prefactor alpha/(4 pi^2) * 2 pi / p, applied exactly once
    pref = d.params.alpha / (2.0 * math.pi) / p
    g0_new = 1.0 + pref * i0
    g1_new = p + pref * i1
    return replace(d, g0=g0_new, g1=g1_new)


# the KernelRules of each grid value, (cutoff, node bytes), that some
# solved Dispersion still holds; see solve_dispersion
_SHARED_RULES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def solve_dispersion(params: ModelParams, grid: RadialGrid) -> Dispersion:
    """Solve the self-consistent equations for (g0, g1) by Picard iteration
    on the stacked [g0, g1], to DEFAULT_TOL within DEFAULT_MAX_ITER
    iterations; raises FixedPointError with the report on
    non-convergence.  The norm is the larger of sup|dg0| and
    sup|dg1|/max(p, 0.1): g1 grows like p, and the relative change of g1
    degenerates as p -> 0, hence the floor.

    The KernelRules depend on the grid alone, so solves on equal grids
    (the same cutoff and the same node bytes) share one: it is built on
    the first solve and kept only by the results solved with it, as their
    Dispersion.rules, so it goes with the last of them, and a failed solve
    keeps none.  The solve iterates on the rule's own grid, so the
    returned d.grid equals grid but may be another object.
    """
    d0 = free_dispersion(params, grid)
    key = (grid.cutoff, grid.nodes.tobytes())
    rules = _SHARED_RULES.get(key)
    if rules is None:
        rules = _SHARED_RULES[key] = KernelRules(grid)
    d0 = replace(d0, grid=rules.grid, rules=rules)
    n = grid.n_points
    denom = np.maximum(grid.nodes, 0.1)

    def step(y):
        d = scf_step(replace(d0, g0=y[:n], g1=y[n:]), rules)
        return np.concatenate([d.g0, d.g1])

    def norm(delta):
        return float(max(np.max(np.abs(delta[:n])), np.max(np.abs(delta[n:]) / denom)))

    y0 = np.concatenate([d0.g0, d0.g1])
    y, report = fixed_point_solve(step, y0, DEFAULT_TOL, DEFAULT_MAX_ITER, norm=norm)
    return replace(d0, g0=y[:n], g1=y[n:], report=report)


def m_alpha(d: Dispersion) -> float:
    """Effective rest energy g0(0), extrapolated to the origin."""
    return float(d.interpolant(0.0)[0])


def g1_prime_zero(d: Dispersion) -> float:
    """Slope of g1 at the origin, extrapolated like m_alpha."""
    return float(d.interpolant.derivative(0.0)[1])


@dataclass(frozen=True)
class AsymptoticsEntry:
    name: str
    measured: float
    predicted: float
    rel_deviation: float


def check_asymptotics(d: Dispersion) -> dict[str, AsymptoticsEntry]:
    """Compare the solved profiles against their alpha -> 0 laws at fixed
    L, m = (1 + x)^(3/2) and g1'(0) = 1 + x, and the O(alpha) bound on g0'
    (the interpolant's node slopes, reported as their sup-norm over alpha,
    so alpha must be positive).  x = 2 alpha asinh(cutoff)/(3 pi) makes
    both laws exact to first order in alpha at every cutoff; it tends to
    2L/(3 pi) as the cutoff grows.  The entries are keyed by name, in that
    order."""
    params = d.params
    if not params.alpha > 0:
        raise InvalidParameterError(f"asymptotics need alpha > 0, got {params.alpha}")
    m = m_alpha(d)
    g1p0 = g1_prime_zero(d)
    x = 2.0 * params.alpha * math.asinh(params.cutoff) / (3.0 * math.pi)
    m_pred = (1.0 + x) ** 1.5
    g1p_pred = 1.0 + x
    ratio = float(np.max(np.abs(d.interpolant.derivative(d.grid.nodes)[0]))) / params.alpha
    entries = (
        AsymptoticsEntry("m_alpha", m, m_pred, abs(m - m_pred) / m_pred),
        AsymptoticsEntry("g1_prime_zero", g1p0, g1p_pred, abs(g1p0 - g1p_pred) / g1p_pred),
        AsymptoticsEntry("sup_g0_prime_over_alpha", ratio, 0.0, ratio),
    )
    return {e.name: e for e in entries}


def dispersion_to_csv(d: Dispersion, path):
    """Write p, g0, g1, e_tilde (17 significant digits, one row per node)."""
    write_csv(path, ("p", "g0", "g1", "e_tilde"), (d.grid.nodes, d.g0, d.g1, d.e_tilde_samples))
