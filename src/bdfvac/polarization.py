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

B(k) integrates over r = |q| and t = |p| - |q|.  Swapping p and q leaves
f unchanged, so B(k) takes the half-space |p| >= |q| with weight 2.  In
spherical coordinates centred on q, with c = cos(q, k), |p|^2 = r^2 + k^2
+ 2rkc, so c -> |p| = r + t has dc = |p| dt / (rk) and

    B(k) = 4/(pi k^3) int r dr int_{t_lo(r)}^{t_hi(r)} |p| f dt,
    t_lo = max(0, k - 2r),  t_hi = min(k, Cut - r),

for r in [max(0, k - Cut), Cut].  The integrand needs only the profiles
at r and |p| and s = 1 - cos(p, q) = (k - t)(k + t)/(2 r |p|), which the
law of cosines gives straight from t with no cancellation, so the rule
holds at any Cut/k: the free B(0) - B(k) matches Uehling's within 6e-14
B(0) for k from 1e-4 to 1 at cutoffs from 1e6 to 1e61.  The radial panels
break at the two kinks of the t limits, r = k/2 and r = |Cut - k|, so that
no Gauss panel straddles one, and each panel takes a 16 x 16 Gauss rule
in (r, t): about 2200 points a k.  b_lambda_k takes one k or a 1-d array
of them: the panels of every k go through the integrand together, in
blocks of PANELS_PER_BLOCK whose geometry is made at once, and within a
block PANELS_PER_PASS at a time in buffers made once a call.  Each k adds
its panel sums in panel order, so a k's B does not depend on the other k
of its call, nor on either size.  polarization_table makes one such call
for all of its k from K_SWITCH on.  |q| = r is a radial node, so the q
side of the interpolant is read once per node.

B(0) and every B(k) evaluate the profiles, and B(0) their slopes, through
the one (g0, g1) interpolant the Dispersion caches.  It returns g0 and g1
profile-first, each a contiguous array of the points' shape, which the
wedge integrand reads with no stride.  B(0)'s integrand is
written in ratios bounded by the slopes, so it holds its free closed form
until the interpolant itself overflows.  Where float64 overflows (on the
free dispersion, B(k) from a cutoff near 1.3e61, where the wedge's
denominator 4 Et(cutoff)^5 passes the float64 range, and the radial B(0)
from a cutoff near 1e103, where the cube of the interpolant's offset does),
B(0) and B(k) raise InvalidParameterError rather than return a wrong
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Dispersion, ModelParams, free_dispersion
from .numerics import InvalidParameterError, OutOfRangeError, write_csv, write_json

# Below this k polarization_table reports the radial B(0), which
# continuity of B at 0 backs.  The 2-d rule itself holds as k -> 0: on the
# free vacuum at cutoffs 1e4 and 1e10 it holds Uehling's drop within 6e-12
# B(0) down to k = 1e-8.
K_SWITCH = 1e-3

DEFAULT_K_MIN = 1e-4

# B(k)'s panels take a 16-point Gauss rule in r and in t, B(0) one 4-point
# rule per cubic piece
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
# B(k)'s radial panels grow by this factor from r = k/2 to the cutoff
PANEL_RATIO = 4.0
# radial panels that one B(k) array pass integrates: the pass writes into
# five (panels, 16, 16) buffers of 64 kB each, made once a call.  At 16,
# 32 and 64 panels the 512-k table runs within 10% of one another.
PANELS_PER_PASS = 32
# radial panels whose geometry and q-side profiles one B(k) block makes at
# once, so that a table's temporaries do not grow with its k.  On 2 cores,
# numpy 2.4, the 450 k of the 512-k table at 2048 nodes peak at 1.6 MiB
# above the call's start (1.4 at 128 panels, 2.1 at 512) and take 45-48 ms,
# as with every panel's made at once, which peaked at 8.2 MiB.  After a
# 2048-node solve a table pass takes about 600 page faults, against 2500
# in blocks of 512 and 1800 in one block.
PANELS_PER_BLOCK = 256


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
    g0, g1 = d.interpolant(u)
    g0p, g1p = d.interpolant.derivative(u)
    et = np.hypot(g0, g1)
    with np.errstate(over="ignore", invalid="ignore"):
        # in ratios bounded by the slopes, so that no power of u or Et
        # leaves float64 before the slopes themselves do
        ue = (u / et) ** 2 / et
        first = ue * (g0p**2 + g1p**2 + 2.0 * (g1 / u) ** 2)
        second = ue * ((g0 * g0p + g1 * g1p) / et) ** 2
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


def _panel_edges(k: np.ndarray, cut: float) -> np.ndarray:
    """Panel edges in r = |q| over [max(0, k - cut), cut], one row for each
    k of the 1-d array k, ascending and padded with inf: the kinks k/2 and
    |cut - k| of the t limits, then PANEL_RATIO octaves from k/2."""
    octaves, edge = 0, 0.5 * float(k.min(initial=cut))
    while edge < cut:
        octaves, edge = octaves + 1, edge * PANEL_RATIO
    # PANEL_RATIO**j is exact, so each edge is k/2 multiplied j times
    grid = np.multiply.outer(0.5 * k, PANEL_RATIO ** np.arange(octaves))
    grid[grid >= cut] = np.inf
    edges = np.column_stack([np.maximum(0.0, k - cut), np.abs(cut - k), np.full_like(k, cut), grid])
    # sort, send each repeat of an edge to the end and sort again
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.inf
    edges.sort(axis=1)
    return edges


def _wedge_integrand(s, gp, gq, work):
    """Wedge-form integrand f from s = 1 - cos(p, q), with (g0, g1) at |p|
    in gp and at |q| in gq on their first axis, broadcast to s's shape.
    Overwrites s and the three arrays of work, each of s's shape, and
    returns f in work[0]."""
    (g0p, g1p), (g0q, g1q) = gp, gq
    wedge, a, b = work
    # the minor g0p g1q - g1p g0q in difference form keeps full accuracy
    # at small k, and the rest of the wedge, both s (same + both + dot)
    # with both = g1p g1q and same = g0p g0q, has no negative term
    np.subtract(g0p, g0q, out=wedge)
    wedge *= g1q
    np.subtract(g1p, g1q, out=a)
    a *= g0q
    wedge -= a
    wedge *= wedge
    np.multiply(g1p, g1q, out=a)
    np.multiply(g0p, g0q, out=b)
    b += a
    a *= s
    dot = np.subtract(b, a, out=s)  # same + both (1 - s)
    b += dot
    b *= a
    wedge += b
    # the denominator etp etq (etp + etq) (etp etq + dot)
    etq = np.sqrt(g0q * g0q + g1q * g1q)
    etp = np.multiply(g0p, g0p, out=a)
    np.multiply(g1p, g1p, out=b)
    etp += b
    np.sqrt(etp, out=etp)
    np.multiply(etp, etq, out=b)
    dot += b
    dot *= b
    etp += etq
    dot *= etp
    wedge /= dot
    return wedge


def _b_lambda_k_generic(d: Dispersion, k: np.ndarray, integrand) -> np.ndarray:
    """B at each k of the 1-d array k, with integrand(s, gp, gq, work) on
    the (r, t) rule of every radial panel of the half-space |p| >= |q|.

    The panels of all k go through _panel_sums together, PANELS_PER_BLOCK
    at a time, and each k adds its panel sums in panel order."""
    cut = d.grid.cutoff
    outside = ~((k > 0) & (k <= 2.0 * cut))
    if outside.any():
        raise OutOfRangeError(f"k={k[outside][0]} outside (0, {2 * cut}]")
    edges = _panel_edges(k, cut)
    panel = np.isfinite(edges[:, 1:])
    owner = np.nonzero(panel)[0]  # the index of each panel's k
    lo, hi = edges[:, :-1][panel], edges[:, 1:][panel]
    sums = np.empty(owner.size)
    buffers = np.empty((5, PANELS_PER_PASS, 16, 16))
    for start in range(0, owner.size, PANELS_PER_BLOCK):
        block = slice(start, start + PANELS_PER_BLOCK)
        sums[block] = _panel_sums(d, k[owner[block]], lo[block], hi[block], integrand, buffers)
    # bincount adds each k's panel sums in panel order; a k whose ball is
    # empty has no panel and keeps 0
    total = np.bincount(owner, weights=sums, minlength=k.size)
    # azimuthal 2 pi, and 2 for the half-space |p| < |q|
    return 4.0 * total / (math.pi * k * k * k)


def _panel_sums(d: Dispersion, k, a, b, integrand, buffers) -> np.ndarray:
    """The (r, t) rule's sum of r |p| f on each radial panel [a, b] of the
    k beside it, 1-d arrays alike: the panels' geometry and the q side of
    the interpolant at once, then the integrand PANELS_PER_PASS panels at
    a time in buffers, shape (5, PANELS_PER_PASS, 16, 16)."""
    cut = d.grid.cutoff
    a, b, kp = a[:, None], b[:, None], k[:, None]
    r = 0.5 * (a + b) + 0.5 * (b - a) * _GL16_X
    # t from the plane |p| = |q| (or p antiparallel to q) to the sphere
    # |p| = cut (or p parallel to q)
    t_lo = np.maximum(0.0, kp - 2.0 * r)
    t_hi = np.minimum(kp, cut - r)
    mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    # r dr times the t rule's half width; |p| and the t weight come per point
    w = 0.5 * (b - a) * _GL16_W * r * half
    gq = d.interpolant(r)[..., None]
    # one value a radial node, on a new last axis for the t points
    r, two_r, mid, half = (x[..., None] for x in (r, 2.0 * r, mid, half))
    k2 = (kp * kp)[..., None]
    sums = np.empty(len(w))
    for start in range(0, len(w), PANELS_PER_PASS):
        part = slice(start, start + PANELS_PER_PASS)
        # the integrand's work starts with t's buffer, free once s is made
        pn, s, *work = buffers[:, : len(w[part])]
        t = work[0]
        np.multiply(half[part], _GL16_X, out=t)
        t += mid[part]
        np.add(r[part], t, out=pn)
        # s = 1 - cos(p, q) = (k^2 - t^2)/(2 r |p|) by the law of cosines
        np.multiply(t, t, out=s)
        np.subtract(k2[part], s, out=s)
        s /= np.multiply(two_r[part], pn, out=t)
        f = integrand(s, d.interpolant(pn), gq[:, part], work)
        f *= pn
        # one 16-point dot a row and one a panel, the same sums as np.dot
        sums[part] = np.vecdot(w[part], np.vecdot(f, _GL16_W))
    return sums


def b_lambda_k(d: Dispersion, k):
    """B(k) for k > 0 by 2-d reduction of the momentum-ball integral: a
    float for a float k, an array for a 1-d array of k.

    Raises OutOfRangeError for any k outside (0, 2 cutoff], and
    InvalidParameterError where the rule overflows float64 or naming the
    first k whose B is not finite."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        # the wedge form's denominator is at most 4 Et(cutoff)^5, and every
        # other term of the rule less; past that f would read 0, not NaN
        et = np.hypot(*d.interpolant(d.grid.cutoff))
        _finite(float(4.0 * et**5), "4 Et(cutoff)^5", d)
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
# the 2-d B(1) misses its closed form by under 1e-13 B(0) from cutoff 1e6
# to 1e20; the floor covers the radial B(0) on coarse grids (8.6e-11 B(0)
# at 64 nodes and cutoff 1e12), with a margin
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
    (g0p, g0q), (g1p, g1q) = d.interpolant(radii.T)
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
