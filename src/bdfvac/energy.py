"""Assembly of the closed-form ground-state energy expansion.

Combines the dressed dispersion (m = g0(0), slope g1'(0)), the screening
fraction b(0) from the polarization table, and the unit-scale variational
minimizer (kinetic T, direct D, E_CP = T - D) into the predicted one-
particle energy

    E_pred = m + C0^{-2} * E_CP,   C0^{-2} = (alpha b(0))^2 m / (2 g1'(0)^2).

All length-scale factors are applied analytically through the prefactors;
the variational profile itself is never resampled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .dispersion import Dispersion, ModelParams, g1_prime_zero, m_alpha
from .numerics import InvalidParameterError, write_csv, write_json
from .pekar import PekarState
from .polarization import DEFAULT_K_MIN, PolarizationTable, b_screening, polarization_table

CUTOFF_CAP = 1e8
EXCHANGE_BUDGET_FRACTION = 0.1


@dataclass(frozen=True)
class EnergyBreakdown:
    """All scalars of the assembled expansion.

    kinetic_corr, vacuum_corr and direct_corr sum exactly to
    C0^{-2} * (T - D); exchange_bound is a reported error budget of
    EXCHANGE_BUDGET_FRACTION * alpha*b(0)/lambda and is never added to
    the total.
    """

    m: float
    lambda_inv: float
    tau: float
    kinetic_corr: float
    vacuum_corr: float
    direct_corr: float
    exchange_bound: float
    total_pred: float
    C0_sq: float
    b0: float
    g1_slope: float
    E_CP: float


def _check_params(d: Dispersion, t: PolarizationTable) -> None:
    if d.params != t.params:
        raise InvalidParameterError(
            "dispersion and polarization table were built from different parameters"
        )


def _ingredients(d: Dispersion, t: PolarizationTable):
    m = m_alpha(d)
    g1p = g1_prime_zero(d)
    alpha = d.params.alpha
    b0 = b_screening(t.B0_at_zero, alpha)
    return m, g1p, alpha, b0


def c0_squared(d: Dispersion, t: PolarizationTable) -> float:
    """Normalization constant C0^2 = 2 g1'(0)^2 / ((alpha b(0))^2 m).

    Infinite at alpha = 0; its reciprocal scales E_CP in the prediction.
    """
    _check_params(d, t)
    m, g1p, alpha, b0 = _ingredients(d, t)
    if alpha * b0 == 0.0:
        return math.inf
    return 2.0 * g1p**2 / ((alpha * b0) ** 2 * m)


def assemble_breakdown(
    d: Dispersion, t: PolarizationTable, p: PekarState
) -> EnergyBreakdown:
    """Full component breakdown of the predicted energy.

    The three correction terms carry the exact algebraic split of
    C0^{-2}(T - D): kinetic_corr = C0^{-2} T, while the potential part
    splits into a positive vacuum-polarization cost alpha(b-b^2)D/(2 lambda)
    and a larger negative screening gain -alpha(2b-b^2)D/(2 lambda).
    """
    _check_params(d, t)
    m, g1p, alpha, b0 = _ingredients(d, t)
    lam_inv = alpha * b0 * m / g1p**2
    tau = alpha * b0
    T, D = p.T, p.D
    if tau == 0.0:
        kinetic = vacuum = direct = exch = 0.0
        c0sq = math.inf
        total = m
    else:
        kinetic = g1p**2 * T * lam_inv**2 / (2.0 * m)
        vacuum = alpha * (b0 - b0**2) * D * lam_inv / 2.0
        direct = -alpha * (2.0 * b0 - b0**2) * D * lam_inv / 2.0
        exch = EXCHANGE_BUDGET_FRACTION * tau * lam_inv
        c0sq = 2.0 * g1p**2 / (tau**2 * m)
        total = m + p.E / c0sq
    return EnergyBreakdown(
        m=m,
        lambda_inv=lam_inv,
        tau=tau,
        kinetic_corr=kinetic,
        vacuum_corr=vacuum,
        direct_corr=direct,
        exchange_bound=exch,
        total_pred=total,
        C0_sq=c0sq,
        b0=b0,
        g1_slope=g1p,
        E_CP=p.E,
    )


SWEEP_COLUMNS = (
    "alpha",
    "cutoff",
    "m",
    "b0",
    "g1_slope",
    "lambda_inv",
    "C0_sq",
    "E_pred",
    "binding",
)


@dataclass(frozen=True)
class SweepTable:
    """Per-alpha rows at fixed L = alpha*ln(cutoff), plus skipped alphas
    whose derived cutoff exceeded the feasibility cap."""

    L: float
    rows: list
    skipped: list
    E_CP: float

    def to_dicts(self) -> list:
        return [dict(zip(SWEEP_COLUMNS, row)) for row in self.rows]


def regime_sweep(alphas, L_fixed: float, pekar_state: PekarState, solve) -> SweepTable:
    """Solve the pipeline for each alpha at cutoff = exp(L/alpha).

    solve(params) returns the Dispersion for one alpha; the variational
    problem is alpha-independent and solved once, by the caller.  Alphas
    whose derived cutoff overflows or exceeds CUTOFF_CAP are recorded in
    `skipped` rather than solved.  Row columns: SWEEP_COLUMNS, where
    binding is m - E_pred (positive when E_CP < 0).
    """
    if L_fixed <= 0:
        raise InvalidParameterError("L must be positive")
    rows = []
    skipped = []
    for alpha in alphas:
        if not alpha > 0:
            raise InvalidParameterError("sweep alphas must be positive")
        try:
            params = ModelParams.from_L(float(alpha), L_fixed)
        except InvalidParameterError:
            if L_fixed / alpha < 1.0:  # exp(L/alpha) rounds to 1, it did not overflow
                raise
            params = None
        if params is None or params.cutoff > CUTOFF_CAP:
            skipped.append(float(alpha))
            continue
        d = solve(params)
        # only B0_at_zero is needed: a k below K_SWITCH skips the 2-d integral
        t = polarization_table(d, k_nodes=[DEFAULT_K_MIN])
        br = assemble_breakdown(d, t, pekar_state)
        rows.append(
            (
                params.alpha,
                params.cutoff,
                br.m,
                br.b0,
                br.g1_slope,
                br.lambda_inv,
                br.C0_sq,
                br.total_pred,
                br.m - br.total_pred,
            )
        )
    return SweepTable(L=float(L_fixed), rows=rows, skipped=skipped, E_CP=pekar_state.E)


def breakdown_to_json(br: EnergyBreakdown, path) -> None:
    write_json(path, asdict(br))


def sweep_to_csv(table: SweepTable, path) -> None:
    write_csv(path, SWEEP_COLUMNS, zip(*table.rows))


def sweep_to_json(table: SweepTable, path) -> None:
    rows, skipped = table.to_dicts(), table.skipped
    write_json(path, {"L": table.L, "E_CP": table.E_CP, "rows": rows, "skipped_alphas": skipped})
