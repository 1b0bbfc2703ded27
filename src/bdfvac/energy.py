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
from .polarization import PolarizationTable, b_screening, polarization_table


@dataclass(frozen=True)
class EnergyBreakdown:
    """All scalars of the assembled expansion.

    kinetic_corr, vacuum_corr and direct_corr sum exactly to
    C0^{-2} * (T - D).
    """

    m: float
    lambda_inv: float
    tau: float
    kinetic_corr: float
    vacuum_corr: float
    direct_corr: float
    total_pred: float
    C0_sq: float
    b0: float
    g1_slope: float
    E_CP: float


def _ingredients(d: Dispersion, t: PolarizationTable):
    """m, g1'(0), alpha, b(0) and C0^2 of c0_squared, each profile read once."""
    if d.params != t.params:
        raise InvalidParameterError(
            "dispersion and polarization table were built from different parameters"
        )
    m = m_alpha(d)
    g1p = g1_prime_zero(d)
    alpha = d.params.alpha
    b0 = b_screening(t.B0_at_zero, alpha)
    c0sq = math.inf if alpha * b0 == 0.0 else 2.0 * g1p**2 / ((alpha * b0) ** 2 * m)
    return m, g1p, alpha, b0, c0sq


def c0_squared(d: Dispersion, t: PolarizationTable) -> float:
    """Normalization constant C0^2 = 2 g1'(0)^2 / ((alpha b(0))^2 m).

    Infinite when alpha b(0) = 0, i.e. with the coupling off; its reciprocal
    scales E_CP in the prediction.
    """
    return _ingredients(d, t)[-1]


def assemble_breakdown(
    d: Dispersion, t: PolarizationTable, p: PekarState
) -> EnergyBreakdown:
    """Full component breakdown of the predicted energy.

    The three correction terms carry the exact algebraic split of
    C0^{-2}(T - D): kinetic_corr = C0^{-2} T, while the potential part
    splits into a positive vacuum-polarization cost alpha(b-b^2)D/(2 lambda)
    and a larger negative screening gain -alpha(2b-b^2)D/(2 lambda).  At
    alpha = 0 each term is 0 and C0^2 is infinite, so the total is m.
    """
    m, g1p, alpha, b0, c0sq = _ingredients(d, t)
    lam_inv = alpha * b0 * m / g1p**2
    tau = alpha * b0
    return EnergyBreakdown(
        m=m,
        lambda_inv=lam_inv,
        tau=tau,
        kinetic_corr=g1p**2 * p.T * lam_inv**2 / (2.0 * m),
        vacuum_corr=alpha * (b0 - b0**2) * p.D * lam_inv / 2.0,
        direct_corr=alpha * (b0**2 - 2.0 * b0) * p.D * lam_inv / 2.0,
        total_pred=m + p.E / c0sq,
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
    """Per-alpha rows at fixed L = alpha*ln(cutoff)."""

    L: float
    rows: list
    E_CP: float

    def to_dicts(self) -> list:
        return [dict(zip(SWEEP_COLUMNS, row)) for row in self.rows]


def regime_sweep(alphas, L_fixed: float, pekar_state: PekarState, solve) -> SweepTable:
    """Solve the pipeline for each alpha at cutoff = exp(L/alpha).

    solve(params) returns the Dispersion for one alpha; the variational
    problem is alpha-independent and solved once, by the caller.  Every
    alpha gives a row, or the sweep raises InvalidParameterError: for an
    alpha or L that ModelParams.from_L refuses, or for a cutoff past the
    float64 range of a stage.  Row columns: SWEEP_COLUMNS, where binding is -E_CP/C0^2, the depth of
    E_pred below m taken without the cancellation of m - E_pred (positive
    when E_CP < 0).
    """
    rows = []
    for alpha in alphas:
        params = ModelParams.from_L(float(alpha), L_fixed)
        d = solve(params)
        t = polarization_table(d, k_nodes=())
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
                -br.E_CP / br.C0_sq,
            )
        )
    return SweepTable(L=float(L_fixed), rows=rows, E_CP=pekar_state.E)


def breakdown_to_dict(br: EnergyBreakdown) -> dict:
    """The breakdown's fields for a JSON artifact, C0_sq None where it is
    infinite (alpha b(0) = 0), since strict JSON has no infinity."""
    out = asdict(br)
    if math.isinf(br.C0_sq):
        out["C0_sq"] = None
    return out


def breakdown_to_json(br: EnergyBreakdown, path) -> None:
    write_json(path, breakdown_to_dict(br))


def sweep_to_csv(table: SweepTable, path) -> None:
    write_csv(path, SWEEP_COLUMNS, zip(*table.rows))


def sweep_to_json(table: SweepTable, path) -> None:
    write_json(path, {"L": table.L, "E_CP": table.E_CP, "rows": table.to_dicts()})
