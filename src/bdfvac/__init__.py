"""Numerical laboratory for the dressed Dirac vacuum.

Modules:
    numerics     — radial grids, quadrature, fixed-point driver, artifact writers
    dispersion   — self-consistent dressed dispersion profiles g0, g1
    polarization — vacuum polarization B(k), screening b(k), renormalization
    pekar        — Choquard-Pekar variational minimizer
    energy       — assembled ground-state energy expansion
    cli          — command-line front end
"""

from .dispersion import (
    ALPHA_REGIME_LIMIT,
    AsymptoticsReport,
    Dispersion,
    ModelParams,
    check_asymptotics,
    free_dispersion,
    g1_prime_zero,
    m_alpha,
    solve_dispersion,
)
from .energy import (
    EnergyBreakdown,
    SweepTable,
    assemble_breakdown,
    c0_squared,
    regime_sweep,
)
from .numerics import (
    FixedPointError,
    FixedPointReport,
    InvalidParameterError,
    OutOfRangeError,
    RadialGrid,
    ShapeMismatchError,
    fixed_point_solve,
    integrate,
    make_grid,
)
from .pekar import (
    GAUSSIAN_BOUND,
    PekarConvergenceError,
    PekarState,
    el_residual,
    gaussian_state,
    solve_pekar,
)
from .polarization import (
    PolarizationTable,
    b_lambda_k,
    b_lambda_zero_radial,
    b_screening,
    charge_renormalization,
    linear_response_density,
    polarization_table,
)

__version__ = "0.1.0"
