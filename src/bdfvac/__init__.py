"""Numerical laboratory for the dressed Dirac vacuum.

Modules:
    numerics     — radial grids, quadrature, fixed-point driver, artifact writers
    dispersion   — self-consistent dressed dispersion profiles g0, g1
    polarization — vacuum polarization B(k), screening b(k), renormalization
    pekar        — Choquard-Pekar variational minimizer
    energy       — assembled ground-state energy expansion
    cli          — command-line front end
"""

__version__ = "0.1.0"
