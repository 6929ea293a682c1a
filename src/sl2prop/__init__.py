"""Propagators for the oscillator with an inverse-square coupling.

Closed-form kernels for H = p^2/2m + lam/(2m x^2) + m w^2 x^2/2 and the
group-theoretic factorizations that generate them, verified against a 2x2
matrix realization of the underlying algebra, a spectral oracle (the Hankel
integral over Bessel eigenfunctions, taken along a ray into the complex
plane where it converges absolutely), and exact wavepacket evolution in the
Hamiltonian's own eigenbasis.
"""

from .evolve import (
    TestFunction,
    delta_limit_check,
    l2_distance,
    propagate,
    schrodinger_residual,
)
from .kernels import (
    CAUSTIC_TOL,
    KERNEL_NAMES,
    ROUTE_IDS,
    CausticSingularity,
    kernel_values,
    kernel_via_route,
)
from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    bessel_i_complex,
    bessel_j,
    integrate_oscillatory,
)
from .oracle import (
    GridSpec,
    GridWavefunction,
    eigen_evolve,
    hankel_kernel_oracle,
)
from .sl2rep import (
    GENERATOR_IDS,
    IDENTITY_IDS,
    FactorCoeffs,
    PhysParams,
    exp_traceless,
    factor_coeffs,
    generator_matrix,
    identity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CAUSTIC_TOL",
    "CausticSingularity",
    "FactorCoeffs",
    "GENERATOR_IDS",
    "GridSpec",
    "GridWavefunction",
    "IDENTITY_IDS",
    "KERNEL_NAMES",
    "PhysParams",
    "QuadratureResult",
    "QuadratureSpec",
    "ROUTE_IDS",
    "TestFunction",
    "bessel_i_complex",
    "bessel_j",
    "delta_limit_check",
    "eigen_evolve",
    "exp_traceless",
    "factor_coeffs",
    "generator_matrix",
    "hankel_kernel_oracle",
    "identity_residual",
    "integrate_oscillatory",
    "kernel_values",
    "kernel_via_route",
    "l2_distance",
    "propagate",
    "schrodinger_residual",
]
