"""Independent numerical oracles for the closed-form kernels.

Two routes that never touch the closed forms they are checking: the
spectral (Hankel) representation of the inverse-square kernel as a damped
oscillatory integral over ordinary Bessel functions, and a Crank-Nicolson
finite-difference evolver for wavepackets on the half-line.  A
finite-difference check of the eigenfunction relation and an orthogonality
probe for the sqrt(kx) J_n(kx) continuum complete the toolbox.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .kernels import KernelPoint
from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    bessel_j,
    gauss_legendre_panels,
    integrate_oscillatory,
)
from .sl2rep import PhysParams

__all__ = [
    "GridSpec",
    "GridWavefunction",
    "BoundaryContaminationWarning",
    "default_hankel_spec",
    "edge_contaminated",
    "hankel_kernel_oracle",
    "orthogonality_check",
    "eigenfunction_residual",
    "grid_evolve",
]


class BoundaryContaminationWarning(UserWarning):
    """The evolved packet has reached the outer edge of the grid."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid plus the evolver time step.

    The default x_min = 0 gives the half-line grid; the coupling-free
    full-line checks use a symmetric window by setting x_min < 0.
    """

    x_max: float
    points: int
    dt: float
    x_min: float = 0.0

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.points < 16:
            raise ValueError("points must be >= 16")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points + 1)


@dataclass
class GridWavefunction:
    """Complex samples of psi on the nodes of a GridSpec.

    For half-line grids the wall value psi(0) is pinned to zero on
    construction.
    """

    samples: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != (self.grid.points + 1,):
            raise ValueError(
                f"expected {self.grid.points + 1} samples, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.grid.x_min == 0.0:
            self.samples[0] = 0.0

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes()

    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(np.abs(self.samples) ** 2, dx=self.grid.dx)))

    def copy(self) -> "GridWavefunction":
        return GridWavefunction(self.samples.copy(), self.grid)


# ---------------------------------------------------------------------------
# Spectral (Hankel) oracle
# ---------------------------------------------------------------------------

_TAIL_LOG = 27.6  # e^-27.6 ~ 1e-12 damping at the truncation point
_PHASE_PER_PANEL = 12.0  # per 24-node Gauss-Legendre panel: resolved far below roundoff
_ORACLE_SCHEDULE = tuple(1e-2 * 0.5**j for j in range(5))  # the oracle's own: 1e-2 halved 4x


def default_hankel_spec(
    pt: KernelPoint,
    params: PhysParams,
    eps_schedule=_ORACLE_SCHEDULE,
) -> QuadratureSpec:
    """Quadrature controls sized for the spectral kernel integral.

    The truncation point is where the weakest damping of ``eps_schedule``
    has suppressed the integrand by e^-27.6, and the panel count keeps the
    total phase advance (quadratic chirp plus the Bessel oscillation at
    x1 + x2) below a fixed budget per panel.  Every damping must be > 0:
    the undamped integral has no truncation point.
    """
    eps_min = min(eps_schedule, default=1.0)  # QuadratureSpec refuses an empty one
    if not eps_min > 0:
        raise ValueError(f"spectral oracle needs every damping > 0, got {eps_min}")
    h, m, t = params.hbar, params.m, abs(pt.t)
    if t == 0:
        raise ValueError("t = 0 has no spectral integral (delta limit)")
    k_max = math.sqrt(2.0 * m * _TAIL_LOG / (h * t * eps_min))
    x1 = float(np.max(np.asarray(pt.x1)))
    x2 = float(np.max(np.asarray(pt.x2)))
    max_freq = h * t / m * k_max + (x1 + x2)
    panels = max(8, int(math.ceil(max_freq * k_max / _PHASE_PER_PANEL)))
    return QuadratureSpec(panel_count=panels, k_max=k_max, eps_schedule=eps_schedule)


def hankel_kernel_oracle(
    pt: KernelPoint,
    order: float,
    params: PhysParams,
    spec: QuadratureSpec | None = None,
    tolerance: float | None = None,
) -> QuadratureResult:
    """Inverse-square kernel from its Bessel spectral representation.

    Integrates sqrt(k x1) J_n(k x1) e^{-i hbar k^2 t / 2m} sqrt(k x2)
    J_n(k x2) over k > 0 with damped time and extrapolation of the damping
    to zero.  This never evaluates a modified Bessel function, making it an
    independent check on the closed form.

    The damping schedule is ``spec.eps_schedule``; without ``spec``,
    ``default_hankel_spec`` sizes one for the oracle's own schedule.
    """
    x1 = float(pt.x1)
    x2 = float(pt.x2)
    t = pt.t
    if x1 <= 0 or x2 <= 0:
        raise ValueError("spectral oracle requires x1, x2 > 0")
    if t == 0:
        raise ValueError("t = 0 has no spectral integral (delta limit)")
    if spec is None:
        spec = default_hankel_spec(pt, params)
    h, m = params.hbar, params.m
    sgn = 1.0 if t > 0 else -1.0

    # The Bessel product is kept with its node array and reused while the
    # quadrature passes that same array again, once per damping level.
    last: tuple[np.ndarray, np.ndarray] | None = None

    def integrand(k: np.ndarray, eps: float) -> np.ndarray:
        nonlocal last
        if last is None or last[0] is not k:
            last = (k, k * math.sqrt(x1 * x2) * bessel_j(order, k * x1)
                    * bessel_j(order, k * x2))
        tc = t * (1.0 - 1j * eps * sgn)
        return last[1] * np.exp(-1j * h * k**2 * tc / (2.0 * m))

    return integrate_oscillatory(integrand, spec, tolerance=tolerance)


def orthogonality_check(k1: float, k2: float, order: float, x_max: float) -> complex:
    """Truncated continuum overlap of two sqrt(kx) J_n(kx) states.

    Returns the integral over x in (0, x_max].  For k1 != k2 the value
    oscillates around zero with bounded amplitude (its running mean decays);
    at k1 = k2 it grows linearly, and smearing against a narrow weight in k
    recovers that weight's value, which is the usable normalization test.
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError("wavenumbers must be positive")
    panels = max(8, int(math.ceil((k1 + k2) * x_max / _PHASE_PER_PANEL)))
    x, w = gauss_legendre_panels(0.0, x_max, panels)
    f = np.sqrt(k1 * x) * bessel_j(order, k1 * x) * np.sqrt(k2 * x) * bessel_j(order, k2 * x)
    return complex(np.sum(w * f))


def eigenfunction_residual(
    k: float,
    order: float,
    params: PhysParams,
    grid: GridSpec,
    skip_near_origin: int = 0,
) -> float:
    """Defect of the discretized eigenvalue relation for sqrt(kx) J_n(kx).

    Applies the centered second-difference form of the inverse-square
    Hamiltonian to exact samples and compares against (hbar^2 k^2 / 2m)
    times the same samples; returns the largest interior deviation relative
    to the peak of the right side.  Second-order accurate in dx away from
    the origin; ``skip_near_origin`` interior nodes next to the wall can be
    excluded, which matters for n < 1/2 where the x^{n+1/2} behavior defeats
    the stencil.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    if grid.x_min != 0.0:
        raise ValueError("eigenfunction check lives on the half-line grid")
    h, m = params.hbar, params.m
    x = grid.nodes()
    psi = np.zeros_like(x)
    psi[1:] = np.sqrt(k * x[1:]) * bessel_j(order, k * x[1:])
    dx = grid.dx
    interior = slice(1, grid.points)
    xin = x[interior]
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / dx**2
    lhs = h**2 / (2.0 * m) * (-lap + (order**2 - 0.25) / xin**2 * psi[interior])
    rhs = h**2 * k**2 / (2.0 * m) * psi[interior]
    resid = np.abs(lhs - rhs)
    if skip_near_origin:
        resid = resid[skip_near_origin:]
    return float(np.max(resid) / np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# Crank-Nicolson grid evolver
# ---------------------------------------------------------------------------


def grid_evolve(
    psi0: GridWavefunction,
    t_final: float,
    params: PhysParams,
    dt: float | None = None,
) -> GridWavefunction:
    """Crank-Nicolson evolution under the full Hamiltonian.

    Unconditionally stable and exactly norm-preserving in the discrete l2
    sense (the step is a Cayley transform of a Hermitian tridiagonal
    matrix); Dirichlet conditions at both ends of the grid.  The step count
    is rounded so the final time is hit exactly.

    Requires n >= 1/2: below that the near-origin behavior of the true
    solutions makes a Dirichlet stencil dishonest, and the spectral oracle
    is the right tool instead.  The inverse-square term is evaluated at the
    nodes with no regularization, so packets must stay away from the wall.
    Emits ``BoundaryContaminationWarning`` if the result is
    ``edge_contaminated``.
    """
    if params.n < 0.5:
        raise ValueError("grid evolver requires n >= 1/2; use the spectral oracle")
    grid = psi0.grid
    if dt is None:
        dt = grid.dt
    if t_final == 0:
        return psi0.copy()
    steps = max(1, round(abs(t_final) / dt))
    dt_eff = t_final / steps

    h, m, w = params.hbar, params.m, params.omega
    x = grid.nodes()
    xin = x[1:-1]
    if np.any(xin == 0.0) and params.lam != 0.0:
        raise ValueError("interior node at x = 0 with a nonzero inverse-square term")
    dx = grid.dx

    # An x = 0 node (full-line grids, lam = 0) carries no inverse-square term.
    centrifugal = np.divide(params.n**2 - 0.25, xin**2, out=np.zeros_like(xin),
                            where=xin != 0.0)
    pot = h**2 / (2.0 * m) * centrifugal + 0.5 * m * w**2 * xin**2
    diag = h**2 / (m * dx**2) + pot
    off = -(h**2) / (2.0 * m * dx**2)

    r = 1j * dt_eff / (2.0 * h)
    n_in = xin.size
    ab = np.zeros((3, n_in), dtype=complex)
    ab[0, 1:] = r * off
    ab[1, :] = 1.0 + r * diag
    ab[2, :-1] = r * off

    psi = psi0.samples[1:-1].copy()
    for _ in range(steps):
        rhs = (1.0 - r * diag) * psi
        rhs[1:] -= r * off * psi[:-1]
        rhs[:-1] -= r * off * psi[1:]
        psi = solve_banded((1, 1), ab, rhs)

    out = np.zeros_like(psi0.samples)
    out[1:-1] = psi
    result = GridWavefunction(out, grid)
    if edge_contaminated(result):
        warnings.warn(
            "packet amplitude above 1e-8 of its peak at the outer 5% of the grid; "
            "enlarge the grid",
            BoundaryContaminationWarning,
            stacklevel=2,
        )
    return result


def edge_contaminated(psi: GridWavefunction) -> bool:
    """Whether the outer 5% of the grid (both ends on the full line) holds
    more than 1e-8 of the peak amplitude; never for the zero state."""
    peak = float(np.max(np.abs(psi.samples)))
    edge = max(1, psi.grid.points // 20)
    amp = float(np.max(np.abs(psi.samples[-edge:])))
    if psi.grid.x_min < 0.0:
        amp = max(amp, float(np.max(np.abs(psi.samples[:edge]))))
    return amp > 1e-8 * peak
