"""Independent numerical oracles for the closed-form kernels.

Two routes that never touch the closed forms they are checking: the
spectral (Hankel) representation of the inverse-square kernel as a damped
oscillatory integral over ordinary Bessel functions, and a Crank-Nicolson
finite-difference evolver for wavepackets, on the half-line grid or, for
the coupling-free kernels (sho, free), on a full-line window.

Both take positions and time as plain arguments and import nothing from
``kernels``.  The spectral oracle integrates a batch of orders and point
pairs at one time on one node set, so a comparison over many orders and
points costs one quadrature per time.  ``edge_contaminated`` is the one
test of whether an evolved state has reached the edge of its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    bessel_j,
    integrate_oscillatory,
)
from .sl2rep import PhysParams

__all__ = [
    "GridSpec",
    "GridWavefunction",
    "default_hankel_spec",
    "edge_contaminated",
    "hankel_kernel_oracle",
    "grid_evolve",
]


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
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.dt))):
            raise ValueError("grid x_min, x_max and dt must be finite")
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

    The samples are copied on construction; for half-line grids the wall
    value psi(0) of the copy is pinned to zero.
    """

    samples: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.samples = np.array(self.samples, dtype=complex)
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
        return GridWavefunction(self.samples, self.grid)


# ---------------------------------------------------------------------------
# Spectral (Hankel) oracle
# ---------------------------------------------------------------------------

_TAIL_LOG = 27.6  # e^-27.6 ~ 1e-12 damping at the truncation point
_PHASE_PER_PANEL = 12.0  # per 24-node Gauss-Legendre panel: resolved far below roundoff
_ORACLE_SCHEDULE = tuple(1e-2 * 0.5**j for j in range(5))  # the oracle's own: 1e-2 halved 4x


def default_hankel_spec(
    x1,
    x2,
    t: float,
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
    h, m, t = params.hbar, params.m, abs(t)
    if t == 0:
        raise ValueError("t = 0 has no spectral integral (delta limit)")
    k_max = math.sqrt(2.0 * m * _TAIL_LOG / (h * t * eps_min))
    x1 = float(np.max(np.asarray(x1)))
    x2 = float(np.max(np.asarray(x2)))
    max_freq = h * t / m * k_max + (x1 + x2)
    panels = max(8, int(math.ceil(max_freq * k_max / _PHASE_PER_PANEL)))
    return QuadratureSpec(panel_count=panels, k_max=k_max, eps_schedule=eps_schedule)


def hankel_kernel_oracle(
    x1,
    x2,
    t: float,
    order,
    params: PhysParams,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Inverse-square kernel from its Bessel spectral representation.

    Integrates sqrt(k x1) J_n(k x1) e^{-i hbar k^2 t / 2m} sqrt(k x2)
    J_n(k x2) over k > 0.  The damping t -> t(1 - i eps sign t) multiplies
    this by the real envelope e^{-eps hbar |t| k^2 / 2m}, which
    ``integrate_oscillatory`` applies at each level and extrapolates to
    eps = 0.  This never evaluates a modified Bessel function, making it an
    independent check on the closed form.

    ``order`` may be an array of orders and ``x1``, ``x2`` broadcast
    arrays of positions at the one time ``t``; the result then has shape
    ``order.shape + broadcast(x1, x2).shape``, and scalars give a complex
    value and float error terms.  The whole batch shares one node set: the
    chirp and the envelopes are computed once per node, and J_n(k x) once
    per order and distinct position.

    The damping schedule is ``spec.eps_schedule``; without ``spec``,
    ``default_hankel_spec`` sizes one for the oracle's own schedule at the
    batch's largest x1 and x2.
    """
    orders = np.asarray(order, dtype=float)
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                 np.asarray(x2, dtype=float))
    if np.ndim(t) != 0:
        raise ValueError("the spectral oracle takes one time per call")
    t = float(t)
    if np.any(x1 <= 0) or np.any(x2 <= 0):
        raise ValueError("spectral oracle requires x1, x2 > 0")
    if t == 0:
        raise ValueError("t = 0 has no spectral integral (delta limit)")
    if spec is None:
        spec = default_hankel_spec(x1, x2, t, params)
    h, m = params.hbar, params.m
    xs, where = np.unique(np.concatenate([x1.ravel(), x2.ravel()]), return_inverse=True)
    at1, at2 = where[: x1.size], where[x1.size :]
    root = np.sqrt(x1 * x2).reshape(-1, 1)

    def integrand(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chirp = np.exp(-1j * h * k**2 * t / (2.0 * m))
        g = np.empty(orders.shape + (x1.size, k.size), dtype=complex)
        kroot = k * root
        for idx in np.ndindex(orders.shape):
            # One row of J_n(k x) per distinct x, shared by every pair holding it.
            j = bessel_j(orders[idx], xs[:, None] * k)
            np.multiply(kroot * j[at1] * j[at2], chirp, out=g[idx])
        return g.reshape(orders.shape + x1.shape + k.shape), h * abs(t) * k**2 / (2.0 * m)

    return integrate_oscillatory(integrand, spec)


# ---------------------------------------------------------------------------
# Crank-Nicolson grid evolver
# ---------------------------------------------------------------------------


def grid_evolve(
    psi0: GridWavefunction,
    t_final: float,
    params: PhysParams,
) -> GridWavefunction:
    """Crank-Nicolson evolution under the full Hamiltonian.

    Unconditionally stable and exactly norm-preserving in the discrete l2
    sense (the step is a Cayley transform of a Hermitian tridiagonal
    matrix); Dirichlet conditions at both ends of the grid.  The step is
    ``grid.dt``, rounded so the final time is hit exactly.

    Requires n >= 1/2: below that the near-origin behavior of the true
    solutions makes a Dirichlet stencil dishonest, and the spectral oracle
    is the right tool instead.  The inverse-square term is evaluated at the
    nodes with no regularization, so packets must stay away from the wall.
    The caller judges the grid edge, with ``edge_contaminated``.
    """
    if params.n < 0.5:
        raise ValueError("grid evolver requires n >= 1/2; use the spectral oracle")
    grid = psi0.grid
    if t_final == 0:
        return psi0.copy()
    steps = max(1, round(abs(t_final) / grid.dt))
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
    # The left-hand matrix 1 + r H is the same on every step: factor it once.
    band = np.full(n_in - 1, r * off)
    lu = lapack.zgttrf(band, 1.0 + r * diag, band)
    if lu[-1] != 0:
        raise ValueError(f"Crank-Nicolson matrix is singular (zgttrf info={lu[-1]})")

    psi = psi0.samples[1:-1].copy()
    for _ in range(steps):
        rhs = (1.0 - r * diag) * psi
        rhs[1:] -= r * off * psi[:-1]
        rhs[:-1] -= r * off * psi[1:]
        psi, info = lapack.zgttrs(*lu[:-1], rhs)
        if info != 0:
            raise ValueError(f"Crank-Nicolson solve failed (zgttrs info={info})")

    out = np.zeros_like(psi0.samples)
    out[1:-1] = psi
    return GridWavefunction(out, grid)


def edge_contaminated(psi: GridWavefunction) -> bool:
    """Whether the outer 5% of the grid (both ends on the full line) holds
    more than 1e-8 of the peak amplitude; never for the zero state."""
    peak = float(np.max(np.abs(psi.samples)))
    edge = max(1, psi.grid.points // 20)
    amp = float(np.max(np.abs(psi.samples[-edge:])))
    if psi.grid.x_min < 0.0:
        amp = max(amp, float(np.max(np.abs(psi.samples[:edge]))))
    return amp > 1e-8 * peak
