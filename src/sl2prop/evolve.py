"""Wavepacket propagation by kernel quadrature, and the kernel PDE checks.

Propagation samples the kernel on the packet's own grid and applies
trapezoid weights; since the integrand is smooth and vanishes at both ends
of the window, the rule converges super-algebraically once the kernel
oscillation is resolved.  The output grid is always the input quadrature
grid; interpolation happens only inside the dilation operator.

Phase conventions are never asserted by these checks: every phase-sensitive
comparison is made through magnitudes or phase differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .kernels import CAUSTIC_TOL, KernelPoint, kernel_kind, kernel_values
from .oracle import GridSpec, GridWavefunction
from .sl2rep import PhysParams

__all__ = [
    "TestFunction",
    "as_gridfunction",
    "propagate",
    "schrodinger_residual",
    "delta_limit_check",
    "dilation_apply",
    "l2_distance",
]

# Output rows per kernel-matrix block in ``propagate`` (memory control only).
_CHUNK = 256


@dataclass(frozen=True)
class TestFunction:
    """Normalized Gaussian packet with a momentum boost e^{i p x / hbar}."""

    center: float
    width: float
    momentum: float = 0.0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind != "gaussian":
            raise ValueError(f"unsupported test function kind {self.kind!r}")
        if not self.width > 0:
            raise ValueError("width must be > 0")

    def evaluate(self, x, params: PhysParams) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        norm = (2.0 * np.pi * self.width**2) ** -0.25
        return norm * np.exp(
            -((x - self.center) ** 2) / (4.0 * self.width**2)
            + 1j * self.momentum * x / params.hbar
        )

    def require_halfline_support(self):
        if self.center - 4.0 * self.width <= 0:
            raise ValueError(
                "half-line packets need center - 4 width > 0 (support off the wall)"
            )


def _trapezoid_weights(grid: GridSpec) -> np.ndarray:
    w = np.full(grid.points + 1, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def as_gridfunction(psi0, params: PhysParams, grid: GridSpec | None,
                    halfline: bool) -> GridWavefunction:
    """The state as grid samples; a TestFunction is sampled on ``grid``,
    after checking its support stays off the wall for half-line kernels."""
    if isinstance(psi0, GridWavefunction):
        return psi0
    if isinstance(psi0, TestFunction):
        if grid is None:
            raise ValueError("a GridSpec is required when propagating a TestFunction")
        if halfline:
            psi0.require_halfline_support()
        return GridWavefunction(psi0.evaluate(grid.nodes(), params), grid)
    raise TypeError("psi0 must be a TestFunction or GridWavefunction")


def propagate(
    psi0,
    t: float,
    kernel: str,
    params: PhysParams,
    grid: GridSpec | None = None,
) -> GridWavefunction:
    """Evolve a packet by quadrature against the selected kernel.

    psi(x1, t) = integral of K(x1, x2, t) psi(x2, 0) over the grid window,
    evaluated at every grid node x1.  Half-line kernels pin the wall node to
    zero on both sides.  Caustic refusals propagate from the kernel.

    Parameters
    ----------
    psi0 : TestFunction or GridWavefunction
        Initial state; a TestFunction needs ``grid``.
    t : float
        Evolution time (nonzero, non-caustic for oscillator kernels).
    kernel : str
        One of {"free", "sho", "radial_h0", "radial_sho"}.
    params : PhysParams
    grid : GridSpec, optional
        Quadrature and output grid when psi0 is a TestFunction.
    """
    halfline = kernel_kind(kernel).halfline
    state = as_gridfunction(psi0, params, grid, halfline)
    g = state.grid
    if halfline and g.x_min != 0.0:
        raise ValueError("half-line kernels need the half-line grid (x_min = 0)")

    x = g.nodes()
    w = _trapezoid_weights(g)
    weighted = w * state.samples

    if halfline:
        rows = x[1:]
        cols = x[1:]
        weighted = weighted[1:]
    else:
        rows = x
        cols = x

    out_rows = np.empty(rows.size, dtype=complex)
    for start in range(0, rows.size, _CHUNK):
        block = rows[start : start + _CHUNK]
        kmat = kernel_values(kernel, block[:, None], cols[None, :], t, params)
        out_rows[start : start + _CHUNK] = kmat @ weighted

    if halfline:
        out = np.zeros(x.size, dtype=complex)
        out[1:] = out_rows
    else:
        out = out_rows
    return GridWavefunction(out, g)


def l2_distance(a: GridWavefunction, b: GridWavefunction) -> float:
    """L2 distance of two states sampled on the same grid."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return float(
        np.sqrt(np.trapezoid(np.abs(a.samples - b.samples) ** 2, dx=a.grid.dx))
    )


def schrodinger_residual(
    kernel: str,
    pt: KernelPoint,
    params: PhysParams,
    dx: float,
    dt: float,
) -> float:
    """Finite-difference defect of the kernel's evolution equation.

    Checks (hbar^2/2m)(-d^2/dx1^2 + (n^2 - 1/4)/x1^2 + m^2 w^2 x1^2/hbar^2) K
    against i hbar dK/dt with centered second-order stencils; the returned
    |LHS - RHS| / |RHS| shrinks as O(dx^2) + O(dt^2).  The stencil must not
    cross the wall or a caustic.
    """
    kind = kernel_kind(kernel)
    x1 = float(pt.x1)
    x2 = float(pt.x2)
    t = float(pt.t)
    if kind.halfline and x1 - dx <= 0:
        raise ValueError("x1 stencil crosses the wall")
    ham = kind.hamiltonian(params)
    n, omega = ham.n, ham.omega
    if omega > 0:
        for ts in (t - dt, t, t + dt):
            if abs(math.sin(omega * ts)) <= CAUSTIC_TOL:
                raise ValueError(f"t stencil touches a caustic at t={ts}")
        if math.floor(omega * (t - dt) / math.pi) != math.floor(omega * (t + dt) / math.pi):
            raise ValueError("t stencil straddles a caustic")

    h, m = params.hbar, params.m

    def K(xx, tt):
        return kernel_values(kernel, xx, x2, tt, params)

    k0 = K(x1, t)
    kxp = K(x1 + dx, t)
    kxm = K(x1 - dx, t)
    ktp = K(x1, t + dt)
    ktm = K(x1, t - dt)

    lap = (kxp - 2.0 * k0 + kxm) / dx**2
    lhs = h**2 / (2.0 * m) * (
        -lap + (n**2 - 0.25) / x1**2 * k0 + (m * omega * x1 / h) ** 2 * k0
    )
    rhs = 1j * h * (ktp - ktm) / (2.0 * dt)
    return float(abs(lhs - rhs) / abs(rhs))


def delta_limit_check(
    f,
    x1: float,
    t_sequence,
    kernel: str,
    params: PhysParams,
    grid: GridSpec,
) -> np.ndarray:
    """Smearing error |(K_t * f)(x1) - f(x1)| for each time in the sequence.

    As the kernel collapses to a delta the sequence must decay linearly in
    t.  ``f`` is a TestFunction or any callable of x.  The grid must resolve
    the kernel oscillation at the smallest time.
    """
    ts = np.asarray(list(t_sequence), dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("t_sequence must be positive and strictly decreasing")
    halfline = kernel_kind(kernel).halfline
    if halfline and isinstance(f, TestFunction):
        f.require_halfline_support()
    x = grid.nodes()
    w = _trapezoid_weights(grid)
    fx = f.evaluate(x, params) if isinstance(f, TestFunction) else np.asarray(
        f(x), dtype=complex
    )
    if halfline:
        x_cols = x[1:]
        wfx = (w * fx)[1:]
    else:
        x_cols = x
        wfx = w * fx
    if isinstance(f, TestFunction):
        target = complex(f.evaluate(np.array([x1]), params)[0])
    else:
        target = complex(np.asarray(f(np.array([x1])), dtype=complex)[0])
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        row = kernel_values(kernel, x1, x_cols, t, params)
        out[i] = abs(complex(row @ wfx) - target)
    return out


def dilation_apply(
    psi: GridWavefunction,
    gamma: float,
    params: PhysParams,
) -> tuple[GridWavefunction, float]:
    """Unitary dilation: psi'(x) = e^{-hbar gamma} psi(x e^{-2 hbar gamma}).

    This is the scaling induced on wavefunctions by the exp(-i gamma (xp+px))
    factor of the appendix identities, which stretches position eigenstates
    by e^{2 hbar gamma} with amplitude factor e^{hbar gamma}.  The L2 norm is
    preserved exactly in the continuum; on the grid the state is resampled
    with a cubic spline and the difference from a linear resampling is
    returned as the interpolation error estimate.

    Composition holds by construction: applying gamma1 then gamma2 equals
    applying gamma1 + gamma2 up to interpolation error.

    Raises ``ValueError`` when the rescaled support would leave the grid.
    """
    g = psi.grid
    x = psi.x
    scale = math.exp(2.0 * params.hbar * gamma)
    peak = float(np.max(np.abs(psi.samples)))
    if peak > 0.0:
        occupied = np.abs(psi.samples) > 1e-12 * peak
        lo = float(np.min(x[occupied])) * scale
        hi = float(np.max(x[occupied])) * scale
        if hi > g.x_max or lo < g.x_min:
            raise ValueError(
                f"rescaled support [{lo:.3g}, {hi:.3g}] overflows the grid "
                f"[{g.x_min:.3g}, {g.x_max:.3g}]"
            )
    u = x / scale
    spline = CubicSpline(x, psi.samples)
    resampled = spline(u)
    linear = np.interp(u, x, psi.samples.real) + 1j * np.interp(u, x, psi.samples.imag)
    interp_err = float(np.max(np.abs(resampled - linear)))
    out = math.exp(-params.hbar * gamma) * resampled
    return GridWavefunction(out, g), interp_err
