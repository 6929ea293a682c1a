"""Wavepacket propagation by kernel quadrature, and the kernel PDE checks.

``propagate`` takes grid samples, a ``GridWavefunction``, and
``TestFunction.sample`` puts a Gaussian packet on a grid; the kernel PDE
checks take plain positions and time.  Propagation integrates the kernel
against the samples on their own grid with trapezoid weights; since the
integrand is smooth and vanishes at both ends of the window, the rule
converges super-algebraically once the kernel oscillation is resolved.  The
quadrature is ``kernels.kernel_apply``, which states how the kernel is
applied.  The output grid is always the input grid.

Phase conventions are never asserted by these checks: every phase-sensitive
comparison is made through magnitudes or phase differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import caustic_position, kernel_apply, kernel_kind, kernel_values
from .oracle import GridSpec, GridWavefunction
from .sl2rep import PhysParams

__all__ = [
    "TestFunction",
    "propagate",
    "schrodinger_residual",
    "delta_limit_check",
    "l2_distance",
]


_WIDTH_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class TestFunction:
    """Normalized Gaussian packet with a momentum boost e^{i p x / hbar}."""

    center: float
    width: float
    momentum: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center, self.width, self.momentum))):
            raise ValueError("packet center, width and momentum must be finite")
        # The norm divides by width^2, so a square that underflows is refused too.
        if not (self.width > 0 and self.width * self.width > 0):
            raise ValueError("width must be > 0, with a square that does not underflow to 0")
        # Below this range 4 width^2, the exponent's divisor, nears the
        # subnormals and the exponent overflows a few units off the centre;
        # above it the square nears the largest float.
        if not _WIDTH_RANGE[0] <= self.width <= _WIDTH_RANGE[1]:
            raise ValueError(f"packet width {self.width:g} is outside "
                             f"[{_WIDTH_RANGE[0]:g}, {_WIDTH_RANGE[1]:g}]")

    def evaluate(self, x, params: PhysParams) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        norm = (2.0 * np.pi * self.width**2) ** -0.25
        with np.errstate(over="ignore", invalid="ignore"):
            # Far from the centre the exponent may overflow to -inf, where
            # exp(-inf) = 0 is the right value; a phase that overflows is not.
            gauss = -((x - self.center) ** 2) / (4.0 * self.width**2)
            phase = 1j * self.momentum * x / params.hbar
        if not np.all(np.isfinite(phase)):
            raise ValueError(f"momentum {self.momentum:g}: the phase p x / hbar "
                             "overflows on the grid")
        return norm * np.exp(gauss + phase)

    def sample(self, grid: GridSpec, params: PhysParams, halfline: bool) -> GridWavefunction:
        """The packet on the nodes of ``grid``.  For a half-line kernel the
        grid starts at the wall, the support stays off it, and psi(0) = 0."""
        if halfline and self.center - 4.0 * self.width <= 0:
            raise ValueError(
                "half-line packets need center - 4 width > 0 (support off the wall)"
            )
        if halfline and grid.x_min != 0.0:
            raise ValueError("half-line kernels need the half-line grid (x_min = 0)")
        samples = self.evaluate(grid.nodes(), params)
        if halfline:
            samples[0] = 0.0
        return GridWavefunction(samples, grid)


def _columns(samples: np.ndarray, grid: GridSpec, halfline: bool):
    """Quadrature nodes of ``grid`` and the trapezoid-weighted ``samples``;
    half-line kernels vanish at the wall, so its node is dropped."""
    if halfline and grid.x_min != 0.0:
        raise ValueError("half-line kernels need the half-line grid (x_min = 0)")
    skip = 1 if halfline else 0
    return grid.nodes()[skip:], (grid.weights() * samples)[skip:]


def propagate(
    psi0: GridWavefunction,
    t: float,
    kernel: str,
    params: PhysParams,
) -> GridWavefunction:
    """Evolve a packet by quadrature against the selected kernel.

    psi(x1, t) = integral of K(x1, x2, t) psi(x2, 0) over the grid window,
    evaluated at every grid node x1: ``kernels.kernel_apply`` applies the
    kernel to the trapezoid-weighted samples.  A call shares no state with
    another: ``evolve`` propagates its frames concurrently, and each equals
    the frame of a call made alone, bit for bit.  ``psi0``'s grid is the
    quadrature and output grid.  A half-line kernel drops the wall node from
    the quadrature and returns psi(0) = 0, whatever psi0 holds there; the
    kernel refuses t = 0 and the caustics.
    """
    g = psi0.grid
    cols, weighted = _columns(psi0.samples, g, kernel_kind(kernel).halfline)

    # The output rows are the quadrature columns; a dropped wall node stays 0.
    out = np.zeros(g.points + 1, dtype=complex)
    out[out.size - cols.size :] = kernel_apply(kernel, cols[0], g.dx, weighted, t, params)
    return GridWavefunction(out, g)


def l2_distance(a: GridWavefunction, b: GridWavefunction) -> float:
    """L2 distance of two states sampled on the same grid: the norm of their
    difference, refused where the difference is not finite."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return GridWavefunction(a.samples - b.samples, a.grid).norm()


def schrodinger_residual(
    kernel: str,
    x1: float,
    x2: float,
    t: float | complex,
    params: PhysParams,
    dx: float,
    dt: float,
) -> float:
    """Finite-difference defect of the kernel's evolution equation.

    Checks (hbar^2/2m)(-d^2/dx1^2 + (n^2 - 1/4)/x1^2 + m^2 w^2 x1^2/hbar^2) K
    against i hbar dK/dt with centered second-order stencils; the returned
    |LHS - RHS| / |RHS| shrinks as O(dx^2) + O(dt^2).  t is real, or complex
    with Im t <= 0 (the damped kernel, analytic in t, whose t stencil steps
    by the real dt).  A stencil point the kernel refuses (at or beyond the
    wall, on a caustic, at Im t > 0) raises from the kernel; a stencil that
    straddles a caustic, or the delta limit t = 0 at w = 0, is refused here,
    where its three times are seen together.
    """
    x1, x2 = float(x1), float(x2)
    t = complex(t) if np.iscomplexobj(t) else float(t)
    ham = kernel_kind(kernel).hamiltonian(params)
    n, omega = ham.n, ham.omega
    # The ends differ in caustic index where the stencil crosses a line Re
    # w t = k pi (Re t = 0 at w = 0).  There |sin(w t)| = |sin(i w Im t)|,
    # so the crossing lies in the window where i Im t does.
    if (caustic_position(t - dt, ham)[0] != caustic_position(t + dt, ham)[0]
            and caustic_position(1j * t.imag, ham)[2]):
        raise ValueError("t stencil straddles a caustic")

    h, m = params.hbar, params.m

    def K(xx, tt):
        return kernel_values(kernel, xx, x2, tt, params)

    # kernel_values gives a point the same bits alone as in an array; tolist
    # makes Python complexes of them, so the stencil arithmetic stays Python's.
    k0, kxp, kxm = K(np.array([x1, x1 + dx, x1 - dx]), t).tolist()
    ktp = K(x1, t + dt)
    ktm = K(x1, t - dt)

    lap = (kxp - 2.0 * k0 + kxm) / dx**2
    lhs = h**2 / (2.0 * m) * (
        -lap + (n**2 - 0.25) / x1**2 * k0 + (m * omega * x1 / h) ** 2 * k0
    )
    rhs = 1j * h * (ktp - ktm) / (2.0 * dt)
    return float(abs(lhs - rhs) / abs(rhs))


def delta_limit_check(
    f: TestFunction,
    x1: float,
    t_sequence,
    kernel: str,
    params: PhysParams,
    grid: GridSpec,
) -> np.ndarray:
    """Smearing error |(K_t * f)(x1) - f(x1)| for each time in the sequence.

    As the kernel collapses to a delta the sequence must decay linearly in
    t.  The grid must resolve the kernel oscillation at the smallest time,
    and start at the wall for half-line kernels.
    """
    ts = np.asarray(list(t_sequence), dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("t_sequence must be positive and strictly decreasing")
    halfline = kernel_kind(kernel).halfline
    cols, weighted = _columns(f.sample(grid, params, halfline).samples, grid, halfline)
    target = complex(f.evaluate(np.array([x1]), params)[0])
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        row = kernel_values(kernel, x1, cols, t, params)
        out[i] = abs(complex(row @ weighted) - target)
    return out

