"""Independent numerical oracles for the closed-form kernels.

Two routes that never touch the closed forms they are checking: the
spectral (Hankel) representation of the inverse-square kernel as a damped
oscillatory integral over ordinary Bessel functions, and exact wavepacket
evolution in the Hamiltonian's Hermite or Laguerre eigenbasis, through the
lens transform for the w = 0 kernels.

Both take positions and time as plain arguments and import nothing from
``kernels``.  The spectral oracle integrates a batch of orders and point
pairs at one time on one node set, so a comparison over many orders and
points costs one quadrature per time.  ``edge_contaminated`` is the one
test of whether an evolved state has reached the edge of its grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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
    "eigen_evolve",
    "hankel_kernel_oracle",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid: the default x_min = 0 gives the half-line grid,
    and the full-line kernels use a symmetric window, x_min < 0."""

    x_max: float
    points: int
    x_min: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max))):
            raise ValueError("grid x_min and x_max must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.points < 16:
            raise ValueError("points must be >= 16")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.points

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points + 1)


@dataclass
class GridWavefunction:
    """Complex samples of psi on the nodes of a GridSpec, copied; the grid
    pins no wall value (half-line kernels and their samples do)."""

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

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes()

    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(np.abs(self.samples) ** 2, dx=self.grid.dx)))


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
# Eigenbasis oracle
# ---------------------------------------------------------------------------


def _eigenfunctions(x: np.ndarray, beta: float, n: float, halfline: bool):
    """Orthonormal oscillator eigenfunctions at ``x``, k = 0, 1, ..., for
    beta = m w / hbar, by normalised three-term recurrences (DLMF 18.9):
    Hermite functions, or x^{n+1/2} e^{-beta x^2/2} L_k^{(n)}(beta x^2)."""
    with np.errstate(divide="ignore"):  # the first from its log: 0 at the wall
        if halfline:
            y = beta * x * x
            log0 = ((n + 0.5) * np.log(x) - 0.5 * y
                    + 0.5 * (math.log(2.0) + (n + 1.0) * math.log(beta) - math.lgamma(n + 1.0)))
        else:
            y = math.sqrt(beta) * x
            log0 = 0.25 * math.log(beta / math.pi) - 0.5 * y * y
    prev, cur = np.zeros_like(x), np.exp(log0)
    for k in itertools.count():
        yield cur
        if halfline:
            nxt = ((2 * k + n + 1.0 - y) * cur - math.sqrt(k * (k + n)) * prev) \
                / math.sqrt((k + 1) * (k + n + 1.0))
        else:
            nxt = (math.sqrt(2.0) * y * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
        prev, cur = cur, nxt


def eigen_evolve(psi0: GridWavefunction, t: float, params: PhysParams,
                 halfline: bool) -> GridWavefunction:
    """Exact evolution of grid samples in the Hamiltonian's eigenbasis: project
    with trapezoid weights, multiply by e^{-i E_k t/hbar}, sum at the nodes.
    E_k = hbar w (k + 1/2) on the full line (n = 1/2) and hbar w (2k + n + 1)
    on the half line, whose grid starts at the wall.

    For w = 0 the lens transform (MAIN at an auxiliary w') gives U_0(T) =
    e^{i a x^2} U_w'(t') e^{i a x^2}, t' = arcsin(w' T)/w', a = (m w'/2 hbar)
    tan(w' t'/2), with w' = min(0.9/|T|, hbar N/(2 m L^2)) for N intervals
    and the grid's largest |x| = L: w'|T| < 1, near 1 where the basis is
    tightest (long times and large n need that), and the first N + 1 modes
    stay below the grid's Nyquist wavenumber.  The basis size K ends after
    16 successive |c_k| below 1e-12 of the norm, once the c_k hold half the
    squared norm (a packet far out has tiny first ones), or at N + 1.  Each
    eigenfunction is made once to project and once to sum: no K x N array.
    """
    grid = psi0.grid
    if halfline and grid.x_min != 0.0:
        raise ValueError("the half-line eigenbasis needs the half-line grid (x_min = 0)")
    if not halfline and params.n != 0.5:
        raise ValueError("the full-line eigenbasis has no inverse-square term: n must be 1/2")
    if t == 0:
        return GridWavefunction(psi0.samples, grid)
    h, m, w = params.hbar, params.m, params.omega
    x = grid.nodes()
    chirp = np.ones(1)
    if w == 0.0:
        w = min(0.9 / abs(t), h * grid.points / (2.0 * m * max(-grid.x_min, grid.x_max) ** 2))
        t = math.asin(w * t) / w
        chirp = np.exp(1j * (m * w / (2.0 * h)) * math.tan(w * t / 2.0) * x * x)
    weights = np.full(x.size, grid.dx)
    weights[[0, -1]] *= 0.5
    weighted = weights * chirp * psi0.samples
    norm2 = float(weights @ np.abs(psi0.samples) ** 2)
    coeffs, held, run = [], 0.0, 0
    for phi in _eigenfunctions(x, m * w / h, params.n, halfline):
        coeffs.append(complex(phi @ weighted))
        held += abs(coeffs[-1]) ** 2
        run = run + 1 if abs(coeffs[-1]) ** 2 < 1e-24 * norm2 else 0
        if (run >= 16 and 2.0 * held > norm2) or len(coeffs) == x.size:
            break
    k = np.arange(len(coeffs))
    phases = np.exp(-1j * w * t * (2.0 * k + params.n + 1.0 if halfline else k + 0.5))
    out = np.zeros(x.size, dtype=complex)
    for c, phi in zip((np.array(coeffs) * phases).tolist(),
                      _eigenfunctions(x, m * w / h, params.n, halfline)):
        out += c * phi
    return GridWavefunction(chirp * out, grid)


def edge_contaminated(psi: GridWavefunction) -> bool:
    """Whether the outer 5% of the grid (both ends on the full line) holds
    more than 1e-8 of the peak amplitude; never for the zero state."""
    peak = float(np.max(np.abs(psi.samples)))
    edge = max(1, psi.grid.points // 20)
    amp = float(np.max(np.abs(psi.samples[-edge:])))
    if psi.grid.x_min < 0.0:
        amp = max(amp, float(np.max(np.abs(psi.samples[:edge]))))
    return amp > 1e-8 * peak
