"""Independent numerical oracles for the closed-form kernels.

Two routes that never touch the closed forms they are checking: the
spectral (Hankel) representation of the inverse-square kernel, integrated
along a ray into the complex plane where it converges absolutely and takes
its Bessel values from AMOS at complex argument, and exact wavepacket
evolution in the Hamiltonian's Hermite or Laguerre eigenbasis, through the
lens transform for the w = 0 kernels.

Both take positions and time as plain arguments and import nothing from
``kernels``.  The spectral oracle integrates a batch of orders and point
pairs at one time on one node set, so a comparison over many orders and
points costs one quadrature per time.  ``edge_contaminated`` is the one
test of whether an evolved state has reached the edge of its grid.

For 0 <= n < 1 the half-line Hamiltonian is not essentially self-adjoint.
The spectral oracle's J_n and the Laguerre eigenbasis L_k^{(n)} take the
extension whose solutions are regular at the wall, x^{n+1/2}, as the closed
form's I_n does: their agreement cannot test that choice.
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
    validate_order,
)
from .sl2rep import PhysParams

__all__ = [
    "GridSpec",
    "GridWavefunction",
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

    def weights(self) -> np.ndarray:
        """Trapezoid weights of the nodes: dx, halved at both ends."""
        w = np.full(self.points + 1, self.dx)
        w[[0, -1]] *= 0.5
        return w


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

_GROWTH_LOG = 7.0  # L: the Bessel product outgrows the chirp by at most e^L on the ray
_TAIL_LOG = 40.0  # the integrand's bound has fallen to e^-40 at the truncation point
_PHASE_PER_PANEL = 12.0  # per 24-node Gauss-Legendre panel: resolved far below roundoff
# The most panels one call may take.  At 2840 panels a panel costs about
# 11-15 us for one order and point pair and about 120-130 us for a batch of
# 16 like oracle-compare's (2 vCPUs), so the cap is about half a second of a
# scalar call or four seconds of one oracle-compare time.  x1 = x2 = 5 at
# t = 0.01, the corner of the range the contour was sized for, takes 2840
# panels, and t = 1e-3 there 28398.
_MAX_PANELS = 30_000


def hankel_kernel_oracle(x1, x2, t: float, order, params: PhysParams) -> QuadratureResult:
    """Inverse-square kernel at w = 0 from its Bessel spectral representation.

    The kernel is the Hankel integral of sqrt(k x1) J_n(k x1) sqrt(k x2)
    J_n(k x2) e^{-i c k^2 sign t} over k > 0, c = hbar |t|/2m, the analytic
    continuation of Weber's second exponential integral (DLMF 10.22.67).
    On the real axis it converges only conditionally, so it is taken along
    the ray k = r e^{-i theta sign t}, 0 < theta <= pi/4: the sector between
    holds no singularity and the arc at infinity vanishes, and on the ray
    the chirp decays like e^{-c r^2 sin 2 theta} while the Bessel product
    grows at most like e^{r S sin theta}, S = max(x1 + x2) over the batch.

    - tan theta = min(1, 8 c L/S^2), L = 7: the log-modulus bound
      r S sin theta - c r^2 sin 2 theta peaks at S^2 tan theta/8c <= L, so
      at most e^7 cancels between the terms;
    - the ray is truncated at the r where that bound reaches -40;
    - the 24-node Gauss-Legendre panels, at least 8, each hold at most
      12 rad of phase, c r^2 cos 2 theta + S r cos theta at the truncation
      point;
    - the first panel is plain where every order of the batch has integer
      2n, and graded toward r = 0 otherwise.  J_n(z) is (z/2)^n times an
      entire function of z^2 (DLMF 10.2.2), so the integrand is r^{2n+1}
      times a function analytic at r = 0, and has a branch point there
      only at non-integer 2n.  There ``integrate_oscillatory`` splits the
      first panel into 16 pieces that shrink by 4 toward r = 0, each on
      24 nodes; one such order grades the panel for the whole batch, which
      shares one node set.  The default oracle-compare rows (n = 0, 1/2,
      1, 5/2) take 192 nodes per call, and 552 with the grading.  The
      orders are checked first: one that is negative or not finite is
      refused by name, and so is a t, x1 or x2 that is not finite.

    The panel count grows like S^2/c as |t| falls (28M at x1 = x2 = 5,
    t = 1e-6), so a call that needs more than ``_MAX_PANELS`` panels is
    refused with a ``ValueError`` before any node is evaluated.

    The integrand maps r to the ray and folds the Jacobian e^{-i theta sign
    t} into its values.  J_n at the complex argument k x comes from
    ``bessel_j``, which sends every complex argument to AMOS ``jv`` (zbesj):
    no code is shared with the Cephes ``j0``, ``j1`` and ``spherical_jn``
    that the closed form takes at real t for n = 0, 1 and half-integer n.
    At every other order the closed form reaches AMOS as well, through real
    ``jv``.

    ``order`` may be an array of orders and ``x1``, ``x2`` broadcast
    arrays of positions at the one time ``t``; the result then has shape
    ``order.shape + broadcast(x1, x2).shape``, and scalars give a complex
    value and float error terms.  The whole batch shares one node set: the
    chirp is computed once per node, and J_n(k x) once per order and
    distinct position.
    """
    orders = np.asarray(order, dtype=float)
    for n in orders.flat:
        validate_order(n)
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                 np.asarray(x2, dtype=float))
    if np.ndim(t) != 0:
        raise ValueError("the spectral oracle takes one time per call")
    t = float(t)
    if not (math.isfinite(t) and np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("spectral oracle requires finite t, x1 and x2")
    if np.any(x1 <= 0) or np.any(x2 <= 0):
        raise ValueError("spectral oracle requires x1, x2 > 0")
    if t == 0:
        raise ValueError("t = 0 has no spectral integral (delta limit)")
    h, m = params.hbar, params.m
    c = h * abs(t) / (2.0 * m)
    s = float(np.max(x1 + x2))
    theta = math.atan(min(1.0, 8.0 * c * _GROWTH_LOG / s**2))
    grow, decay = s * math.sin(theta), c * math.sin(2.0 * theta)
    # decay underflows to 0 near |t| = 1e-300, and c itself at subnormal t,
    # where the count is NaN.
    r_max = ((grow + math.sqrt(grow**2 + 4.0 * decay * _TAIL_LOG)) / (2.0 * decay)
             if decay > 0 else math.inf)
    phase = c * r_max**2 * math.cos(2.0 * theta) + s * r_max * math.cos(theta)
    panels = phase / _PHASE_PER_PANEL
    if not panels <= _MAX_PANELS:
        raise ValueError(f"the spectral oracle at t={t:.17g} needs {panels:.3g} panels, "
                         f"more than its cap of {_MAX_PANELS}: the ray's cost grows like "
                         "1/|t| at short times")
    spec = QuadratureSpec(panel_count=max(8, math.ceil(panels)), k_max=r_max,
                          graded=not np.all(2.0 * orders % 1.0 == 0.0))
    ray = complex(math.cos(theta), -math.copysign(math.sin(theta), t))

    xs, where = np.unique(np.concatenate([x1.ravel(), x2.ravel()]), return_inverse=True)
    at1, at2 = where[: x1.size], where[x1.size :]
    root = np.sqrt(x1 * x2).reshape(-1, 1)

    def integrand(r: np.ndarray) -> np.ndarray:
        k = r * ray
        chirp = ray * np.exp(-1j * h * k**2 * t / (2.0 * m))
        g = np.empty(orders.shape + (x1.size, r.size), dtype=complex)
        kroot = k * root
        for idx in np.ndindex(orders.shape):
            # One row of J_n(k x) per distinct x, shared by every pair holding it.
            j = bessel_j(orders[idx], xs[:, None] * k)
            np.multiply(kroot * j[at1] * j[at2], chirp, out=g[idx])
        return g.reshape(orders.shape + x1.shape + r.shape)

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
    eigenfunction is made once, and one step takes its coefficient c_k,
    multiplies it by its phase, adds c_k e^{-i E_k t/hbar} phi_k to the sum
    and tests the stop: no K x N array and no second pass.
    A w t that is not finite, a grid so wide that w' underflows to 0, and
    one so wide that m w x^2/hbar overflows (w > 0) are refused by name.
    """
    grid = psi0.grid
    if halfline and grid.x_min != 0.0:
        raise ValueError("the half-line eigenbasis needs the half-line grid (x_min = 0)")
    if not halfline and params.n != 0.5:
        raise ValueError("the full-line eigenbasis has no inverse-square term: n must be 1/2")
    params.omega_t(t)  # refuses a w t that is not finite
    if t == 0:
        return GridWavefunction(psi0.samples, grid)
    h, m, w = params.hbar, params.m, params.omega
    edge = max(-grid.x_min, grid.x_max)
    if not math.isfinite(m * w / h * edge * edge):
        raise ValueError(f"the eigenbasis's m w x^2/hbar overflows on a grid reaching "
                         f"|x| = {edge:g} at w={w:g}")
    x = grid.nodes()
    chirp = np.ones(1)
    if w == 0.0:
        w = min(0.9 / abs(t), h * grid.points / (2.0 * m * edge * edge))
        if not w > 0:
            raise ValueError(f"the lens transform's frequency underflows to 0 on a grid "
                             f"reaching |x| = {edge:g}")
        t = math.asin(w * t) / w
        chirp = np.exp(1j * (m * w / (2.0 * h)) * math.tan(w * t / 2.0) * x * x)
    weights = grid.weights()
    weighted = weights * chirp * psi0.samples
    norm2 = float(weights @ np.abs(psi0.samples) ** 2)
    out = np.zeros(x.size, dtype=complex)
    held, run = 0.0, 0
    for k, phi in enumerate(_eigenfunctions(x, m * w / h, params.n, halfline)):
        c = complex(phi @ weighted)
        energy = 2.0 * k + params.n + 1.0 if halfline else k + 0.5
        # numpy's complex multiply, not Python's: they round differently, and
        # evolve's CSV bytes rest on numpy's.
        out += complex(np.multiply(c, np.exp(-1j * w * t * energy))) * phi
        held += abs(c) ** 2
        run = run + 1 if abs(c) ** 2 < 1e-24 * norm2 else 0
        if (run >= 16 and 2.0 * held > norm2) or k + 1 == x.size:
            break
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
