"""Special functions and quadrature used throughout the package.

Bessel functions of the first kind (real order, real argument) and modified
Bessel functions (real order, complex argument) are thin, validated
dispatchers over ``scipy.special``, with the routine chosen by the order:

- J_0 and J_1 come from Cephes ``j0`` and ``j1``;
- half-integer orders use the exact identity
  J_n(x) = sqrt(2x/pi) j_{n-1/2}(x) with ``spherical_jn``;
- every other order, and I_n off the imaginary axis, go to AMOS (Amos 1986)
  through ``jv`` and ``ive``.

The dedicated routines are several times faster than the general ``jv``,
and the packet evolver and the spectral oracle spend most of their time
here.  At tiny arguments, where scipy returns 0 or NaN, the leading series
term is used; any other non-finite result for a finite argument is refused
rather than passed on.  Above x = 1e6 J_0 and J_1 come from ``jv`` as well,
and arguments above 1e15, where no routine keeps the phase, are refused.

The oscillatory half-line integrals that arise as spectral representations
of propagators are conditionally convergent for real time.  A small complex
damping of the time variable multiplies such an integrand g(k) by a real
envelope e^{-eps phi(k)}; ``integrate_oscillatory`` takes the undamped g and
the rate phi once, applies the envelope at each strength of
``QuadratureSpec.eps_schedule`` and extrapolates the strength to zero.  The
integrand may be a batch (leading axes of g) sharing one node set; the nodes
are walked a fixed number of panels at a time, which bounds the memory a
batch takes, and the quadrature, tail and extrapolation error terms are
reported separately, elementwise over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "bessel_j",
    "bessel_i_complex",
    "gauss_legendre_panels",
    "integrate_oscillatory",
]

_GL_NODES = 24

_BLOCK_PANELS = 256  # panels per integrand call: bounds a batch's memory only
_JV_FROM = 1e6  # j0 and j1 hand over to jv above this argument
_J_ARG_MAX = 1e15  # no routine keeps the phase of J_n beyond this argument


def _validate_order(n: float) -> float:
    n = float(n)
    if not n >= 0:
        raise ValueError(f"Bessel order must satisfy n >= 0, got n={n}")
    return n


def _as_array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    return arr, arr.ndim == 0


def _small_argument(n: float, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The leading series term (z/2)^n / Gamma(n+1) where 0 < |z| < 1e-150.

    The next term is smaller by |z|^2/4(n+1) < 1e-300 there.  AMOS returns 0
    below about 2e-305 whatever n is, and spherical_jn NaN at subnormal z.
    """
    sub = (z != 0) & (np.abs(z) < 1e-150)
    if not np.any(sub):
        return out
    out = np.array(out)
    out[sub] = z[sub] ** n * (0.5**n * special.rgamma(n + 1.0))
    return out


def _require_finite(out: np.ndarray, arg: np.ndarray) -> None:
    bad = ~np.isfinite(out) & np.isfinite(arg)
    if np.any(bad):
        raise ValueError(f"scipy.special gave a non-finite Bessel value at {arg[bad][0]}")


def bessel_j(n: float, x) -> float | np.ndarray:
    """Bessel function of the first kind J_n(x) for real order n >= 0.

    The scipy routine is chosen by the order: ``j0`` and ``j1`` for n = 0
    and 1, sqrt(2x/pi) ``spherical_jn``(n - 1/2, x) for half-integer n, and
    AMOS ``jv`` otherwise; the first three are several times faster than
    ``jv``.  Above x = 1e6 the orders 0 and 1 also go to ``jv``: Cephes
    reduces x - pi/4 in double precision, so ``j0`` and ``j1`` err by 3e-11
    of the envelope sqrt(2/pi x) at 1e6 and by 2e-3 at 1e14, where ``jv``
    stays within 2e-16.  Beyond x = 1e15 every routine loses the phase (by
    1e16 the error is of the order of the envelope), so such arguments are
    refused.

    Parameters
    ----------
    n : float
        Order, n >= 0.
    x : float or array_like
        Argument, x >= 0.

    Returns
    -------
    float or ndarray
        J_n(x), elementwise for array input.  ``ValueError`` is raised for
        n < 0, x < 0, x > 1e15, or a non-finite value at a finite argument.
    """
    n = _validate_order(n)
    x, scalar = _as_array(x, float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    top = np.max(x, initial=0.0)
    if top > _J_ARG_MAX:
        raise ValueError(f"bessel_j argument {top:.17g} exceeds {_J_ARG_MAX:g}: "
                         "the phase of J_n is lost in double precision")
    if n in (0.0, 1.0):
        out = special.j0(x) if n == 0.0 else special.j1(x)
        if top > _JV_FROM:
            far = x > _JV_FROM
            out = np.array(out)
            out[far] = special.jv(n, x[far])
    elif n % 1.0 == 0.5:
        out = np.sqrt(2.0 * x / np.pi) * special.spherical_jn(int(n - 0.5), x)
    else:
        out = special.jv(n, x)
    out = _small_argument(n, x, out)
    _require_finite(out, x)
    return float(out) if scalar else out


def bessel_i_complex(n: float, z, scaled: bool = False) -> complex | np.ndarray:
    """Modified Bessel function I_n(z) for real order n >= 0 and complex z.

    Purely imaginary arguments are routed through the connection
    I_n(iy) = e^{i n pi/2} J_n(y) to ``bessel_j`` and its order-chosen
    routines; that is where the propagator formulas live for real time.
    Every other argument goes to AMOS through ``scipy.special.ive``.  An
    array that lies wholly on one side of the imaginary axis (every Re z = 0
    and every Im z > 0, or every Im z < 0) takes one phase for all its
    elements and skips the masking; its values are bit-identical to those of
    the masked path.

    Parameters
    ----------
    n : float
        Order, n >= 0.
    z : complex or array_like
        Argument.
    scaled : bool
        If True, return e^{-|Re z|} I_n(z), which stays finite for large
        |Re z|.  The unscaled variant raises ``OverflowError`` when the
        rescaling overflows.

    Returns
    -------
    complex or ndarray
        ``ValueError`` is raised for n < 0, or a non-finite value at a
        finite argument (AMOS gives up on |z| beyond about 1e9).
    """
    n = _validate_order(n)
    z, scalar = _as_array(z, complex)
    if not scalar and np.all(z.real == 0):
        # One side of the imaginary axis: one phase for the whole array.
        if np.all(z.imag > 0):
            return np.exp(1j * n * np.pi / 2) * bessel_j(n, z.imag)
        if np.all(z.imag < 0):
            return np.exp(-1j * n * np.pi / 2) * bessel_j(n, -z.imag)
    out = np.empty(z.shape, dtype=complex)
    imag_axis = (z.real == 0) & (z.imag != 0)
    y = z[imag_axis].imag
    # e^{+-i n pi/2}: two scalars, picked by the sign of Im z.
    phase = np.where(y > 0, np.exp(1j * n * np.pi / 2), np.exp(-1j * n * np.pi / 2))
    out[imag_axis] = phase * bessel_j(n, np.abs(y))

    rest = ~imag_axis
    zr = z[rest]
    vals = _small_argument(n, zr, special.ive(n, zr))
    _require_finite(vals, zr)
    # On the imaginary axis e^{|Re z|} = 1: only the AMOS values are rescaled.
    if not scaled:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * np.exp(np.abs(zr.real))
        if not np.all(np.isfinite(vals)):
            raise OverflowError(
                "unscaled I_n overflowed; use scaled=True for large |Re z|"
            )
    out[rest] = vals
    if scalar:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the oscillatory half-line integrals.

    Composite Gauss-Legendre over (0, k_max] in ``panel_count`` panels.
    ``eps_schedule`` is the only statement of the damping schedule: the
    integral is computed at each strength, strictly decreasing and in
    [0, 1), and polynomially extrapolated to zero.  A single level is used
    as it stands; ``(0.0,)`` is the undamped integral.
    """

    panel_count: int
    k_max: float
    eps_schedule: tuple[float, ...]

    def __post_init__(self):
        if self.panel_count < 1:
            raise ValueError("panel_count must be >= 1")
        if not self.k_max > 0:
            raise ValueError("k_max must be > 0")
        eps = tuple(float(e) for e in self.eps_schedule)
        if not (eps and 0 <= eps[-1] and eps[0] < 1
                and all(a > b for a, b in zip(eps, eps[1:]))):
            raise ValueError(f"epsilon schedule {eps} must be non-empty, "
                             "strictly decreasing and in [0, 1)")
        object.__setattr__(self, "eps_schedule", eps)


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error terms of ``integrate_oscillatory``.

    For a scalar integrand the value is complex and the terms are floats;
    for a batch, each is an array of the batch shape.  ``quad_err`` is the
    node-halving difference at the least-damped level, ``tail_err`` the
    truncation heuristic from the last panel and ``extrap_err`` the last
    correction of the extrapolation to zero damping.
    """

    value: complex | np.ndarray
    quad_err: float | np.ndarray
    tail_err: float | np.ndarray
    extrap_err: float | np.ndarray

    @property
    def error_estimate(self) -> float | np.ndarray:
        """The sum of the three terms."""
        return self.quad_err + self.tail_err + self.extrap_err


@lru_cache(maxsize=32)
def _gl_reference(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def gauss_legendre_panels(
    a: float, b: float, panel_count: int, nodes_per_panel: int = _GL_NODES
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    xr, wr = _gl_reference(nodes_per_panel)
    edges = np.linspace(a, b, panel_count + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    k = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    w = (half[:, None] * wr[None, :]).ravel()
    return k, w


def _extrapolate_to_zero(xs: Sequence[float], ys: Sequence[np.ndarray]):
    """Neville evaluation at 0 of the polynomial through (xs, ys).

    Works elementwise when the ys are arrays of one shape.  Returns the
    extrapolated value and the magnitude of the last correction, which
    serves as the extrapolation error estimate.
    """
    m = len(xs)
    t = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * xs[i] / (xs[i - j] - xs[i])
    last_step = np.abs(t[-1] - t[-2]) if m > 1 else np.zeros(np.shape(t[-1]))
    return t[-1], last_step


def _level_sums(integrand, spec: QuadratureSpec, nodes_per_panel: int, levels):
    """Sums of g w e^{-eps phi} over the nodes, one per damping in ``levels``.

    The nodes are walked ``_BLOCK_PANELS`` panels at a time.  Returns the
    sums (levels first, then the batch shape) and the last panel's g, phi
    and weights.
    """
    k, w = gauss_legendre_panels(0.0, spec.k_max, spec.panel_count, nodes_per_panel)
    step = _BLOCK_PANELS * nodes_per_panel
    sums = 0.0
    for lo in range(0, k.size, step):
        g, decay = integrand(k[lo : lo + step])
        wb = w[lo : lo + step]
        sums = sums + np.stack([np.sum(g * (wb * np.exp(-e * decay)), axis=-1)
                                for e in levels])
    last = slice(-nodes_per_panel, None)
    return sums, g[..., last], decay[last], w[last]


def integrate_oscillatory(
    integrand: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    spec: QuadratureSpec,
) -> QuadratureResult:
    """Regularized integral of an oscillatory integrand over k in (0, k_max].

    ``integrand(k)`` returns ``(g, decay)``: the undamped values g(k), of
    shape ``batch + k.shape`` for a batch of integrands that share their
    nodes (``batch`` may be empty), and one real rate phi(k) >= 0 per node,
    shared by the batch.  Level eps of ``spec.eps_schedule`` integrates
    g e^{-eps phi}, which is what the damping t -> t(1 - i eps sign t) of a
    chirp e^{-i c t k^2} gives with phi = c |t| k^2; the levels are
    polynomially extrapolated to eps = 0, elementwise over the batch.

    The nodes are walked ``_BLOCK_PANELS`` panels at a time, so
    ``integrand`` never sees more than that many panels' nodes in one call:
    once over the composite Gauss-Legendre nodes, and once more over the
    half-density nodes for the error estimate.  The block size bounds the
    memory of a batch and does not change the rule.

    The error is reported as three terms, each of the batch shape: the
    node-halving quadrature error at the least-damped level (``quad_err``),
    a truncation-tail heuristic from the last panel (``tail_err``) and the
    final extrapolation step (``extrap_err``); ``error_estimate`` is their
    sum.

    Parameters
    ----------
    integrand : callable
        Called as integrand(k_array) -> (values, decay rates).
    spec : QuadratureSpec
        Nodes and the damping schedule.

    Returns
    -------
    QuadratureResult
        Scalars for a scalar integrand, arrays of the batch shape otherwise.
    """
    eps = spec.eps_schedule
    sums, g, decay, w = _level_sums(integrand, spec, _GL_NODES, eps)

    # Truncation heuristic: contribution and envelope of the last panel at
    # the least-damped level.
    tail = g * np.exp(-eps[-1] * decay)
    width = spec.k_max / spec.panel_count
    tail_err = np.abs(np.sum(w * tail, axis=-1)) + np.max(np.abs(tail), axis=-1) * width

    # Node-halving estimate of the quadrature error at the least-damped
    # (hardest) level.
    coarse = _level_sums(integrand, spec, _GL_NODES // 2, eps[-1:])[0]
    quad_err = np.abs(sums[-1] - coarse[0])

    value, extrap_err = _extrapolate_to_zero(eps, sums)
    if np.ndim(value) == 0:
        return QuadratureResult(complex(value), float(quad_err), float(tail_err),
                                float(extrap_err))
    return QuadratureResult(value, quad_err, tail_err, extrap_err)
