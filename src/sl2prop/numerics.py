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
rather than passed on.

The oscillatory half-line integrals that arise as spectral representations
of propagators are conditionally convergent for real time; they are computed
with a small complex damping of the time variable and polynomial
extrapolation of the damping strength to zero.  The damping schedule is
stated in one place, ``QuadratureSpec.eps_schedule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "DEFAULT_EPS_SCHEDULE",
    "NonConvergenceError",
    "QuadratureSpec",
    "QuadratureResult",
    "gamma_real",
    "bessel_j",
    "bessel_i_complex",
    "gauss_legendre_panels",
    "integrate_oscillatory",
]

_GL_NODES = 24

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)


class NonConvergenceError(RuntimeError):
    """Quadrature error estimate exceeded the caller's tolerance.

    Distinct from ``ValueError`` so that callers can tell an unconverged
    integral apart from an invalid input.
    """

    def __init__(self, message: str, value: complex, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def gamma_real(a: float) -> float:
    """Gamma function for real positive argument.

    Thin wrapper around ``math.gamma`` restricted to a > 0.
    """
    if a <= 0:
        raise ValueError(f"gamma_real requires a > 0, got a={a}")
    return math.gamma(a)


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
    ``jv``.

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
        n < 0, x < 0, or a non-finite value at a finite argument.
    """
    n = _validate_order(n)
    x, scalar = _as_array(x, float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    if n == 0.0:
        out = special.j0(x)
    elif n == 1.0:
        out = special.j1(x)
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
    Every other argument goes to AMOS through ``scipy.special.ive``.

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
    out = np.empty(z.shape, dtype=complex)
    imag_axis = (z.real == 0) & (z.imag != 0)
    if np.any(imag_axis):
        y = z[imag_axis].imag
        out[imag_axis] = np.exp(1j * np.sign(y) * n * np.pi / 2) * bessel_j(n, np.abs(y))
    rest = ~imag_axis
    if np.any(rest):
        zr = z[rest]
        out[rest] = vals = _small_argument(n, zr, special.ive(n, zr))
        _require_finite(vals, zr)

    if not scaled:
        with np.errstate(over="ignore", invalid="ignore"):
            out = out * np.exp(np.abs(z.real))
        if not np.all(np.isfinite(out)):
            raise OverflowError(
                "unscaled I_n overflowed; use scaled=True for large |Re z|"
            )
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

    panel_count: int = 64
    k_max: float = 30.0
    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE

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
    value: complex
    error_estimate: float


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


def _extrapolate_to_zero(xs: Sequence[float], ys: Sequence[complex]) -> tuple[complex, float]:
    """Neville evaluation at 0 of the polynomial through (xs, ys).

    Returns the extrapolated value and the magnitude of the last correction,
    which serves as the extrapolation error estimate.
    """
    m = len(xs)
    t = [complex(y) for y in ys]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * xs[i] / (xs[i - j] - xs[i])
    last_step = abs(t[-1] - t[-2]) if m > 1 else 0.0
    return t[-1], last_step


def integrate_oscillatory(
    f: Callable[[np.ndarray, float], np.ndarray],
    spec: QuadratureSpec,
    tolerance: float | None = None,
) -> QuadratureResult:
    """Regularized integral of ``f`` over k in (0, k_max].

    ``f(k, eps)`` must evaluate the integrand with damping strength ``eps``
    applied to its time variable (t -> t(1 - i eps sign t)); the integral is
    computed at each strength of ``spec.eps_schedule`` and polynomially
    extrapolated to eps = 0.  ``f`` is called once per level plus once on
    the half-density nodes.

    The reported error estimate combines the node-halving quadrature error,
    a truncation-tail heuristic from the last panel, and the final
    extrapolation step.  If ``tolerance`` is given and the estimate exceeds
    it, ``NonConvergenceError`` is raised.

    Parameters
    ----------
    f : callable
        Integrand, called as f(k_array, eps) -> complex array.
    spec : QuadratureSpec
        Nodes and the damping schedule.
    tolerance : float, optional
        Error-estimate ceiling; exceeding it raises.

    Returns
    -------
    QuadratureResult
    """
    k, w = gauss_legendre_panels(0.0, spec.k_max, spec.panel_count)
    values = []
    for eps in spec.eps_schedule:
        fk = f(k, eps)
        values.append(complex(np.sum(w * fk)))
        tail = fk[-_GL_NODES:].copy()
        del fk  # so that no level's values stay alive while the next is computed

    # Node-halving estimate of the quadrature error at the least-damped
    # (hardest) level, the last one.
    k2, w2 = gauss_legendre_panels(0.0, spec.k_max, spec.panel_count, _GL_NODES // 2)
    coarse = complex(np.sum(w2 * f(k2, spec.eps_schedule[-1])))
    quad_err = abs(values[-1] - coarse)

    # Truncation heuristic: contribution and envelope of the last panel,
    # from the values of the last level.
    width = spec.k_max / spec.panel_count
    tail_err = abs(np.sum(w[-_GL_NODES:] * tail)) + float(np.max(np.abs(tail))) * width

    value, extrap_err = _extrapolate_to_zero(spec.eps_schedule, values)

    error = quad_err + tail_err + extrap_err
    if tolerance is not None and error > tolerance:
        raise NonConvergenceError(
            f"quadrature error estimate {error:.3e} exceeds tolerance {tolerance:.3e}"
            f" (k_max={spec.k_max}, panels={spec.panel_count})",
            value,
            error,
        )
    return QuadratureResult(value=value, error_estimate=error)
