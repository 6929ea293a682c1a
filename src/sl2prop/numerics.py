"""Special functions and quadrature used throughout the package.

Bessel functions of the first kind (real order, real argument) and modified
Bessel functions (real order, complex argument) are evaluated from an
ascending Gamma-normalized power series below ``SERIES_CROSSOVER`` and from
the large-argument (Hankel/Debye-type) expansions above it.  Orders 1/2 and
3/2 have dedicated closed trigonometric/hyperbolic forms; they serve both as
fast paths and as independent cross-checks on the generic machinery.

The oscillatory half-line integrals that arise as spectral representations
of propagators are conditionally convergent for real time; they are computed
with a small complex damping of the time variable and polynomial
extrapolation of the damping strength to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SERIES_CROSSOVER",
    "SERIES_TERMS",
    "DEFAULT_EPSILON",
    "DEFAULT_EXTRAPOLATION_LEVELS",
    "NonConvergenceError",
    "QuadratureSpec",
    "QuadratureResult",
    "gamma_real",
    "bessel_j",
    "bessel_i_complex",
    "gauss_legendre_panels",
    "integrate_oscillatory",
]

# Crossover between the ascending series and the large-argument expansion.
# At |z| = 12 the 30-term series is converged to well below 1e-12 while the
# alternating-sign cancellation still leaves ~1e-11 relative accuracy; the
# asymptotic sums reach a comparable floor there from the other side.
SERIES_CROSSOVER = 12.0
SERIES_TERMS = 30
_ASYM_TERMS = 26
_GL_NODES = 24

DEFAULT_EPSILON = 1e-2
DEFAULT_EXTRAPOLATION_LEVELS = 3


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

    Thin wrapper around ``math.gamma`` restricted to a > 0; used for the
    1/Gamma(n+k+1) normalization of the Bessel series.
    """
    if a <= 0:
        raise ValueError(f"gamma_real requires a > 0, got a={a}")
    return math.gamma(a)


def _validate_order(n: float) -> float:
    n = float(n)
    if not n >= 0:
        raise ValueError(f"Bessel order must satisfy n >= 0, got n={n}")
    return n


@lru_cache(maxsize=128)
def _series_coeffs(n: float) -> np.ndarray:
    """Coefficients 1 / (k! Gamma(n+k+1)) for k = 0 .. SERIES_TERMS-1."""
    c = np.empty(SERIES_TERMS)
    c[0] = 1.0 / math.gamma(n + 1.0)
    for k in range(1, SERIES_TERMS):
        c[k] = c[k - 1] / (k * (n + k))
    return c


@lru_cache(maxsize=128)
def _asym_coeffs(n: float) -> np.ndarray:
    """Hankel-expansion coefficients a_k(n) for k = 0 .. _ASYM_TERMS-1.

    a_0 = 1 and a_k = a_{k-1} (4n^2 - (2k-1)^2) / (8k).  For half-integer n
    the product terminates, making the expansion exact.
    """
    fournsq = 4.0 * n * n
    a = np.empty(_ASYM_TERMS)
    a[0] = 1.0
    for k in range(1, _ASYM_TERMS):
        a[k] = a[k - 1] * (fournsq - (2 * k - 1) ** 2) / (8.0 * k)
    return a


def _as_array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    return arr, arr.ndim == 0


def _bessel_j_series(n: float, x: np.ndarray) -> np.ndarray:
    """Ascending series for J_n, alternating signs, SERIES_TERMS terms."""
    c = _series_coeffs(n)
    u = 0.25 * x * x
    # Horner in u with alternating signs folded in.
    s = np.full_like(u, c[SERIES_TERMS - 1])
    for k in range(SERIES_TERMS - 2, -1, -1):
        s = c[k] - u * s
    out = np.zeros_like(u)
    nz = x > 0
    out[nz] = np.power(0.5 * x[nz], n) * s[nz]
    if np.any(~nz):
        out[~nz] = c[0] if n == 0.0 else 0.0
    return out


def _bessel_j_asymptotic(n: float, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion sqrt(2/(pi x)) (P cos(chi) - Q sin(chi))."""
    a = _asym_coeffs(n)
    inv2 = 1.0 / (x * x)
    # P: even-index coefficients with alternating sign, Horner in 1/x^2.
    jmax_p = (_ASYM_TERMS - 1) // 2
    p = np.full_like(x, a[2 * jmax_p] * (-1.0) ** jmax_p)
    for j in range(jmax_p - 1, -1, -1):
        p = a[2 * j] * (-1.0) ** j + inv2 * p
    jmax_q = (_ASYM_TERMS - 2) // 2
    q = np.full_like(x, a[2 * jmax_q + 1] * (-1.0) ** jmax_q)
    for j in range(jmax_q - 1, -1, -1):
        q = a[2 * j + 1] * (-1.0) ** j + inv2 * q
    q = q / x
    chi = x - (0.5 * n + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j(n: float, x) -> float | np.ndarray:
    """Bessel function of the first kind J_n(x) for real order n >= 0.

    Parameters
    ----------
    n : float
        Order, n >= 0.  Orders 1/2 and 3/2 use their closed forms.
    x : float or array_like
        Argument, x >= 0.

    Returns
    -------
    float or ndarray
        J_n(x), elementwise for array input.
    """
    n = _validate_order(n)
    x, scalar = _as_array(x, float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    if n == 0.5 or n == 1.5:
        out = np.zeros_like(x)
        nz = x > 0
        xs = x[nz]
        pref = np.sqrt(2.0 / (np.pi * xs))
        if n == 0.5:
            out[nz] = pref * np.sin(xs)
        else:
            out[nz] = pref * (np.sin(xs) / xs - np.cos(xs))
    else:
        out = np.empty_like(x)
        small = x < SERIES_CROSSOVER
        if np.any(small):
            out[small] = _bessel_j_series(n, x[small])
        if np.any(~small):
            out[~small] = _bessel_j_asymptotic(n, x[~small])
    return float(out) if scalar else out


def _bessel_i_series_scaled(n: float, z: np.ndarray) -> np.ndarray:
    """Ascending series for e^{-|Re z|} I_n(z), all-positive coefficients."""
    c = _series_coeffs(n)
    u = 0.25 * z * z
    s = np.full(z.shape, c[SERIES_TERMS - 1], dtype=complex)
    for k in range(SERIES_TERMS - 2, -1, -1):
        s = c[k] + u * s
    out = np.zeros_like(s)
    nz = z != 0
    out[nz] = np.power(0.5 * z[nz], n) * s[nz] * np.exp(-np.abs(z[nz].real))
    if np.any(~nz):
        out[~nz] = c[0] if n == 0.0 else 0.0
    return out


def _bessel_i_asymptotic_scaled(n: float, z: np.ndarray) -> np.ndarray:
    """Two-term large-argument expansion of e^{-|Re z|} I_n(z).

    Both exponentials are kept: on and near the imaginary axis the
    recessive term is not small.  The half-plane of the (n+1/2)pi phase is
    picked by the sign of Im z.
    """
    a = _asym_coeffs(n)
    invz = 1.0 / z
    s1 = np.full(z.shape, a[_ASYM_TERMS - 1] * (-1.0) ** (_ASYM_TERMS - 1), dtype=complex)
    s2 = np.full(z.shape, a[_ASYM_TERMS - 1], dtype=complex)
    for k in range(_ASYM_TERMS - 2, -1, -1):
        s1 = a[k] * (-1.0) ** k + invz * s1
        s2 = a[k] + invz * s2
    absre = np.abs(z.real)
    grow = np.exp(z - absre)
    decay = np.exp(-z - absre)
    sign = np.where(z.imag >= 0, 1.0, -1.0)
    phase = np.exp(1j * sign * (n + 0.5) * np.pi)
    return (grow * s1 + phase * decay * s2) / np.sqrt(2.0 * np.pi * z)


def _sinh_scaled(z: np.ndarray) -> np.ndarray:
    absre = np.abs(z.real)
    return 0.5 * (np.exp(z - absre) - np.exp(-z - absre))


def _cosh_scaled(z: np.ndarray) -> np.ndarray:
    absre = np.abs(z.real)
    return 0.5 * (np.exp(z - absre) + np.exp(-z - absre))


def bessel_i_complex(n: float, z, scaled: bool = False) -> complex | np.ndarray:
    """Modified Bessel function I_n(z) for real order n >= 0 and complex z.

    Purely imaginary arguments are routed through the connection
    I_n(iy) = e^{i n pi/2} J_n(y), which is where the propagator formulas
    live for real time.  Orders 1/2 and 3/2 use their hyperbolic closed
    forms.

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
    """
    n = _validate_order(n)
    z, scalar = _as_array(z, complex)
    out = np.empty(z.shape, dtype=complex)

    if n == 0.5 or n == 1.5:
        nz = z != 0
        zs = z[nz]
        pref = np.sqrt(2.0 / (np.pi * zs))
        if n == 0.5:
            out[nz] = pref * _sinh_scaled(zs)
        else:
            out[nz] = pref * (_cosh_scaled(zs) - _sinh_scaled(zs) / zs)
        out[~nz] = 0.0
    else:
        imag_axis = (z.real == 0) & (z.imag != 0)
        rest = ~imag_axis
        if np.any(imag_axis):
            y = z[imag_axis].imag
            j = bessel_j(n, np.abs(y))
            out[imag_axis] = np.exp(1j * np.sign(y) * n * np.pi / 2) * j
        if np.any(rest):
            zr = z[rest]
            sub = np.empty(zr.shape, dtype=complex)
            small = np.abs(zr) < SERIES_CROSSOVER
            if np.any(small):
                sub[small] = _bessel_i_series_scaled(n, zr[small])
            if np.any(~small):
                sub[~small] = _bessel_i_asymptotic_scaled(n, zr[~small])
            out[rest] = sub

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

    ``epsilon`` is the largest damping strength; the schedule halves it
    ``extrapolation_levels`` times (default {1e-2, 5e-3, 2.5e-3}) before the
    polynomial extrapolation to zero.  ``epsilon = 0`` disables damping and
    extrapolation entirely.
    """

    rule: str = "gauss-legendre-panel"
    panel_count: int = 64
    k_max: float = 30.0
    epsilon: float = DEFAULT_EPSILON
    extrapolation_levels: int = DEFAULT_EXTRAPOLATION_LEVELS

    def __post_init__(self):
        if self.rule not in ("gauss-legendre-panel", "trapezoid"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.panel_count < 1:
            raise ValueError("panel_count must be >= 1")
        if not self.k_max > 0:
            raise ValueError("k_max must be > 0")
        if not 0 <= self.epsilon < 1:
            raise ValueError("epsilon must satisfy 0 <= epsilon < 1")
        if self.extrapolation_levels < 1:
            raise ValueError("extrapolation_levels must be >= 1")

    def epsilon_schedule(self) -> list[float]:
        if self.epsilon == 0:
            return [0.0]
        return [self.epsilon * 0.5**j for j in range(self.extrapolation_levels)]


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


def _nodes_for(spec: QuadratureSpec, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    if spec.rule == "gauss-legendre-panel":
        return gauss_legendre_panels(0.0, spec.k_max, spec.panel_count, nodes_per_panel)
    # Trapezoid: open at k=0 is not needed (integrands here vanish there);
    # sample the same node budget on a closed uniform grid.
    npts = spec.panel_count * nodes_per_panel + 1
    k = np.linspace(0.0, spec.k_max, npts)
    w = np.full(npts, spec.k_max / (npts - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
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
    eps_schedule: Sequence[float] | None = None,
) -> QuadratureResult:
    """Regularized integral of ``f`` over k in (0, k_max].

    ``f(k, eps)`` must evaluate the integrand with damping strength ``eps``
    applied to its time variable (t -> t(1 - i eps sign t)); the integral is
    computed at each strength in the schedule and polynomially extrapolated
    to eps = 0.

    The reported error estimate combines the node-halving quadrature error,
    a truncation-tail heuristic from the last panel, and the final
    extrapolation step.  If ``tolerance`` is given and the estimate exceeds
    it, ``NonConvergenceError`` is raised.

    Parameters
    ----------
    f : callable
        Integrand, called as f(k_array, eps) -> complex array.
    spec : QuadratureSpec
    tolerance : float, optional
        Error-estimate ceiling; exceeding it raises.
    eps_schedule : sequence of float, optional
        Explicit damping strengths overriding the spec's halving schedule.

    Returns
    -------
    QuadratureResult
    """
    eps_list = list(eps_schedule) if eps_schedule is not None else spec.epsilon_schedule()
    if not eps_list:
        raise ValueError("empty epsilon schedule")

    k, w = _nodes_for(spec, _GL_NODES)
    values = []
    for eps in eps_list:
        values.append(complex(np.sum(w * f(k, eps))))

    eps_min = eps_list[-1]
    # Node-halving estimate of the quadrature error at the least-damped
    # (hardest) level.
    k2, w2 = _nodes_for(spec, _GL_NODES // 2)
    coarse = complex(np.sum(w2 * f(k2, eps_min)))
    quad_err = abs(values[-1] - coarse)

    # Truncation heuristic: contribution and envelope of the last panel.
    per_panel = _GL_NODES
    fk = f(k[-per_panel:], eps_min)
    width = spec.k_max / spec.panel_count
    tail_err = abs(np.sum(w[-per_panel:] * fk)) + float(np.max(np.abs(fk))) * width

    if len(eps_list) > 1:
        value, extrap_err = _extrapolate_to_zero(eps_list, values)
    else:
        value, extrap_err = values[0], 0.0

    error = quad_err + tail_err + extrap_err
    if tolerance is not None and error > tolerance:
        raise NonConvergenceError(
            f"quadrature error estimate {error:.3e} exceeds tolerance {tolerance:.3e}"
            f" (k_max={spec.k_max}, panels={spec.panel_count})",
            value,
            error,
        )
    return QuadratureResult(value=value, error_estimate=error)
