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
and the packet evolver spends most of its time here.  At tiny arguments,
where scipy returns 0 or NaN, the leading series term is used; any other
non-finite result for a finite argument is refused rather than passed on.
Above x = 1e6 J_0 and J_1 come from ``jv`` as well, and arguments above
1e15, where no routine keeps the phase, are refused.

``bessel_j`` also takes a complex argument with Re z >= 0, which goes to
AMOS ``jv`` (zbesj) at every order: the spectral oracle evaluates J_n on a
ray in the right half plane, and that route shares no code with the Cephes
and spherical routines that the closed forms take at real argument.

``integrate_oscillatory`` is a batched composite Gauss-Legendre rule over
(0, k_max] whose first panel is graded dyadically toward k = 0, where a
spectral integrand behaves like k^{2n+1} and is not smooth at non-integer
2n.  The graded pieces below the top three span little phase and take half
a panel's nodes.  The caller makes the integrand absolutely convergent and
small beyond k_max (the spectral oracle rotates its contour for that); the
rule only integrates.  The integrand may be a batch (leading axes of its
values) sharing one node set; the nodes are walked a fixed number of panels
at a time, which bounds the memory a batch takes, and the node-halving
quadrature error and the truncation-tail error are reported separately,
elementwise over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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
_GRADING = 30  # pieces of the first panel, halving toward k = 0
_THIN = _GRADING - 3  # the graded pieces below the top three: half of _GL_NODES

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


def bessel_j(n: float, x) -> float | complex | np.ndarray:
    """Bessel function of the first kind J_n(x) for real order n >= 0.

    At real x the scipy routine is chosen by the order: ``j0`` and ``j1``
    for n = 0 and 1, sqrt(2x/pi) ``spherical_jn``(n - 1/2, x) for
    half-integer n, and AMOS ``jv`` otherwise; the first three are several
    times faster than ``jv``.  Above x = 1e6 the orders 0 and 1 also go to
    ``jv``: Cephes reduces x - pi/4 in double precision, so ``j0`` and
    ``j1`` err by 3e-11 of the envelope sqrt(2/pi x) at 1e6 and by 2e-3 at
    1e14, where ``jv`` stays within 2e-16.  Beyond |x| = 1e15 every routine
    loses the phase (by 1e16 the error is of the order of the envelope), so
    such arguments are refused.

    A complex x (any complex dtype, even with zero imaginary parts) takes
    AMOS ``jv`` at every order, on the principal branch.

    Parameters
    ----------
    n : float
        Order, n >= 0.
    x : float, complex or array_like
        Argument, x >= 0, or Re x >= 0 if complex.

    Returns
    -------
    float, complex or ndarray
        J_n(x), elementwise for array input, of the argument's kind.
        ``ValueError`` is raised for n < 0, x < 0 (Re x < 0), |x| > 1e15, or
        a non-finite value at a finite argument.
    """
    n = _validate_order(n)
    is_complex = np.iscomplexobj(x)
    x, scalar = _as_array(x, complex if is_complex else float)
    if np.any(x.real < 0):
        raise ValueError("bessel_j requires x >= 0 (Re x >= 0 if complex)")
    top = np.max(np.abs(x) if is_complex else x, initial=0.0)
    if top > _J_ARG_MAX:
        raise ValueError(f"bessel_j argument {top:.17g} exceeds {_J_ARG_MAX:g}: "
                         "the phase of J_n is lost in double precision")
    if is_complex:
        out = special.jv(n, x)
    elif n in (0.0, 1.0):
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
    if scalar:
        return complex(out) if is_complex else float(out)
    return out


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
    """Composite Gauss-Legendre over (0, k_max] in ``panel_count`` equal
    panels, the first of them graded toward k = 0."""

    panel_count: int
    k_max: float

    def __post_init__(self):
        if self.panel_count < 1:
            raise ValueError("panel_count must be >= 1")
        if not self.k_max > 0:
            raise ValueError("k_max must be > 0")


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error terms of ``integrate_oscillatory``.

    For a scalar integrand the value is complex and the terms are floats;
    for a batch, each is an array of the batch shape.  ``quad_err`` is the
    node-halving difference and ``tail_err`` the truncation heuristic from
    the last panel.
    """

    value: complex | np.ndarray
    quad_err: float | np.ndarray
    tail_err: float | np.ndarray

    @property
    def error_estimate(self) -> float | np.ndarray:
        """The sum of the two terms."""
        return self.quad_err + self.tail_err


@lru_cache(maxsize=32)
def _gl_reference(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def gauss_legendre_panels(
    edges: np.ndarray, nodes_per_panel: int = _GL_NODES
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on the panels between
    successive ``edges``."""
    xr, wr = _gl_reference(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    k = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    w = (half[:, None] * wr[None, :]).ravel()
    return k, w


def _panel_edges(spec: QuadratureSpec) -> np.ndarray:
    """The edges of ``spec``'s panels, the first split into ``_GRADING``
    pieces that halve toward 0: [0, h/2^29], [h/2^29, h/2^28], ..., [h/2, h]."""
    edges = np.linspace(0.0, spec.k_max, spec.panel_count + 1)
    graded = edges[1] * 0.5 ** np.arange(_GRADING - 1, 0, -1)
    return np.concatenate([edges[:1], graded, edges[1:]])


def _panel_sums(integrand, edges: np.ndarray, nodes: int):
    """The sum of g w over the rule's nodes, made and walked
    ``_BLOCK_PANELS`` panels at a time, and the last panel's g and weights.
    Each panel takes ``nodes`` nodes, except the ``_THIN`` lowest graded
    pieces, which take half as many."""
    total = 0.0
    for lo in range(0, edges.size - 1, _BLOCK_PANELS):
        hi = lo + _BLOCK_PANELS
        thin = min(max(lo, _THIN), hi)
        k_thin, w_thin = gauss_legendre_panels(edges[lo : thin + 1], nodes // 2)
        k_full, w_full = gauss_legendre_panels(edges[thin : hi + 1], nodes)
        w = np.concatenate([w_thin, w_full])
        g = integrand(np.concatenate([k_thin, k_full]))
        total = total + np.sum(g * w, axis=-1)
    last = slice(-nodes, None)
    return total, g[..., last], w[last]


def integrate_oscillatory(
    integrand: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
) -> QuadratureResult:
    """Integral of a smooth, absolutely convergent integrand over (0, k_max].

    ``integrand(k)`` returns the values g(k), of shape ``batch + k.shape``
    for a batch of integrands that share their nodes (``batch`` may be
    empty).  The rule is composite Gauss-Legendre, ``_GL_NODES`` nodes on
    each of ``spec.panel_count`` equal panels, with the first panel split
    into ``_GRADING`` pieces that halve toward k = 0: an integrand that
    behaves like k^{2n+1} at the origin is not smooth there at non-integer
    2n (the spectral oracle at n = 0.024, x = (0.16, 2.5), t = 0.23 is off
    by 1.8e-7 with a plain first panel and by 3.4e-12 with the graded one).

    Only the top three pieces take ``_GL_NODES`` nodes; the 27 below take
    half as many.  The spectral oracle sizes a panel to at most 12 rad of a
    phase that grows linearly and quadratically from k = 0, so the top three
    pieces hold at most 9, 3 and 1.5 rad of it and each piece below at most
    0.75 rad, where half the nodes resolve the phase and the factor-2 span
    of k^{2n+1} alike.  The top piece needs the full rule: with half, the
    coarse rule on its 9 rad raises the node-halving estimate of the
    default oracle-compare rows from 1e-11 to 1e-7.  The next two keep it
    as a margin.  A call with 8 panels takes 564 nodes on the fine rule and
    282 on the coarse one.

    The nodes are made and walked ``_BLOCK_PANELS`` panels at a time, so
    ``integrand`` never sees more than that many panels' nodes in one call:
    once over the Gauss-Legendre nodes, and once more over the half-density
    nodes for the error estimate.  The block size bounds the memory of a
    batch and of the node set, and does not change the rule.

    The error is reported as two terms, each of the batch shape: the
    node-halving quadrature error (``quad_err``) and a truncation-tail
    heuristic from the last panel, its contribution plus its largest |g|
    times the panel width (``tail_err``); ``error_estimate`` is their sum.

    Parameters
    ----------
    integrand : callable
        Called as integrand(k_array) -> values.
    spec : QuadratureSpec
        The panels and the truncation point.

    Returns
    -------
    QuadratureResult
        Scalars for a scalar integrand, arrays of the batch shape otherwise.
    """
    edges = _panel_edges(spec)
    value, g, w = _panel_sums(integrand, edges, _GL_NODES)
    width = spec.k_max / spec.panel_count
    tail_err = np.abs(np.sum(w * g, axis=-1)) + np.max(np.abs(g), axis=-1) * width
    quad_err = np.abs(value - _panel_sums(integrand, edges, _GL_NODES // 2)[0])
    if np.ndim(value) == 0:
        return QuadratureResult(complex(value), float(quad_err), float(tail_err))
    return QuadratureResult(value, quad_err, tail_err)
