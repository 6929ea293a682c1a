"""Closed-form propagators and their factorization routes.

Four kernels: the free particle and the oscillator on the full line, and
their half-line counterparts with an inverse-square term, expressed through
a modified Bessel function of order n.  All four share one form,

    K = A(T) e^{i m c (x1^2 + x2^2) / (2 hbar T)} core(m x1 x2 / (hbar T)),

with T = sin(w t)/w and c = cos(w t) for the oscillators (sho, radial_sho)
and T = t, c = 1 for the w = 0 kernels (free, radial_h0).  The core depends
only on the domain:

- line (free, sho): A = sqrt(m/(2 pi i hbar T)), core e^{-i m x1 x2/hbar T};
- Bessel (radial kernels): A = m/(i hbar T), core
  sqrt(x1 x2) I_n(m x1 x2/(i hbar T)).  At n = 1/2 it is the Dirichlet image
  difference line(x1, x2) - line(x1, -x2) (DLMF 10.49), which
  ``kernel_apply`` applies by FFT.

Written out, with x1, x2 > 0 on the half line:

- free: sqrt(m/(2 pi i hbar t)) e^{i m (x1 - x2)^2/(2 hbar t)}, of modulus
  sqrt(m/(2 pi hbar |t|)) at every separation; t -> -t conjugates it;
- sho: sqrt(m w/(2 pi i hbar sin wt))
  exp{(i m w/2 hbar)[(x1^2 + x2^2) cot wt - 2 x1 x2 csc wt]}, which goes
  over into the free kernel as w -> 0;
- radial_h0: (m sqrt(x1 x2)/(i hbar t)) I_n(m x1 x2/(i hbar t))
  e^{i m (x1^2 + x2^2)/(2 hbar t)};
- radial_sho: (m w sqrt(x1 x2)/(i hbar sin wt)) I_n(m w x1 x2/(i hbar sin wt))
  e^{(i m w/2 hbar)(x1^2 + x2^2) cot wt}, the quadratic phases wrapped
  around radial_h0 at the effective time sin(wt)/w.

Each kernel can also be assembled from a disentangling identity (quadratic
phase factors around a re-timed w = 0 kernel, plus a dilation rescaling for
the appendix routes); the assembled and closed-form values must agree,
which is the core consistency check of the package.

``kernel_values`` is the one evaluator of the closed forms: a complex
number at scalar positions, an ndarray broadcast from array positions.  A
point a kernel does not define raises.
``kernel_apply`` applies a kernel to a vector on a uniform grid through the
factors A, the quadratic phase and the core, without forming the matrix.

All square roots are principal-branch; the i in 1/sqrt(i t) carries the
phase e^{-i pi/4} for t > 0.  Evaluation refuses within ``CAUSTIC_TOL`` of a
zero of sin(w t), where the oscillator kernels are distributional.  Past the
first caustic, |w t| > pi, the principal branch misses the propagator's
phase: ``sho`` repeats with period 2 pi/w instead of changing sign, and
``radial_sho`` gains e^{+i pi (n+1)} per half period, not e^{-i pi (n+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import bessel_i_complex
from .sl2rep import PhysParams, factor_coeffs

__all__ = [
    "CAUSTIC_TOL",
    "ROUTE_IDS",
    "KERNEL_NAMES",
    "CausticSingularity",
    "KernelKind",
    "kernel_kind",
    "main_wrap",
    "kernel_values",
    "kernel_apply",
    "kernel_via_route",
]

CAUSTIC_TOL = 1e-8

ROUTE_IDS = ("ELEMENT", "A1a", "A2a", "A3a")

# Edge of the square upper-triangle tiles of the Bessel core in
# ``kernel_apply``: no Bessel call sees more than _CHUNK ** 2 points.  It
# bounds memory under concurrency too: ``evolve`` propagates its frames on
# one thread each, a tile in flight per thread, and at 128 two tiles take
# no more memory than one of 256 did.
_CHUNK = 128


@dataclass(frozen=True)
class KernelKind:
    """Domain and Hamiltonian of one kernel."""

    halfline: bool
    oscillator: bool

    def hamiltonian(self, params: PhysParams) -> PhysParams:
        """Parameters of the Hamiltonian this kernel propagates: full-line
        kernels carry no inverse-square term (n = 1/2), the w = 0 kernels no
        oscillator term."""
        return PhysParams(hbar=params.hbar, m=params.m,
                          omega=params.omega if self.oscillator else 0.0,
                          n=params.n if self.halfline else 0.5)


_KINDS = {
    "free": KernelKind(halfline=False, oscillator=False),
    "sho": KernelKind(halfline=False, oscillator=True),
    "radial_h0": KernelKind(halfline=True, oscillator=False),
    "radial_sho": KernelKind(halfline=True, oscillator=True),
}
KERNEL_NAMES = tuple(_KINDS)


def kernel_kind(name: str) -> KernelKind:
    """Domain and Hamiltonian of the named kernel; ``ValueError`` if unknown."""
    if name not in _KINDS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNEL_NAMES}")
    return _KINDS[name]


class CausticSingularity(ValueError):
    """Requested time is within CAUSTIC_TOL of a zero of sin(w t)."""

    def __init__(self, t: float, omega: float, caustic_tol: float):
        # A complex t lies in the window only near the real axis; the
        # nearest caustic is taken from the real part of w t.
        k = round(np.real(omega * t) / math.pi)
        self.t = t
        self.nearest_caustic_time = k * math.pi / omega
        super().__init__(
            f"|sin(w t)| <= {caustic_tol:g} at t={t}; nearest caustic at "
            f"t={self.nearest_caustic_time}"
        )


def _factors(t, params: PhysParams, oscillator: bool, bessel: bool):
    """The closed form's scalars at time t, which may be complex: the
    prefactor A(T) of its core, sigma = hbar T/m (the chirp rate is
    a = 1/sigma) and c = cos(w t), with T = sin(w t)/w (w > 0) for an oscillator."""
    T = np.sin(params.omega * t) / params.omega if oscillator else t
    c = np.cos(params.omega * t) if oscillator else 1.0
    sigma = params.hbar * T / params.m
    if bessel:
        # A = m/(i hbar T), which also scales x1 x2 into the Bessel argument.
        return 1.0 / (1j * sigma), sigma, c
    return np.sqrt(params.m / (2.0 * np.pi * params.hbar)) / np.sqrt(1j * T), sigma, c


def _closed_form(x1, x2, t, params: PhysParams, oscillator: bool, halfline: bool):
    """A(T) e^{i c (x1^2+x2^2)/2 sigma} core(x1 x2/sigma), sigma = hbar T/m; t may be complex."""
    A, sigma, c = _factors(t, params, oscillator, halfline)
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if not halfline:
        # The line core shares the exponential with the quadratic phase.  Its
        # exponent is split as (c - 1)(x1^2 + x2^2) + (x1 - x2)^2, with
        # c - 1 = -2 sin^2(w t/2), so that no terms of size x^2/sigma cancel.
        cm1 = -2.0 * np.sin(params.omega * t / 2.0) ** 2 if oscillator else 0.0
        return A * np.exp(1j / (2.0 * sigma) * (cm1 * (x1**2 + x2**2) + (x1 - x2) ** 2))
    # The Bessel argument is purely imaginary for real t, so the modified
    # Bessel factor reduces to an ordinary (bounded) Bessel function through
    # the imaginary-axis connection and never overflows.  The chirp divides
    # last, the order its tabulated values have always been rounded in.
    return (A * np.sqrt(x1 * x2) * bessel_i_complex(params.n, x1 * x2 * A)
            * np.exp(1j * (x1**2 + x2**2) * c / (2.0 * sigma)))


def _checked_kind(name: str, x1, x2, t, params: PhysParams) -> KernelKind:
    """The named kernel's kind, after refusing what the kernel does not
    define at (x1, x2, t): w <= 0 for an oscillator, a non-finite t, x1 or
    x2, t = 0, a position <= 0 on the half line, and the caustic window of
    sin(w t)."""
    kind = kernel_kind(name)
    if kind.oscillator and params.omega <= 0:
        limit = "radial_h0" if kind.halfline else "free"
        raise ValueError(
            f"kernel {name!r} requires omega > 0; use {limit!r} at omega = 0"
        )
    for label, v in (("t", t), ("x1", x1), ("x2", x2)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"kernel argument {label} must be finite")
    if t == 0:
        raise ValueError("t = 0 is not a valid kernel argument (delta limit)")
    if kind.halfline and any(np.any(np.asarray(x).real <= 0) for x in (x1, x2)):
        raise ValueError("half-line kernels require strictly positive positions")
    if kind.oscillator and abs(np.sin(params.omega * t)) <= CAUSTIC_TOL:
        raise CausticSingularity(t, params.omega, CAUSTIC_TOL)
    return kind


def kernel_values(name: str, x1, x2, t, params: PhysParams):
    """The named kernel at (x1, x2, t), positions broadcast.

    Returns a Python complex at scalar positions and an ndarray of the
    broadcast shape at array positions.  A half-line kernel takes the
    Bessel core at n = 1/2 too: the image difference of two unit-modulus
    chirps would cancel near the wall.  t may be complex, as in the
    damped-time checks; the refusals are the same for every t.
    """
    kind = _checked_kind(name, x1, x2, t, params)
    v = _closed_form(x1, x2, t, params, kind.oscillator, kind.halfline)
    return v if np.ndim(v) else complex(v)


def kernel_apply(name: str, x0: float, dx: float, v, t: float, params: PhysParams):
    """The named kernel applied to v on the uniform nodes x_j = x0 + j dx.

    Returns sum_k K(x_j, x_k, t) v_k for every node, through the factored
    form K = A D(x1) C(x1, x2) D(x2) with a quadratic phase D, so the kernel
    matrix is never formed.  The line core, and the Bessel core at n = 1/2
    as the image difference, become a Toeplitz chirp e^{i (x1 - x2)^2/2
    sigma} and a Hankel chirp e^{i (x1 + x2)^2/2 sigma} in the node indices,
    applied by one zero-padded FFT convolution in O(N log N).  Otherwise
    the Bessel core I_n(x1 x2 A) depends on the positions only through
    their product, so it is symmetric: with sqrt(x1 x2) split into sqrt(x1)
    sqrt(x2) and moved into D, it is evaluated on the square tiles of edge
    ``_CHUNK`` on and above the diagonal, and each tile off the diagonal is
    applied once as it stands and once transposed, which halves the Bessel
    evaluations.  A tile is applied by ``np.einsum``, not by ``@``: a BLAS
    matvec wakes the BLAS threads, which spin on the CPUs that concurrent
    callers (``evolve``'s frames) need for Bessel values.
    Refuses what ``kernel_values`` refuses.
    """
    v = np.asarray(v)
    x = x0 + dx * np.arange(v.size)
    kind = _checked_kind(name, x, x, t, params)
    bessel = kind.halfline and params.n != 0.5
    A, sigma, c = _factors(t, params, kind.oscillator, bessel)
    if bessel:
        d = np.sqrt(x) * np.exp(1j * x**2 * c / (2.0 * sigma))
        u = d * v
        out = np.zeros(v.size, dtype=complex)
        blocks = [slice(start, start + _CHUNK) for start in range(0, v.size, _CHUNK)]
        for i, a in enumerate(blocks):
            for b in blocks[i:]:
                tile = bessel_i_complex(params.n, np.multiply.outer(x[a], x[b]) * A)
                out[a] += np.einsum("ij,j->i", tile, u[b])
                if b != a:
                    out[b] += np.einsum("ij,i->j", tile, u[a])
        return A * d * out
    # c (x1^2 + x2^2) - 2 x1 x2 = (c - 1)(x1^2 + x2^2) + (x1 - x2)^2, and at
    # n = 1/2 the image term takes (x1 + x2)^2 with the opposite sign.
    d = np.exp(1j * x**2 * (c - 1.0) / (2.0 * sigma))
    u = d * v
    n = v.size
    size = _fast_len(3 * n - 2)
    offsets = np.arange(2 * n - 1)
    toeplitz = np.exp(1j * (dx * (offsets - (n - 1))) ** 2 / (2.0 * sigma))
    spectrum = np.fft.fft(toeplitz, size) * np.fft.fft(u, size)
    if kind.halfline:
        hankel = np.exp(1j * (2.0 * x0 + dx * offsets) ** 2 / (2.0 * sigma))
        spectrum -= np.fft.fft(hankel, size) * np.fft.fft(u[::-1], size)
    return A * d * np.fft.ifft(spectrum)[n - 1 : 2 * n - 1]


def _fast_len(n: int) -> int:
    """The least length >= n whose prime factors are all 2, 3, 5, 7 or 11:
    the lengths that numpy's pocketfft transforms in its fast radices, as
    ``scipy.fft.next_fast_len`` chooses them for a complex transform."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def main_wrap(x1, x2, t, params: PhysParams):
    """Quadratic phase and effective time of the MAIN factorization.

    Returns (e^{-i alpha (x1^2 + x2^2)}, t_eff), alpha and t_eff = 2 m hbar
    beta taken from ``factor_coeffs("MAIN")``: an oscillator kernel at time
    t is this phase times the w = 0 kernel at t_eff.  At w = 0 the phase is
    1 and t_eff = t.
    """
    if params.omega == 0.0:
        alpha, te = 0.0, t
    else:
        coeffs = factor_coeffs("MAIN", t, params)
        alpha, te = coeffs.alpha, 2.0 * params.m * params.hbar * coeffs.beta
    return np.exp(-1j * alpha * (x1**2 + x2**2)), te


def kernel_via_route(route: str, x1, x2, t: float, params: PhysParams,
                     halfline: bool = True) -> complex | np.ndarray:
    """Kernel value assembled along one factorization route.

    ``ELEMENT`` wraps the w = 0 kernel at the effective time sin(wt)/w in
    the quadratic phase factors of the symmetric factorization.  The
    appendix routes additionally carry a dilation factor e^{+-hbar gamma}
    and a rescaled position argument (position eigenstates pick up
    e^{hbar gamma} and a stretch e^{2 hbar gamma} under the dilation).  The
    inverse-square factor is the w = 0 kernel at effective time
    2 m hbar beta.

    ``halfline=False`` selects the coupling-free full-line assembly (order
    pinned to 1/2, i.e. lam = 0), whose closed form is the ``sho`` kernel.

    Every route is checked against the closed form ``kernel_values`` of
    ``radial_sho`` (or ``sho``); the appendix routes require cos(wt) > 0 on
    top of the caustic window.
    """
    if route not in ROUTE_IDS:
        raise ValueError(f"unknown route {route!r}; choose from {ROUTE_IDS}")
    if not halfline and params.n != 0.5:
        raise ValueError("full-line routes require lam = 0, i.e. n = 1/2")
    _checked_kind("radial_sho" if halfline else "sho", x1, x2, t, params)
    h = params.hbar
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)

    if route == "ELEMENT":
        phase, te = main_wrap(x1, x2, t, params)
        y1, y2 = x1, x2
    else:
        coeffs = factor_coeffs(route, t, params)
        te = 2.0 * params.m * h * coeffs.beta
        # The dilation stretches the position on its side of the P2L factor
        # by d^2 and scales the amplitude by d: x1 for A1a and A2a, whose
        # dilation precedes P2L, x2 for A3a.  A2a's X2 phase follows the
        # dilation and sees the stretched x1.
        left = route != "A3a"
        d = math.exp((-h if left else h) * coeffs.gamma)
        y1, y2 = (x1 * d**2, x2) if left else (x1, x2 * d**2)
        xa = y1 if route == "A2a" else x1
        phase = d * np.exp(-1j * coeffs.alpha * xa**2)
    v = phase * _closed_form(y1, y2, te, params, False, halfline)
    return v if np.ndim(v) else complex(v)
