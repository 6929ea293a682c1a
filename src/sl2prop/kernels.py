"""Closed-form propagators and their factorization routes.

Four kernels: the free particle and the oscillator on the full line, and
their half-line counterparts with an inverse-square term, expressed through
a modified Bessel function of order n.  All four share one form,

    K = A(T) e^{i m c (x1^2 + x2^2) / (2 hbar T)} core(m x1 x2 / (hbar T)),

with T = sin(w t)/w and c = cos(w t) for the oscillators (sho, radial_sho)
and T = t, c = 1 for the w = 0 kernels (free, radial_h0).  w alone switches
the oscillator on: at w = 0 ``sho`` and ``radial_sho`` are ``free`` and
``radial_h0`` bit for bit, and those two pin w to 0 whatever the parameters
say.  The core depends only on the domain:

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

For 0 <= n < 1 the half-line Hamiltonian is not essentially self-adjoint.
I_n takes the extension whose solutions are regular at the wall, x^{n+1/2},
and so do the oracles' J_n and Laguerre eigenbasis L_k^{(n)}: the three
routes make the same choice, so their agreement cannot test it.

Each oscillator kernel can also be assembled from any of the disentangling
identities ``sl2rep.IDENTITY_IDS``: ``route_factors``, the one route entry
point, walks the identity's factors in ``sl2rep.FACTOR_ORDER`` (quadratic
phases and dilations) and returns them with the positions and effective
time at which ``kernel_values`` gives the w = 0 kernel they wrap.  It reads
the factors' exponents hbar alpha, hbar beta and hbar gamma: t_eff =
2 m hbar beta, a dilation d = e^{-+hbar gamma}, and the phase rate
alpha = hbar alpha / hbar, refused by name where it overflows.  The
assembled and closed-form values must agree, which is the core consistency
check of the package.

``kernel_values`` is the one evaluator of the closed forms: a complex
number at scalar positions, an ndarray broadcast from array positions.  A
point a kernel does not define raises, and so does a value that overflows.
``kernel_apply`` applies a kernel to a vector on a uniform grid through the
factors A, the quadratic phase and the core, without forming the matrix.

Time may be complex with Im t <= 0, the damped continuation of the
propagator; at t = -i tau its trace is the partition function.  The Bessel
argument z then leaves the imaginary axis: the core is e^{-|Re z|} I_n(z)
and the chirp's exponent takes e^{|Re z|} back, so nothing overflows.
Im t > 0, where the kernel grows without bound, is refused, as is a w t
that is not finite.  ``kernel_apply`` takes real t only.

Away from the caustics a value's relative error is at most about
C eps kappa, with eps the double-precision machine epsilon and kappa = 1 +
the sum of the magnitudes of the exponent's terms, at sigma = hbar T/m:

- line core: (|c - 1| (x1^2 + x2^2) + (x1 - x2)^2)/(2 |sigma|);
- Bessel core: |c| (x1^2 + x2^2)/(2 |sigma|) + x1 x2/|sigma|, the quadratic
  phase and the Bessel argument.

Each term is a phase that rounding the inputs moves by eps times itself, so
kappa is the limit that double-precision input sets: far out or at short
times a value can have no correct digit, and it is not refused.  Against
mpmath (hbar = m = w = 1, x2 = x1 + 0.3, t in {1e-3, 0.5, 2.5}) the error
reads at most 0.85 eps kappa on the line core and 1.65 eps kappa on the
Bessel core; the tests hold C = 4.

All square roots are principal-branch; the i in 1/sqrt(i t) carries the
phase e^{-i pi/4} for t > 0.  Evaluation refuses within ``CAUSTIC_TOL`` of a
zero of sin(w t), where the oscillator kernels are distributional.
``caustic_position`` alone decides where t lies among those zeros, and the
delta limit t = 0 at w = 0: the caustic index floor(Re w t/pi), the nearest
caustic and the window.  The kernels' refusal and the t stencil of
``evolve.schrodinger_residual`` both read it.  Past the first caustic,
|w t| > pi, the principal branch misses the propagator's phase: ``sho``
repeats with period 2 pi/w instead of changing sign, and ``radial_sho``
gains e^{+i pi (n+1)} per half period, not e^{-i pi (n+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import bessel_i_complex
from .sl2rep import FACTOR_ORDER, PhysParams, factor_coeffs

__all__ = [
    "CAUSTIC_TOL",
    "KERNEL_NAMES",
    "CausticSingularity",
    "KernelKind",
    "caustic_position",
    "kernel_kind",
    "route_factors",
    "kernel_values",
    "kernel_apply",
]

CAUSTIC_TOL = 1e-8

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
    """Requested time is within CAUSTIC_TOL of a zero of sin(w t); the
    nearest caustic is the one ``caustic_position`` names."""

    def __init__(self, t, nearest_caustic_time: float):
        self.t = t
        self.nearest_caustic_time = nearest_caustic_time
        super().__init__(
            f"|sin(w t)| <= {CAUSTIC_TOL:g} at t={t}; nearest caustic at "
            f"t={self.nearest_caustic_time}"
        )


def caustic_position(t, params: PhysParams):
    """Where a real or complex t lies among the caustics of the sl(2)
    factors, the zeros of sin(w t): returns (j, nearest, inside).

    j = floor(Re w t / pi) numbers the caustics below Re t, so t = 0 is a
    boundary; nearest = round(Re w t / pi) pi / w is the nearest caustic;
    inside says whether |sin(w t)| <= ``CAUSTIC_TOL``.  At w = 0 the one
    singular time is the delta limit t = 0: j is 0 or -1 by the sign of Re t,
    nearest is 0 and inside means t = 0.  ``ValueError`` where w t is not
    finite (``PhysParams.omega_t``).
    """
    wt = params.omega_t(t)
    if params.omega == 0:
        return (0 if np.real(t) >= 0 else -1), 0.0, t == 0
    turns = np.real(wt) / math.pi
    # |sin(w t)| >= sinh|Im w t|, past CAUSTIC_TOL at |Im w t| >= 1, where
    # the sine is not taken: it would overflow at large |Im w t|.
    inside = abs(np.imag(wt)) < 1.0 and abs(np.sin(wt)) <= CAUSTIC_TOL
    return math.floor(turns), round(turns) * math.pi / params.omega, inside


def _factors(t, params: PhysParams, bessel: bool):
    """The closed form's scalars at time t, which may be complex: the
    prefactor A(T) of its core, sigma = hbar T/m (the chirp rate is
    a = 1/sigma) and the rate r of its diagonal phase e^{i r x^2/2 sigma},
    with T = sin(w t)/w and c = cos(w t) at w > 0, T = t and c = 1 at
    w = 0.  The Bessel core takes r = c.  The line core shares its
    exponential with the diagonal phase, split as (c - 1)(x1^2 + x2^2) +
    (x1 - x2)^2, and takes r = c - 1 = -2 sin^2(w t/2): no terms of size
    x^2/sigma cancel."""
    oscillator = params.omega > 0
    T = np.sin(params.omega * t) / params.omega if oscillator else t
    sigma = params.hbar * T / params.m
    if bessel:
        # A = m/(i hbar T), which also scales x1 x2 into the Bessel argument.
        return 1.0 / (1j * sigma), sigma, (np.cos(params.omega * t) if oscillator else 1.0)
    rate = -2.0 * np.sin(params.omega * t / 2.0) ** 2 if oscillator else 0.0
    return np.sqrt(params.m / (2.0 * np.pi * params.hbar)) / np.sqrt(1j * T), sigma, rate


def _closed_form(x1, x2, t, params: PhysParams, halfline: bool):
    """A(T) e^{i r (x1^2+x2^2)/2 sigma} core(x1 x2/sigma), sigma = hbar T/m
    and r the diagonal phase rate of ``_factors``; t may be complex."""
    A, sigma, rate = _factors(t, params, halfline)
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if not halfline:
        return A * np.exp(1j / (2.0 * sigma) * (rate * (x1**2 + x2**2) + (x1 - x2) ** 2))
    # The core is e^{-|Re z|} I_n(z), and the chirp's exponent takes
    # e^{|Re z|} back; for real t, z is purely imaginary and |Re z| = 0.
    # The chirp divides last, the order its tabulated values have always
    # been rounded in.
    z = x1 * x2 * A
    return (A * np.sqrt(x1 * x2) * bessel_i_complex(params.n, z)
            * np.exp(1j * (x1**2 + x2**2) * rate / (2.0 * sigma) + np.abs(np.real(z))))


def _checked_kind(name: str, x1, x2, t, params: PhysParams):
    """The named kernel's kind and the parameters of the Hamiltonian it
    propagates (``KernelKind.hamiltonian``), after refusing what the kernel
    does not define at (x1, x2, t): a non-finite t, x1 or x2, t = 0, a
    position <= 0 on the half line, a non-finite w t, the caustic window of
    sin(w t) at w > 0, and Im t > 0.  w = 0 is the free limit under every
    name: ``sho`` and ``radial_sho`` there are ``free`` and ``radial_h0``."""
    kind = kernel_kind(name)
    params = kind.hamiltonian(params)
    for label, v in (("t", t), ("x1", x1), ("x2", x2)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"kernel argument {label} must be finite")
    if t == 0:
        raise ValueError("t = 0 is not a valid kernel argument (delta limit)")
    if kind.halfline and any(np.any(np.asarray(x).real <= 0) for x in (x1, x2)):
        raise ValueError("half-line kernels require strictly positive positions")
    _, nearest, inside = caustic_position(t, params)
    if inside:
        raise CausticSingularity(t, nearest)
    if np.imag(t) > 0:
        raise ValueError(f"Im t > 0 is refused at t={t}: the kernel grows without bound there")
    return kind, params


def kernel_values(name: str, x1, x2, t, params: PhysParams):
    """The named kernel at (x1, x2, t), positions broadcast.

    Returns a Python complex at scalar positions and an ndarray of the
    broadcast shape at array positions.  Scalar positions are evaluated as
    one-element arrays, so a point gives the same bits alone as inside an
    array (numpy's scalar arithmetic rounds differently from its loops).  A
    half-line kernel takes the Bessel core at n = 1/2 too: the image
    difference of two unit-modulus chirps would cancel near the wall.  t may
    be complex with Im t <= 0.  A value that is not finite at finite
    arguments (an intermediate such as x^2 overflowed) is refused.
    """
    scalar = np.ndim(x1) == 0 and np.ndim(x2) == 0
    if scalar:
        x1, x2 = np.reshape(x1, 1), np.reshape(x2, 1)
    with np.errstate(all="ignore"):  # sin(w t) overflows at large |Im w t|
        kind, params = _checked_kind(name, x1, x2, t, params)
        v = _closed_form(x1, x2, t, params, kind.halfline)
    bad = ~np.isfinite(v)
    if np.any(bad):
        x1, x2 = (np.broadcast_to(x, v.shape)[bad][0] for x in (x1, x2))
        raise ValueError(f"kernel {name!r} is not finite at x1={x1:.17g}, x2={x2:.17g}, "
                         f"t={t}: an intermediate overflowed")
    return complex(v[0]) if scalar else v


def kernel_apply(name: str, x0: float, dx: float, v, t: float, params: PhysParams):
    """The named kernel applied to v on the uniform nodes x_j = x0 + j dx.

    Returns sum_k K(x_j, x_k, t) v_k for every node without forming the
    kernel matrix, through the factored form K = A D(x1) C(x1, x2) D(x2):
    the diagonal phase D = e^{i r x^2/2 sigma} of ``_factors`` weights v
    once, u = D v, the core C is applied to u, and A D scales the result
    once.  The core is applied in one of two ways:

    - The line core, and the Bessel core at n = 1/2 as the image difference,
      are a Toeplitz chirp e^{i (x1 - x2)^2/2 sigma} and a Hankel chirp
      e^{i (x1 + x2)^2/2 sigma} in the node indices: 2N - 1 values each,
      convolved with u by FFT in O(N log N).  The outputs kept, N - 1 to
      2N - 2 of the linear convolution, are its valid part, which a circular
      convolution of any length >= 2N - 1 gives without wrap-around; every
      transform takes the least power of two of those.
    - Otherwise the Bessel core I_n(x1 x2 A) depends on the positions only
      through their product, so it is symmetric: with sqrt(x1 x2) split
      into sqrt(x1) sqrt(x2) and moved into D, it is evaluated on the square
      tiles of edge ``_CHUNK`` on and above the diagonal, and each tile off
      the diagonal is applied once as it stands and once transposed, which
      halves the Bessel evaluations.  A tile is applied by ``np.einsum``,
      not by ``@``: a BLAS matvec wakes the BLAS threads, which spin on the
      CPUs that concurrent callers (``evolve``'s frames) need for Bessel
      values.

    Either way the result matches the dense product ``kernel_values(name,
    x[:, None], x[None, :], t, params) @ v`` to within 1e-12 of its peak,
    as the tests hold it.  Refuses what ``kernel_values`` refuses, and a
    complex t: the damped kernel's e^{|Re z|} = e^{x1 x2 |Re A|} does not
    factor into D.
    """
    if np.iscomplexobj(t):
        raise ValueError(f"kernel_apply takes a real t, not t={t}")
    v = np.asarray(v)
    n = v.size
    x = x0 + dx * np.arange(n)
    kind, params = _checked_kind(name, x, x, t, params)
    bessel = kind.halfline and params.n != 0.5
    A, sigma, rate = _factors(t, params, bessel)
    d = np.exp(1j * x**2 * rate / (2.0 * sigma))
    if bessel:
        d = np.sqrt(x) * d
    u = d * v
    if bessel:
        core = np.zeros(n, dtype=complex)
        blocks = [slice(start, start + _CHUNK) for start in range(0, n, _CHUNK)]
        for i, a in enumerate(blocks):
            for b in blocks[i:]:
                tile = bessel_i_complex(params.n, np.multiply.outer(x[a], x[b]) * A)
                core[a] += np.einsum("ij,j->i", tile, u[b])
                if b != a:
                    core[b] += np.einsum("ij,i->j", tile, u[a])
    else:
        # The least power of two >= 2N - 1: a circular convolution that long
        # keeps outputs N - 1 to 2N - 2 free of wrap-around.  N = 0 gives 4.
        size = 1 << (2 * n - 2).bit_length()
        offsets = np.arange(2 * n - 1)
        toeplitz = np.exp(1j * (dx * (offsets - (n - 1))) ** 2 / (2.0 * sigma))
        spectrum = np.fft.fft(toeplitz, size) * np.fft.fft(u, size)
        if kind.halfline:
            # The image term takes (x1 + x2)^2 with the opposite sign.
            hankel = np.exp(1j * (2.0 * x0 + dx * offsets) ** 2 / (2.0 * sigma))
            spectrum -= np.fft.fft(hankel, size) * np.fft.fft(u[::-1], size)
        core = np.fft.ifft(spectrum)[n - 1 : 2 * n - 1]
    return A * d * core


def route_factors(identity: str, x1, x2, t, params: PhysParams):
    """The factors of one disentangling identity around its w = 0 kernel.

    Walks ``FACTOR_ORDER[identity]`` outward from the P2L factor: the
    factors left of it act on x1, those right of it on x2, outermost first.
    An X2 factor adds y^2 to the quadratic phase, of the position y it
    sees.  A D factor scales the amplitude by d = e^{-hbar gamma} on the
    left, e^{+hbar gamma} on the right, and stretches the position by d^2.
    Returns (outer, y1, y2, t_eff): an identity's kernel at time t is
    outer = d e^{-i alpha sum y^2} times the w = 0 kernel at (y1, y2,
    t_eff), with t_eff = 2 m hbar beta, exactly t at w = 0: at w > 0,
    ``outer * kernel_values("radial_h0", y1, y2, t_eff, params)`` is
    ``radial_sho`` and the ``free`` kernel there gives ``sho``.

    Refuses a complex t by name, then what ``sho`` refuses at (x1, x2, t):
    a non-finite t, x1 or x2, t = 0 and, at w > 0, the caustic window of
    sin(w t), where t_eff would be a rounding residue and the kernel a
    delta.  At w = 0 ``sho`` is ``free``, and ``free`` pins that limit.
    The exponents hbar alpha, hbar beta and hbar gamma come from
    ``factor_coeffs``, which refuses an unknown identity and a time outside
    its validity window; the phase rate alpha = hbar alpha / hbar, the one
    quotient by hbar, is refused by name where it overflows.
    """
    if np.iscomplexobj(t):
        raise ValueError(f"route_factors takes a real t, not t={t}")
    _checked_kind("sho", x1, x2, t, params)
    coeffs = factor_coeffs(identity, t, params)
    alpha = coeffs["X2"] / params.hbar
    if not math.isfinite(alpha):
        raise ValueError("alpha is not finite")
    te = t if params.omega == 0.0 else 2.0 * params.m * coeffs["P2L"]
    order = FACTOR_ORDER[identity]
    p = order.index("P2L")
    amplitude, phase, ys = 1.0, 0.0, []
    for y, side, sign in ((x1, order[:p], -1.0), (x2, order[:p:-1], 1.0)):
        y = np.asarray(y)
        for gen_id in side:
            if gen_id == "X2":
                phase = phase + y**2
            else:
                d = math.exp(sign * coeffs["D"])
                amplitude *= d
                y = y * d**2
        ys.append(y)
    return amplitude * np.exp(-1j * alpha * phase), ys[0], ys[1], te

