"""Closed-form propagators and their factorization routes.

Four kernels: the free particle and the oscillator on the full line, and
their half-line counterparts with an inverse-square term, expressed through
a modified Bessel function of order n.  All four share one form,

    K = A(T) e^{i m c (x1^2 + x2^2) / (2 hbar T)} core(m x1 x2 / (hbar T)),

with T = sin(w t)/w and c = cos(w t) for the oscillators (sho, radial_sho)
and T = t, c = 1 for the w = 0 kernels (free, radial_h0).  The core depends
only on the domain and the order:

- ``line`` (free, sho): A = sqrt(m/(2 pi i hbar T)), core e^{-i m x1 x2/hbar T};
- ``bessel`` (radial kernels, n != 1/2): A = m/(i hbar T), core
  sqrt(x1 x2) I_n(m x1 x2/(i hbar T));
- ``image`` (radial kernels, n = 1/2): the Dirichlet image difference
  line(x1, x2) - line(x1, -x2), which the Bessel core equals at that order.

Each kernel can also be assembled from a disentangling identity (quadratic
phase factors around a re-timed w = 0 kernel, plus a dilation rescaling for
the appendix routes); the assembled and direct values must agree, which is
the core consistency check of the package.

All square roots are principal-branch; the i in 1/sqrt(i t) carries the
phase e^{-i pi/4} for t > 0.  Evaluation refuses within ``CAUSTIC_TOL`` of a
zero of sin(w t), where the oscillator kernels are distributional; no
continuation phase beyond the first caustic is asserted anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import bessel_i_complex
from .sl2rep import PhysParams, factor_coeffs

__all__ = [
    "CAUSTIC_TOL",
    "NEAR_CAUSTIC",
    "ROUTE_IDS",
    "KERNEL_NAMES",
    "CausticSingularity",
    "KernelKind",
    "KernelPoint",
    "KernelValue",
    "effective_time",
    "kernel_kind",
    "main_wrap",
    "free_kernel",
    "sho_kernel",
    "radial_h0_kernel",
    "radial_sho_kernel",
    "kernel_values",
    "kernel_via_route",
]

CAUSTIC_TOL = 1e-8
# Above the refusal tolerance but close enough that the caller should know
# the prefactor is blowing up.
NEAR_CAUSTIC = 1e-6

ROUTE_IDS = ("DIRECT", "ELEMENT", "A1a", "A2a", "A3a")


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
        k = round(omega * t / math.pi)
        self.t = t
        self.nearest_caustic_time = k * math.pi / omega
        super().__init__(
            f"|sin(w t)| <= {caustic_tol:g} at t={t}; nearest caustic at "
            f"t={self.nearest_caustic_time}"
        )


@dataclass(frozen=True)
class KernelPoint:
    """Evaluation point (x1, x2, t); x1 and x2 may be broadcastable arrays."""

    x1: object
    x2: object
    t: float


@dataclass(frozen=True)
class KernelValue:
    """Kernel value plus a note on how close the evaluation sat to a caustic."""

    value: object
    branch_note: str = "principal"


def effective_time(t, omega: float):
    """The re-parameterized time sin(w t)/w that maps the oscillator kernels
    onto the w = 0 ones; reduces to t itself as w -> 0."""
    if omega == 0.0:
        return t
    return np.sin(omega * t) / omega


def _branch_note(t, params: PhysParams, caustic_tol: float) -> str:
    if params.omega == 0.0:
        return "principal"
    s = abs(np.sin(params.omega * t))
    if s <= caustic_tol:
        raise CausticSingularity(t, params.omega, caustic_tol)
    return "near_caustic" if s < NEAR_CAUSTIC else "principal"


def _check_time(t):
    if t == 0:
        raise ValueError("t = 0 is not a valid kernel argument (delta limit)")


def _check_positive(*arrays):
    for a in arrays:
        if np.any(np.asarray(a).real <= 0):
            raise ValueError("half-line kernels require strictly positive positions")


def _closed_form(x1, x2, t, params: PhysParams, oscillator: bool, core: str):
    """A(T) e^{i m c (x1^2+x2^2)/2 hbar T} core(m x1 x2/hbar T); t may be complex."""
    if core == "image":
        # Evaluated as the difference itself so that it is bit-exact.
        return (_closed_form(x1, x2, t, params, oscillator, "line")
                - _closed_form(x1, -np.asarray(x2), t, params, oscillator, "line"))
    h, m = params.hbar, params.m
    T = effective_time(t, params.omega) if oscillator else t
    c = np.cos(params.omega * t) if oscillator else 1.0
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if core == "line":
        # The line core shares the exponential with the quadratic phase.
        return np.sqrt(m / (2.0 * np.pi * h)) / np.sqrt(1j * T) * np.exp(
            1j * m / (2.0 * h * T) * ((x1**2 + x2**2) * c - 2.0 * x1 * x2)
        )
    # The Bessel argument is purely imaginary for real t, so the modified
    # Bessel factor reduces to an ordinary (bounded) Bessel function through
    # the imaginary-axis connection and never overflows.
    z = m * x1 * x2 / (1j * h * T)
    return (m * np.sqrt(x1 * x2) / (1j * h * T)) * bessel_i_complex(params.n, z) * np.exp(
        1j * m * (x1**2 + x2**2) * c / (2.0 * h * T)
    )


# Fixed-core views of the evaluator for callers that go off the real time
# axis (damped complex t), where the public kernels' checks do not apply.
_free_value = partial(_closed_form, oscillator=False, core="line")
_sho_value = partial(_closed_form, oscillator=True, core="line")
_radial_h0_bessel_value = partial(_closed_form, oscillator=False, core="bessel")
_radial_sho_bessel_value = partial(_closed_form, oscillator=True, core="bessel")


def _core(kind: KernelKind, params: PhysParams, core: str | None = None) -> str:
    own = "line" if not kind.halfline else "image" if params.n == 0.5 else "bessel"
    if core is None or core == own:
        return own
    if core == "bessel" and kind.halfline:
        return core
    raise ValueError(f"core {core!r} does not apply here; the kernel's own is {own!r}")


def _kernel(name: str, pt: KernelPoint, params: PhysParams,
            core: str | None = None) -> KernelValue:
    kind = kernel_kind(name)
    if kind.oscillator and params.omega <= 0:
        limit = "radial_h0" if kind.halfline else "free"
        raise ValueError(
            f"{name}_kernel requires omega > 0; use {limit}_kernel at omega = 0"
        )
    _check_time(pt.t)
    if kind.halfline:
        _check_positive(pt.x1, pt.x2)
    note = _branch_note(pt.t, params, CAUSTIC_TOL) if kind.oscillator else "principal"
    v = _closed_form(pt.x1, pt.x2, pt.t, params, kind.oscillator,
                     _core(kind, params, core))
    return KernelValue(value=v if np.ndim(v) else complex(v), branch_note=note)


def free_kernel(pt: KernelPoint, params: PhysParams) -> KernelValue:
    """Free-particle kernel sqrt(m/(2 pi i hbar t)) e^{i m (x1-x2)^2 / 2 hbar t}.

    Its modulus sqrt(m/(2 pi hbar |t|)) is independent of the positions, and
    t -> -t conjugates the value.
    """
    return _kernel("free", pt, params)


def sho_kernel(pt: KernelPoint, params: PhysParams) -> KernelValue:
    """Full-line oscillator kernel (coupling-free case).

    sqrt(m w/(2 pi i hbar sin wt)) exp{(i m w/2 hbar)[(x1^2+x2^2) cot wt
    - 2 x1 x2 / sin wt]}.  Requires w > 0 and |sin wt| above the caustic
    tolerance; as w -> 0 it goes over into the free kernel.
    """
    return _kernel("sho", pt, params)


def radial_h0_kernel(pt: KernelPoint, params: PhysParams) -> KernelValue:
    """Half-line kernel of the pure inverse-square Hamiltonian.

    (m sqrt(x1 x2)/(i hbar t)) I_n(m x1 x2/(i hbar t))
    e^{i m (x1^2+x2^2)/(2 hbar t)} on x1, x2 > 0.  Order 1/2 reduces to the
    image-method difference of free kernels and is evaluated that way.
    """
    return _kernel("radial_h0", pt, params)


def radial_sho_kernel(pt: KernelPoint, params: PhysParams) -> KernelValue:
    """Half-line kernel with both the inverse-square and oscillator terms.

    (m w sqrt(x1 x2)/(i hbar sin wt)) I_n(m w x1 x2/(i hbar sin wt))
    e^{(i m w/2 hbar)(x1^2+x2^2) cot wt}; equals the quadratic phases wrapped
    around the w = 0 kernel at effective time sin(wt)/w.  Order 1/2 is the
    image-method difference of oscillator kernels and is evaluated that way.
    """
    return _kernel("radial_sho", pt, params)


def kernel_values(name: str, x1, x2, t, params: PhysParams, core: str | None = None):
    """Raw complex kernel values for array arguments; used by propagation.

    ``core="bessel"`` evaluates a half-line kernel through the Bessel core
    even at n = 1/2, where it otherwise takes the image difference.
    """
    return _kernel(name, KernelPoint(x1=x1, x2=x2, t=t), params, core).value


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


def kernel_via_route(
    route: str,
    pt: KernelPoint,
    params: PhysParams,
    halfline: bool = True,
) -> KernelValue:
    """Kernel assembled along one factorization route.

    ``DIRECT`` evaluates the closed form.  ``ELEMENT`` wraps the w = 0
    kernel at the effective time sin(wt)/w in the quadratic phase factors of
    the symmetric factorization.  The appendix routes additionally carry a
    dilation factor e^{+-hbar gamma} and a rescaled position argument
    (position eigenstates pick up e^{hbar gamma} and a stretch e^{2 hbar
    gamma} under the dilation).  The inverse-square factor is the w = 0
    kernel at effective time 2 m hbar beta.

    ``halfline=False`` selects the coupling-free full-line assembly (order
    pinned to 1/2, i.e. lam = 0) whose direct form is ``sho_kernel``.

    All routes must agree with DIRECT; the appendix routes require
    cos(wt) > 0 on top of the caustic window.
    """
    if route not in ROUTE_IDS:
        raise ValueError(f"unknown route {route!r}; choose from {ROUTE_IDS}")
    if params.omega <= 0:
        raise ValueError("routes re-parameterize time and require omega > 0")
    name = "radial_sho" if halfline else "sho"
    if halfline:
        _check_positive(pt.x1, pt.x2)
    elif params.n != 0.5:
        raise ValueError("full-line routes require lam = 0, i.e. n = 1/2")
    if route == "DIRECT":
        return _kernel(name, pt, params)

    _check_time(pt.t)
    note = _branch_note(pt.t, params, CAUSTIC_TOL)
    h = params.hbar
    x1 = np.asarray(pt.x1)
    x2 = np.asarray(pt.x2)
    core = _core(kernel_kind(name), params)

    def base(y1, y2, te):
        return _closed_form(y1, y2, te, params, False, core)

    if route == "ELEMENT":
        phase, te = main_wrap(x1, x2, pt.t, params)
        v = phase * base(x1, x2, te)
    else:
        coeffs = factor_coeffs(route, pt.t, params)
        te = 2.0 * params.m * h * coeffs.beta
        # The dilation stretches the position on its side of the P2L factor
        # by d^2 and scales the amplitude by d: x1 for A1a and A2a, whose
        # dilation precedes P2L, x2 for A3a.  A2a's X2 phase follows the
        # dilation and sees the stretched x1.
        left = route != "A3a"
        d = math.exp((-h if left else h) * coeffs.gamma)
        y1, y2 = (x1 * d**2, x2) if left else (x1, x2 * d**2)
        xa = y1 if route == "A2a" else x1
        v = d * np.exp(-1j * coeffs.alpha * xa**2) * base(y1, y2, te)
    return KernelValue(value=v if np.ndim(v) else complex(v), branch_note=note)
