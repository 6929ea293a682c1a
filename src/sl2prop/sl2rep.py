"""Two-by-two representation of the x^2 / (p^2 + lam/x^2) / (xp+px) algebra.

The three operators close under commutation into sl(2,C) and admit a
faithful traceless 2x2 matrix realization that carries no dependence on the
inverse-square coupling.  Written in each factor's exponent (hbar alpha,
hbar beta, hbar gamma) the realization and every disentangling identity used
to factor the oscillator evolution operator carry no hbar either, so each
identity can be verified by exact 2x2 matrix arithmetic, which is what this
module does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IDENTITY_IDS",
    "FACTOR_ORDER",
    "PhysParams",
    "generator_matrix",
    "exp_traceless",
    "factor_coeffs",
    "identity_residual",
]

# Written (left-to-right) factor order of each identity.  ``factor_coeffs``
# keys each factor's exponent by its generator: hbar alpha for X2, hbar beta
# for P2L, hbar gamma for D.
FACTOR_ORDER = {
    "MAIN": ("X2", "P2L", "X2"),
    "A1a": ("X2", "D", "P2L"),
    "A1b": ("P2L", "D", "X2"),
    "A2a": ("D", "X2", "P2L"),
    "A2b": ("P2L", "X2", "D"),
    "A3a": ("X2", "P2L", "D"),
    "A3b": ("D", "P2L", "X2"),
}
IDENTITY_IDS = tuple(FACTOR_ORDER)

_TRACE_TOL = 1e-14


@dataclass(frozen=True)
class PhysParams:
    """Physical constants and the coupling, in consistent units.

    The inverse-square coupling is stored through the order parameter n via
    lam = hbar^2 (n^2 - 1/4); it is derived, never set independently, so the
    two can never disagree.
    """

    hbar: float = 1.0
    m: float = 1.0
    omega: float = 1.0
    n: float = 0.5

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError("hbar must be > 0")
        if not self.m > 0:
            raise ValueError("m must be > 0")
        if not self.omega >= 0:
            raise ValueError("omega must be >= 0")
        if not self.n >= 0:
            raise ValueError("order n must be >= 0")
        # An infinite constant passes the bounds above and gives NaN or
        # all-zero kernels, or divides by zero, far from here.
        for name in ("hbar", "m", "omega", "n"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def lam(self) -> float:
        """hbar^2 (n^2 - 1/4), exactly 0 at n = 1/2 whatever hbar is;
        ``ValueError`` where it overflows."""
        lam = self.hbar * (self.hbar * (self.n * self.n - 0.25))
        if not math.isfinite(lam):
            raise ValueError(f"lambda = hbar^2 (n^2 - 1/4) overflows at "
                             f"hbar={self.hbar:g}, n={self.n:g}")
        return lam

    def omega_t(self, t):
        """w t for a real or complex time t; ``ValueError`` where it is not
        finite (a finite t times w may overflow), before any numpy call
        could warn on it."""
        wt = self.omega * (complex(t) if np.iscomplexobj(t) else float(t))
        if not cmath.isfinite(wt):
            raise ValueError(f"w t is not finite at w={self.omega:g}, t={t}")
        return wt

    @classmethod
    def from_coupling(cls, lam: float, hbar: float = 1.0, m: float = 1.0,
                      omega: float = 1.0) -> "PhysParams":
        """Construct from lam >= -hbar^2/4 instead of the order n."""
        cls(hbar=hbar, m=m, omega=omega)  # refuses hbar = 0 before the division
        nsq = lam / hbar / hbar + 0.25
        if nsq < 0:
            raise ValueError(
                f"coupling lam={lam} below the -hbar^2/4 bound; no real order"
            )
        if not math.isfinite(nsq):
            raise ValueError(f"lambda={lam:g} at hbar={hbar:g} gives no finite order: "
                             "n must be finite")
        return cls(hbar=hbar, m=m, omega=omega, n=math.sqrt(nsq))


def generator_matrix(gen_id: str) -> np.ndarray:
    """The 2x2 traceless matrix of one generator, per unit of hbar.

    X2 -> [[0, 2], [0, 0]], P2L -> [[0, 0], [2, 0]], D -> diag(-2i, 2i).
    Neither hbar nor the coupling appears: [X2, P2L] = 2i D,
    [X2, D] = 4i X2 and [P2L, D] = -4i P2L.
    """
    if gen_id == "X2":
        return np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    if gen_id == "P2L":
        return np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
    if gen_id == "D":
        return np.array([[-2j, 0.0], [0.0, 2j]], dtype=complex)
    raise ValueError(f"unknown generator {gen_id!r}")


def exp_traceless(M: np.ndarray) -> np.ndarray:
    """Exact exponential of a traceless 2x2 matrix, or of each matrix of a
    stack of shape (..., 2, 2).

    exp(M) = cosh(s) I + (sinh(s)/s) M with s^2 = -det M; sinh(s)/s is even
    in s so the square-root branch is irrelevant, and the s -> 0 limit is
    taken by series.  The result always has unit determinant.  Each matrix
    of a stack gets the same arithmetic as it would alone, and the stack is
    refused if any one of them has a trace.
    """
    shape = np.shape(M)
    if shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix or a stack of them")
    M = np.asarray(M, dtype=complex).reshape(-1, 2, 2)  # one matrix: a stack of one
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(1, 2)))
    trace = M[:, 0, 0] + M[:, 1, 1]
    bad = np.abs(trace) > _TRACE_TOL * scale
    if np.any(bad):
        raise ValueError(f"matrix is not traceless: trace={trace[bad][0]}")
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    s = np.sqrt(-det + 0j)
    # The series where |s| < 1e-4 (and only there: s^4 may overflow
    # elsewhere), sinh(s)/s on a divisor kept away from 0 everywhere else.
    small = np.abs(s) < 1e-4
    safe = np.where(small, 1.0, s)
    sinhc = np.sinh(safe) / safe
    s2 = s[small] * s[small]
    sinhc[small] = 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    out = np.cosh(s)[:, None, None] * np.eye(2, dtype=complex) + sinhc[:, None, None] * M
    return out.reshape(shape)


def factor_coeffs(identity_id: str, t: float, params: PhysParams) -> dict[str, float]:
    """Each factor's exponent of the requested identity at time t, keyed by
    its generator: {"X2": hbar alpha, "P2L": hbar beta, "D": hbar gamma},
    the factor of generator G being exp(-i coeffs[G] G).  No hbar enters.

    MAIN: hbar alpha = (m w / 2) tan(w t / 2), hbar beta = sin(w t)/(2 m w),
    hbar gamma = 0, valid while tan(w t / 2) is finite.

    The appendix variants share e^{+-2 hbar gamma} = cos(w t) (upper sign for
    the 'a' orderings, lower for 'b') and are restricted to cos(w t) > 0 so
    that gamma stays real.  Each of hbar alpha = (m w / 2) f and
    hbar beta = g/(2 m w) takes f or g = tan(w t), except A2's alpha and A3's
    beta, which take sin(w t) cos(w t).

    At omega = 0 every identity degenerates to the free factorization
    hbar alpha = hbar gamma = 0, hbar beta = t/(2 m).

    hbar beta is divided by m, w and 2 one at a time, so no divisor is a
    product that can underflow to 0; an exponent that overflows is refused
    by name.

    Raises ``ValueError`` outside the validity window, naming the
    coefficient that diverges, and where w t is not finite.
    """
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}")
    m, w = params.m, params.omega

    if w == 0.0:
        coeffs = {"X2": 0.0, "P2L": t / m / 2.0, "D": 0.0}
    elif identity_id == "MAIN":
        wt = params.omega_t(t)
        if abs(math.cos(wt / 2.0)) < 1e-12:
            raise ValueError(
                f"alpha diverges: tan(wt/2) singular at wt={wt} (wt = pi mod 2pi)"
            )
        coeffs = {"X2": 0.5 * m * w * math.tan(wt / 2.0),
                  "P2L": math.sin(wt) / m / w / 2.0, "D": 0.0}
    else:
        wt = params.omega_t(t)
        c = math.cos(wt)
        if c <= 1e-12:
            raise ValueError(
                f"gamma diverges: e^(+-2 gamma hbar) = cos(wt) = {c:.3e} <= 0 at wt={wt};"
                " appendix identities need cos(wt) > 0"
            )
        tanwt, sincos = math.tan(wt), math.sin(wt) * c
        coeffs = {"X2": 0.5 * m * w * (sincos if identity_id.startswith("A2") else tanwt),
                  "P2L": (sincos if identity_id.startswith("A3") else tanwt) / m / w / 2.0,
                  "D": math.log(c) / (-2.0 if identity_id.endswith("b") else 2.0)}
    for gen_id, name in (("X2", "alpha"), ("P2L", "beta"), ("D", "gamma")):
        if not math.isfinite(coeffs[gen_id]):
            raise ValueError(f"{name} is not finite")
    return coeffs


def identity_residual(identity_id: str, t, params: PhysParams):
    """Max-entry defect of one disentangling identity in the 2x2 realization.

    Builds each factor as exp_traceless(-i coeff generator), multiplies them
    in the identity's written order, subtracts the exact side e^{-i t H/hbar},
    and returns the largest entry of the difference after scaling by the
    operator norm of the exact side.  Its exponent is written in units free
    of hbar and of m w^2, which under- and overflow long before m w does:
    -i w t [[0, m w], [1/(m w), 0]] at w > 0 and -i t [[0, 0], [1/m, 0]] at
    w = 0.  The factors' entries scale as m w and 1/(m w) too, so where
    either is not finite the check is refused before any array arithmetic.

    ``t`` is a time or a 1-D array of times.  A scalar is a stack of one
    matrix per factor, and an array one stack of them, so a sweep makes one
    pass of array arithmetic per factor and each residual equals, bit for
    bit, that of its time alone.  The coefficients still come from one
    ``factor_coeffs`` call per time, and the first time outside the validity
    window raises its ``ValueError``.  Returns a float, or an array of the
    times' shape.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("identity_residual takes a time or a 1-D array of times")
    stack = np.atleast_1d(times)
    w = params.omega
    rate, mw = (w, params.m * w) if w > 0 else (1.0, params.m)
    lower = 1.0 / mw if mw else math.inf
    if not (math.isfinite(mw) and math.isfinite(lower)):
        raise ValueError(f"the identity check's m w or 1/(m w) is not finite at "
                         f"m={params.m:g}, omega={w:g}")
    coeffs = [factor_coeffs(identity_id, tk, params) for tk in stack.tolist()]
    rhs = np.eye(2, dtype=complex)
    for gen_id in FACTOR_ORDER[identity_id]:
        c = np.array([k[gen_id] for k in coeffs])
        rhs = rhs @ exp_traceless((-1j * c)[:, None, None] * generator_matrix(gen_id))
    # -i w t with the product taken in floats: its imaginary part is the
    # correctly rounded -w t, as in scalar complex arithmetic.
    exponent = -1j * (stack * rate)
    unit = np.array([[0.0, mw if w > 0 else 0.0], [lower, 0.0]], dtype=complex)
    lhs = exp_traceless(exponent[:, None, None] * unit)
    scale = np.linalg.norm(lhs, 2, axis=(-2, -1))
    residual = np.max(np.abs(lhs - rhs), axis=(-2, -1)) / scale
    return float(residual[0]) if times.ndim == 0 else residual
