"""Two-by-two representation of the x^2 / (p^2 + lam/x^2) / (xp+px) algebra.

The three operators close under commutation into sl(2,C) and admit a
faithful traceless 2x2 matrix realization that carries no dependence on the
inverse-square coupling.  Every disentangling identity used to factor the
oscillator evolution operator can therefore be verified by exact 2x2 matrix
arithmetic, which is what this module does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GENERATOR_IDS",
    "IDENTITY_IDS",
    "PhysParams",
    "FactorCoeffs",
    "generator_matrix",
    "exp_traceless",
    "factor_coeffs",
    "identity_residual",
]

GENERATOR_IDS = ("X2", "P2L", "D")
IDENTITY_IDS = ("MAIN", "A1a", "A1b", "A2a", "A2b", "A3a", "A3b")

# Written (left-to-right) factor order of each identity.  The coefficient
# attached to a generator is always alpha for X2, beta for P2L, gamma for D.
_FACTOR_ORDER = {
    "MAIN": ("X2", "P2L", "X2"),
    "A1a": ("X2", "D", "P2L"),
    "A1b": ("P2L", "D", "X2"),
    "A2a": ("D", "X2", "P2L"),
    "A2b": ("P2L", "X2", "D"),
    "A3a": ("X2", "P2L", "D"),
    "A3b": ("D", "P2L", "X2"),
}

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
        return self.hbar**2 * (self.n**2 - 0.25)

    @classmethod
    def from_coupling(cls, lam: float, hbar: float = 1.0, m: float = 1.0,
                      omega: float = 1.0) -> "PhysParams":
        """Construct from lam >= -hbar^2/4 instead of the order n."""
        nsq = lam / hbar**2 + 0.25
        if nsq < 0:
            raise ValueError(
                f"coupling lam={lam} below the -hbar^2/4 bound; no real order"
            )
        return cls(hbar=hbar, m=m, omega=omega, n=math.sqrt(nsq))


@dataclass(frozen=True)
class FactorCoeffs:
    """Coefficient triple (alpha, beta, gamma) of one disentangling identity.

    alpha multiplies x^2, beta multiplies p^2 + lam/x^2, gamma multiplies
    xp + px, each inside exp(-i coeff op).  gamma is exactly 0 for MAIN.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")


def generator_matrix(gen_id: str, params: PhysParams) -> np.ndarray:
    """The 2x2 traceless matrix of one generator.

    X2 -> [[0, 2 hbar], [0, 0]], P2L -> [[0, 0], [2 hbar, 0]],
    D -> diag(-2i hbar, 2i hbar).  The coupling never appears.
    """
    h = params.hbar
    if gen_id == "X2":
        return np.array([[0.0, 2.0 * h], [0.0, 0.0]], dtype=complex)
    if gen_id == "P2L":
        return np.array([[0.0, 0.0], [2.0 * h, 0.0]], dtype=complex)
    if gen_id == "D":
        return np.array([[-2j * h, 0.0], [0.0, 2j * h]], dtype=complex)
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


def _hamiltonian_matrix(params: PhysParams) -> np.ndarray:
    """Matrix of (1/2m)(p^2 + lam/x^2) + (m omega^2 / 2) x^2."""
    p2l = generator_matrix("P2L", params)
    x2 = generator_matrix("X2", params)
    return p2l / (2.0 * params.m) + 0.5 * params.m * params.omega**2 * x2


def factor_coeffs(identity_id: str, t: float, params: PhysParams) -> FactorCoeffs:
    """Coefficients of the requested disentangling identity at time t.

    MAIN: alpha = (m w / 2 hbar) tan(w t / 2), beta = sin(w t)/(2 m w hbar),
    gamma = 0, valid while tan(w t / 2) is finite.

    The appendix variants share e^{+-2 gamma hbar} = cos(w t) (upper sign for
    the 'a' orderings, lower for 'b') and are restricted to cos(w t) > 0 so
    that gamma stays real:

        A1: alpha = (m w / 2 hbar) tan(w t),         beta = tan(w t)/(2 hbar m w)
        A2: alpha = (m w / 2 hbar) sin(w t) cos(w t), beta = tan(w t)/(2 hbar m w)
        A3: alpha = (m w / 2 hbar) tan(w t),         beta = sin(w t) cos(w t)/(2 hbar m w)

    At omega = 0 every identity degenerates to the free factorization
    alpha = gamma = 0, beta = t/(2 m hbar).

    Raises ``ValueError`` outside the validity window, naming the
    coefficient that diverges.
    """
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}")
    h, m, w = params.hbar, params.m, params.omega

    if w == 0.0:
        return FactorCoeffs(alpha=0.0, beta=t / (2.0 * m * h), gamma=0.0)

    wt = w * t
    if identity_id == "MAIN":
        if abs(math.cos(wt / 2.0)) < 1e-12:
            raise ValueError(
                f"alpha diverges: tan(wt/2) singular at wt={wt} (wt = pi mod 2pi)"
            )
        alpha = 0.5 * m * w / h * math.tan(wt / 2.0)
        beta = math.sin(wt) / (2.0 * m * w * h)
        return FactorCoeffs(alpha=alpha, beta=beta, gamma=0.0)

    c = math.cos(wt)
    if c <= 1e-12:
        raise ValueError(
            f"gamma diverges: e^(+-2 gamma hbar) = cos(wt) = {c:.3e} <= 0 at wt={wt};"
            " appendix identities need cos(wt) > 0"
        )
    gamma = math.log(c) / (2.0 * h)
    if identity_id in ("A1b", "A2b", "A3b"):
        gamma = -gamma

    tanwt = math.tan(wt)
    sincos = math.sin(wt) * c
    if identity_id in ("A1a", "A1b"):
        alpha = 0.5 * m * w / h * tanwt
        beta = tanwt / (2.0 * h * m * w)
    elif identity_id in ("A2a", "A2b"):
        alpha = 0.5 * m * w / h * sincos
        beta = tanwt / (2.0 * h * m * w)
    else:  # A3a / A3b
        alpha = 0.5 * m * w / h * tanwt
        beta = sincos / (2.0 * h * m * w)
    return FactorCoeffs(alpha=alpha, beta=beta, gamma=gamma)


def _coeff_for(gen_id: str, coeffs: FactorCoeffs) -> float:
    return {"X2": coeffs.alpha, "P2L": coeffs.beta, "D": coeffs.gamma}[gen_id]


def identity_residual(identity_id: str, t, params: PhysParams):
    """Max-entry defect of one disentangling identity in the 2x2 realization.

    Builds each factor as exp_traceless(-i coeff generator), multiplies them
    in the identity's written order, subtracts the exponential of the full
    Hamiltonian matrix, and returns the largest entry of the difference after
    scaling by the operator norm of the exact side.

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
    coeffs = [factor_coeffs(identity_id, tk, params) for tk in stack.tolist()]
    rhs = np.eye(2, dtype=complex)
    for gen_id in _FACTOR_ORDER[identity_id]:
        c = np.array([_coeff_for(gen_id, k) for k in coeffs])
        rhs = rhs @ exp_traceless((-1j * c)[:, None, None] * generator_matrix(gen_id, params))
    # -i t/hbar with the quotient taken in floats: its imaginary part is the
    # correctly rounded -t/hbar, as in scalar complex arithmetic.
    exponent = -1j * (stack / params.hbar)
    lhs = exp_traceless(exponent[:, None, None] * _hamiltonian_matrix(params))
    scale = np.linalg.norm(lhs, 2, axis=(-2, -1))
    residual = np.max(np.abs(lhs - rhs), axis=(-2, -1)) / scale
    return float(residual[0]) if times.ndim == 0 else residual
