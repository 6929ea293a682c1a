"""Independent references and output checks for the benchmark.

Nothing here imports ``sl2prop``.  Kernel values come from the closed forms
written out again with mpmath (on seed-sampled rows) and with
``scipy.special.jv`` (on every row); wavepacket frames come from the
analytic Gaussian integral or, for Bessel kernels, from Gauss-Legendre
quadrature of the closed form.  All formulas use hbar = m = omega = 1, the
CLI defaults the workloads keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.special import erfc, jv

mpmath.mp.dps = 30

# Relative error of a value is measured against max(|ref|, FLOOR * peak),
# where peak is the largest |ref| of the same output; this keeps values near a
# zero of the kernel from turning roundoff into a spurious failure.
FLOOR = 1e-2
# Largest error a value may carry and still count as correct.
KERNEL_TOL = 1e-9     # kernel tables and oracle-compare closed_* columns
FRAME_TOL = 1e-8      # evolve frames, relative to the frame's peak modulus
IDENTITY_TOL = 1e-12  # identities residual column (the CLI default tolerance)
DIGITS_CAP = 16.0


def digits(err: float) -> float:
    """-log10 of a relative error, between 0 (no digit right, or NaN) and DIGITS_CAP."""
    if not err < 1.0:
        return 0.0
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else -math.log10(err)


@dataclass
class Table:
    """A parsed sl2prop CSV: data rows, column names and '#' comment lines."""

    columns: list[str]
    rows: np.ndarray
    comments: list[str] = field(default_factory=list)

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def trailer(self, key: str) -> float | None:
        for line in self.comments:
            for part in line.lstrip("# ").split():
                if part.startswith(key + "="):
                    return float(part.split("=", 1)[1])
        return None


def parse_csv(path: str, text_columns: tuple[str, ...] = ()) -> Table:
    """Parse a CSV written by the CLI; text columns are dropped from ``rows``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise ValueError(f"{path}: no header row")
    columns = body[0].split(",")
    keep = [i for i, c in enumerate(columns) if c not in text_columns]
    data = body[1:]
    if text_columns:
        data = [",".join(f[i] for i in keep) for f in (r.split(",") for r in data)]
    flat = np.array(",".join(data).split(","), dtype=float) if data else np.empty(0)
    if flat.size != len(data) * len(keep):
        raise ValueError(f"{path}: ragged rows")
    return Table([columns[i] for i in keep], flat.reshape(len(data), len(keep)), comments)


def rel_errors(vals: np.ndarray, ref: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(ref), FLOOR * float(np.max(np.abs(ref))))
    return np.abs(vals - ref) / scale


# ---------------------------------------------------------------------------
# Kernel closed forms
# ---------------------------------------------------------------------------


def mp_kernel(kernel: str, n: float, x1: float, x2: float, t: float) -> complex:
    """Closed-form kernel at one point in mpmath (30 digits)."""
    x1, x2, t = mpmath.mpf(x1), mpmath.mpf(x2), mpmath.mpf(t)
    s, c = mpmath.sin(t), mpmath.cos(t)
    if kernel == "sho":
        pref = mpmath.sqrt(1 / (2 * mpmath.pi)) / mpmath.sqrt(1j * s)
        return complex(pref * mpmath.exp(0.5j * ((x1**2 + x2**2) * c / s - 2 * x1 * x2 / s)))
    z = x1 * x2 / (1j * s)
    return complex(
        (mpmath.sqrt(x1 * x2) / (1j * s)) * mpmath.besseli(n, z)
        * mpmath.exp(1j * (x1**2 + x2**2) * c / (2 * s))
    )


def np_kernel(kernel: str, n: float, x1, x2, t) -> np.ndarray:
    """The same closed forms vectorised with numpy and scipy, for sin t > 0.

    I_n(-i u) = e^{-i n pi/2} J_n(u) for u > 0 on the principal branch.
    """
    s, c = np.sin(t), np.cos(t)
    if np.any(s <= 0):
        raise ValueError("vectorised reference covers 0 < t < pi only")
    if kernel == "sho":
        return np.sqrt(1 / (2 * np.pi)) / np.sqrt(1j * s) * np.exp(
            0.5j * ((x1**2 + x2**2) * c / s - 2 * x1 * x2 / s))
    u = x1 * x2 / s
    return (np.sqrt(x1 * x2) / (1j * s)) * np.exp(-0.5j * n * np.pi) * jv(n, u) * np.exp(
        1j * (x1**2 + x2**2) * c / (2 * s))


# ---------------------------------------------------------------------------
# Wavepacket frames
# ---------------------------------------------------------------------------


def gaussian(x, center: float, width: float) -> np.ndarray:
    return (2 * np.pi * width**2) ** -0.25 * np.exp(-((x - center) ** 2) / (4 * width**2))


def gaussian_evolved(kernel: str, x, t: float, center: float, width: float,
                     halfline: bool = False) -> np.ndarray:
    """Exact evolution of the CLI's Gaussian packet (momentum 0).

    The kernel is A exp(i a (x^2 + y^2) + i b x y); integrating it against
    N exp(-(y - c)^2 / 4 w^2) over y gives
    A N exp(i a x^2 - c^2/4w^2) * integral of exp(-P y^2 + Q y)
    with P = 1/4w^2 - i a and Q = i b x + c/2w^2 (Re P > 0, principal square
    root).  Over the real line that integral is sqrt(pi/P) exp(Q^2/4P); over
    y > 0, which is the packet the CLI puts on its half-line grid, it carries
    the extra factor erfc(-Q / 2 sqrt(P)) / 2.
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        g = gaussian(x, center, width).astype(complex)
        return np.where(x > 0, g, 0.0) if halfline else g
    if kernel == "free":
        amp, a, b = 1 / np.sqrt(2j * np.pi * t), 1 / (2 * t), -1 / t
    else:  # sho
        s = math.sin(t)
        amp, a, b = 1 / np.sqrt(2j * np.pi * s), math.cos(t) / (2 * s), -1 / s
    norm = (2 * np.pi * width**2) ** -0.25
    p = 1 / (4 * width**2) - 1j * a
    q = 1j * b * x + center / (2 * width**2)
    out = amp * norm * np.sqrt(np.pi / p) * np.exp(
        1j * a * x**2 - center**2 / (4 * width**2) + q**2 / (4 * p))
    if halfline:
        out *= 0.5 * erfc(-q / (2 * np.sqrt(p)))
    return out


def halfline_frame(n: float, x, t: float, center: float, width: float) -> np.ndarray:
    """Frame of the half-line oscillator kernel of order n at positions x.

    Order 1/2 is the Dirichlet image pair G(x) - G(-x) of the oscillator
    solution for the packet cut off at y = 0.  Other orders integrate the closed-form kernel against the
    packet over (0, center + 12 width] with 20-point Gauss-Legendre panels
    that resolve the phase to a few radians per panel.
    """
    x = np.asarray(x, dtype=float)
    if n == 0.5:
        return gaussian_evolved("sho", x, t, center, width, True) - gaussian_evolved(
            "sho", -x, t, center, width, True)
    if t == 0.0:
        return gaussian(x, center, width).astype(complex)
    y_hi = center + 12 * width
    freq = (abs(math.cos(t)) * y_hi + float(np.max(x))) / abs(math.sin(t))
    panels = max(64, int(math.ceil(freq * y_hi / 2.0)))
    g, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, y_hi, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * g).ravel()
    wy = (half[:, None] * w).ravel() * gaussian(y, center, width)
    out = np.empty(x.size, dtype=complex)
    for i, xi in enumerate(x):
        out[i] = np_kernel("radial_sho", n, xi, y, t) @ wy
    return out
