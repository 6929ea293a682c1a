"""The three benchmark workloads: CLI invocations made from a seed, and checks.

Each workload is a list of ``sl2prop`` CLI invocations run one after the
other in one fresh interpreter per pass.  The seed perturbs continuous inputs
within the ranges stated below and picks the rows that are checked against
mpmath; the kernel and the order of each invocation never change.

Known defects stay in at their defaults and count as failed invocations; the
check that is allowed to fail for them is declared next to the invocation,
so any other failure makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref

# Seeded input ranges (hbar = m = omega = 1 throughout).
# kernel-table: the CLI defaults x in [0.5, 2.5], t in [0.2, 1.4] are shifted
# by at most these amounts; t stays far from the caustic at pi.
KT_X_MIN, KT_X_MAX, KT_T_MIN, KT_T_MAX = (0.5, 0.05), (2.5, 0.1), (0.2, 0.02), (1.4, 0.05)
# identities: the default span 0.45 pi is scaled by 1 +- 2%, inside the
# validity windows the CLI clips against.
ID_SPAN = (0.45 * np.pi, 0.02)
# packet-evolve: packet centre 6 +- 0.1 (centre - 4 width stays > 3, and the
# packet starts > 12 widths from the x = 14 edge); final time 1 +- 0.03.
EV_CENTER, EV_T_MAX, EV_WIDTH = (6.0, 0.1), (1.0, 0.03), 0.6
# oracle-compare keeps its default points and times: several of its kernel
# values sit within 0.3% in t of a Bessel zero, where a relative-error check
# (the CLI's and ours) stops meaning anything.
MP_ROWS_PER_TABLE = 96   # kernel-table rows checked against mpmath per call
QUAD_ROWS_PER_FRAME = 32  # Bessel-order evolve rows checked per frame


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``check`` names the output check and its parameters;
    ``known_defect`` is (check allowed to fail, reason) or None."""

    label: str
    argv: tuple[str, ...]
    check: tuple
    known_defect: tuple[str, str] | None = None


@dataclass
class Verdict:
    ok_exit: bool
    ok_values: bool
    err: float              # worst relative error of the primary output
    oracle_err: float | None = None
    note: str = ""

    def failed_checks(self) -> set[str]:
        return {k for k, ok in (("exit", self.ok_exit), ("accuracy", self.ok_values)) if not ok}


def _shift(rng, centre_halfwidth):
    centre, half = centre_halfwidth
    return float(centre + rng.uniform(-half, half))


def _f(v: float) -> str:
    return repr(float(v))


def kernel_table(seed: int, smoke: bool = False) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    x_min, x_max = _shift(rng, KT_X_MIN), _shift(rng, KT_X_MAX)
    t_min, t_max = _shift(rng, KT_T_MIN), _shift(rng, KT_T_MAX)
    x_steps, t_steps = (12, 3) if smoke else (160, 7)
    grid = ("--x-min", _f(x_min), "--x-max", _f(x_max), "--x-steps", str(x_steps),
            "--t-min", _f(t_min), "--t-max", _f(t_max), "--t-steps", str(t_steps))
    rows = x_steps * x_steps * t_steps
    out = []
    for label, flags, kernel, n in (
        ("radial-sho n=1/2", ("--kernel", "radial-sho", "--order-n", "0.5"), "radial_sho", 0.5),
        ("radial-sho n=1", ("--kernel", "radial-sho", "--order-n", "1"), "radial_sho", 1.0),
        ("radial-sho n=20", ("--kernel", "radial-sho", "--order-n", "20"), "radial_sho", 20.0),
        ("sho", ("--kernel", "sho"), "sho", 0.5),
    ):
        defect = None
        if n == 20.0:
            defect = ("accuracy", "in-house Bessel uses the Hankel expansion above |z| = 12 "
                      "whatever the order (ROADMAP item 4)")
        out.append(Invocation(label, ("kernel", *flags, *grid),
                              ("kernel", kernel, n, rows, seed), defect))
    return out


def oracle_verify(seed: int, smoke: bool = False) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    span = _shift(rng, ID_SPAN)
    ident = ("identities", "--t-min", _f(-span), "--t-max", _f(span))
    compare = ("oracle-compare",)
    if smoke:
        compare += ("--orders", "0.5,1", "--times", "0.7")
    return [Invocation("identities", ident, ("identities",)),
            Invocation("oracle-compare", compare, ("oracle",))]


def packet_evolve(seed: int, smoke: bool = False) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    center, t_max = _shift(rng, EV_CENTER), _shift(rng, EV_T_MAX)
    common = ("--center", _f(center), "--t-max", _f(t_max))
    if smoke:
        common += ("--frames", "2")
    frames = 2 if smoke else 5
    out = []
    for label, flags, kind, n in (
        ("radial-sho n=1/2", ("--kernel", "radial-sho"), "halfline", 0.5),
        ("radial-sho n=1", ("--kernel", "radial-sho", "--order-n", "1"), "halfline", 1.0),
        ("sho", ("--kernel", "sho"), "sho", 0.5),
        ("free", ("--kernel", "free"), "free", 0.5),
    ):
        defect = None
        if kind == "sho":
            defect = ("exit", "second-order CN oracle misses the 1e-3 cross-check "
                      "bound at the default grid (ROADMAP item 5)")
        elif kind == "free":
            defect = ("exit", "packet reaches the outer 5% of the default grid "
                      "(ROADMAP item 5)")
        out.append(Invocation(label, ("evolve", *flags, *common),
                              ("evolve", kind, n, center, frames, seed), defect))
    return out


# name -> (builder, layers the workload must exercise).  Why each workload was
# chosen is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    "kernel-table": (kernel_table, ("cli.main", "kernels", "numerics.bessel_i_complex")),
    "oracle-verify": (oracle_verify, ("cli.main", "numerics.bessel_j",
                                      "numerics.integrate_oscillatory",
                                      "oracle.hankel_kernel_oracle", "sl2rep")),
    "packet-evolve": (packet_evolve, ("cli.main", "evolve.propagate", "oracle.grid_evolve",
                                      "numerics.bessel_i_complex")),
}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check(inv: Invocation, path: str, rc: int) -> Verdict:
    """Compare one invocation's CSV with the independent references."""
    kind = inv.check[0]
    if kind == "kernel":
        return _check_kernel(path, rc, *inv.check[1:])
    if kind == "identities":
        t = ref.parse_csv(path, text_columns=("identity_id",))
        worst = float(np.max(t.col("residual"))) if t.rows.size else np.inf
        ok = t.rows.shape[0] > 0 and worst <= ref.IDENTITY_TOL
        return Verdict(rc == 0, ok, 0.0, note=f"max residual {worst:.3g}")
    if kind == "oracle":
        return _check_oracle(path, rc)
    return _check_evolve(path, rc, *inv.check[1:])


def _check_kernel(path, rc, kernel, n, rows, seed) -> Verdict:
    t = ref.parse_csv(path)
    if t.rows.shape[0] != rows:
        return Verdict(rc == 0, False, np.inf, note=f"{t.rows.shape[0]} rows, expected {rows}")
    x1, x2, tt = t.col("x1"), t.col("x2"), t.col("t")
    vals = t.col("re") + 1j * t.col("im")
    full = ref.np_kernel(kernel, n, x1, x2, tt)
    err = float(np.max(ref.rel_errors(vals, full)))
    # mpmath on seeded rows: the ground truth, and a check on the scipy route.
    pick = np.random.default_rng([seed, 1]).choice(rows, MP_ROWS_PER_TABLE, replace=False)
    exact = np.array([ref.mp_kernel(kernel, n, x1[i], x2[i], tt[i]) for i in pick])
    peak = float(np.max(np.abs(full)))
    scale = np.maximum(np.abs(exact), ref.FLOOR * peak)
    err = max(err, float(np.max(np.abs(vals[pick] - exact) / scale)))
    self_err = float(np.max(np.abs(full[pick] - exact) / scale))
    if self_err > 1e-11:
        raise RuntimeError(f"{path}: scipy and mpmath references disagree by {self_err:.3g}")
    return Verdict(rc == 0, err <= ref.KERNEL_TOL, err)


def _check_oracle(path, rc) -> Verdict:
    t = ref.parse_csv(path, text_columns=("flag",))
    if t.rows.shape[0] == 0:
        return Verdict(rc == 0, False, np.inf, note="no rows")
    closed = t.col("closed_re") + 1j * t.col("closed_im")
    oracle = t.col("oracle_re") + 1j * t.col("oracle_im")
    exact = np.array([ref.mp_kernel("radial_sho", n, a, b, c) for a, b, c, n in
                      zip(t.col("x1"), t.col("x2"), t.col("t"), t.col("n"))])
    err = float(np.max(np.abs(closed - exact) / np.abs(exact)))
    orel = np.abs(oracle - exact) / np.abs(exact)
    # The CLI's own criterion for its oracle, applied against mpmath.
    oracle_ok = bool(np.all(orel <= np.maximum(1e-6, 10 * t.col("oracle_err_estimate"))))
    return Verdict(rc == 0, err <= ref.KERNEL_TOL and oracle_ok, err, float(np.max(orel)))


def _check_evolve(path, rc, kind, n, center, frames, seed) -> Verdict:
    t = ref.parse_csv(path)
    times = np.unique(t.col("t"))
    if times.size != frames or t.rows.shape[0] % frames:
        return Verdict(rc == 0, False, np.inf, note=f"{times.size} frames, expected {frames}")
    rng = np.random.default_rng([seed, 2])
    err = 0.0
    for tf in times:
        sel = np.flatnonzero(t.col("t") == tf)
        x = t.col("x")[sel]
        vals = (t.col("re") + 1j * t.col("im"))[sel]
        if kind == "halfline":
            if n != 0.5:
                # Quadrature per row is costly: check seeded rows plus the
                # row where the program puts its peak, which sets the scale.
                picked = rng.choice(x.size, QUAD_ROWS_PER_FRAME, replace=False)
                rows = np.union1d(picked, [int(np.argmax(np.abs(vals)))])
                x, vals = x[rows], vals[rows]
            exact = ref.halfline_frame(n, x, tf, center, EV_WIDTH)
        else:
            exact = ref.gaussian_evolved(kind, x, tf, center, EV_WIDTH)
        err = max(err, float(np.max(np.abs(vals - exact) / np.max(np.abs(exact)))))
    return Verdict(rc == 0, err <= ref.FRAME_TOL, err, t.trailer("cross_oracle_l2"))
