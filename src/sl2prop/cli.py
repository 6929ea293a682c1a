"""Command-line surface: CSV reports for identities, kernels, oracles, evolution.

Output is UTF-8 CSV with LF line endings, '#'-prefixed header comments, and
17-significant-digit floats.  Identical configuration produces byte-identical
output; run metadata lives only in header comments and carries no timestamps.
Exit status is nonzero exactly when a declared tolerance is violated (or the
configuration itself is invalid).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import evolve as ev
from . import kernels as kn
from . import oracle as orc
from . import sl2rep as sr

_DEF_ORACLE_ORDERS = (0.0, 0.5, 1.0, 2.5)
_DEF_ORACLE_X1 = (0.7, 1.3)
_DEF_ORACLE_X2 = (0.9, 1.6)
_DEF_ORACLE_T = (0.3, 0.7, 1.2, 2.0, 3.5)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _add_phys_args(p: argparse.ArgumentParser):
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--order-n", type=float, default=None,
                       help="Bessel order n >= 0 (default 0.5, i.e. no coupling)")
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="inverse-square coupling, >= -hbar^2/4")
    p.add_argument("--output", type=str, default=None,
                   help="CSV path (default: stdout)")
    p.add_argument("--tolerance", type=float, default=None)


def _params(args) -> sr.PhysParams:
    if args.lam is not None:
        return sr.PhysParams.from_coupling(args.lam, hbar=args.hbar, m=args.mass,
                                           omega=args.omega)
    n = 0.5 if args.order_n is None else args.order_n
    return sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega, n=n)


class _Report:
    """Accumulates '#' header lines and data rows, written once."""

    def __init__(self, command: str, params: sr.PhysParams, columns: list[str]):
        self.lines: list[str] = [f"# sl2prop {command}"]
        self.lines.append(
            "# units: hbar=%s m=%s omega=%s n=%s lambda=%s"
            % tuple(_fmt(v) for v in (params.hbar, params.m, params.omega,
                                      params.n, params.lam))
        )
        self.columns = columns
        self.rows: list[str] = []

    def note(self, text: str):
        self.lines.append(f"# notice: {text}")

    def comment(self, text: str):
        self.rows.append(f"# {text}")

    def row(self, *vals):
        self.rows.append(",".join(v if isinstance(v, str) else _fmt(v) for v in vals))

    def write(self, path: str | None, trailer: list[str] | None = None):
        body = self.lines + [",".join(self.columns)] + self.rows
        if trailer:
            body += [f"# {t}" for t in trailer]
        text = "\n".join(body) + "\n"
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


def _identity_window_ok(identity_id: str, t: float, params: sr.PhysParams) -> bool:
    # The report clips with a margin from the coefficient singularities:
    # approaching them, the factor entries diverge and roundoff amplification
    # makes a 1e-12 residual assertion meaningless in double precision.
    if params.omega == 0.0:
        return True
    wt = params.omega * t
    if identity_id == "MAIN":
        return abs(math.cos(wt / 2.0)) > 0.05
    return math.cos(wt) > 0.1


def cmd_identities(args) -> int:
    params = _params(args)
    tol = 1e-12 if args.tolerance is None else args.tolerance
    if params.omega > 0:
        default_span = 0.45 * math.pi / params.omega
    else:
        default_span = 1.0
    t_min = -default_span if args.t_min is None else args.t_min
    t_max = default_span if args.t_max is None else args.t_max
    ts = np.linspace(t_min, t_max, args.t_steps)

    rep = _Report("identities", params, ["identity_id", "t", "residual"])
    rep.lines.append(f"# t-range: [{_fmt(t_min)}, {_fmt(t_max)}] steps={args.t_steps}")
    rep.lines.append(f"# tolerance: {_fmt(tol)}")

    worst = 0.0
    clipped = {ident: 0 for ident in sr.IDENTITY_IDS}
    for ident in sr.IDENTITY_IDS:
        for t in ts:
            if not _identity_window_ok(ident, float(t), params):
                clipped[ident] += 1
                continue
            r = sr.identity_residual(ident, float(t), params)
            worst = max(worst, r)
            rep.row(ident, t, r)
    for ident, cnt in clipped.items():
        if cnt:
            msg = f"{ident}: {cnt} t-points outside validity window were clipped"
            rep.note(msg)
            print(f"notice: {msg}", file=sys.stderr)

    ok = worst <= tol
    rep.write(args.output, trailer=[f"max_residual={_fmt(worst)}",
                                    f"pass={'yes' if ok else 'no'}"])
    return 0 if ok else 1


_KERNEL_FLAG = {
    "free": "free",
    "sho": "sho",
    "radial-h0": "radial_h0",
    "radial-sho": "radial_sho",
}


def _kernel_for_run(flag: str, params: sr.PhysParams) -> tuple[str, sr.PhysParams]:
    """Resolve the CLI kernel choice; 'image' pins n = 1/2 and runs the same
    image-combination code path the radial kernels use at that order."""
    if flag == "image":
        base = "radial_sho" if params.omega > 0 else "radial_h0"
        forced = sr.PhysParams(hbar=params.hbar, m=params.m, omega=params.omega, n=0.5)
        return base, forced
    return _KERNEL_FLAG[flag], params


def cmd_kernel(args) -> int:
    params = _params(args)
    name, run_params = _kernel_for_run(args.kernel, params)
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    if kn.kernel_kind(name).halfline and args.x_min <= 0:
        print("error: radial kernels need --x-min > 0", file=sys.stderr)
        return 2

    rep = _Report("kernel", run_params,
                  ["x1", "x2", "t", "re", "im", "abs"])
    rep.lines.append(f"# kernel: {args.kernel}")

    emitted = 0
    for t in ts:
        t = float(t)
        if t == 0.0:
            rep.comment(f"skip t={_fmt(t)} reason=delta-limit")
            continue
        try:
            mat = kn.kernel_values(name, xs[:, None], xs[None, :], t, run_params)
        except kn.CausticSingularity as e:
            rep.comment(
                f"skip t={_fmt(t)} reason=caustic nearest={_fmt(e.nearest_caustic_time)}"
            )
            continue
        for i, x1 in enumerate(xs):
            for j, x2 in enumerate(xs):
                v = mat[i, j]
                rep.row(x1, x2, t, v.real, v.imag, abs(v))
        emitted += 1
    if emitted == 0:
        print("error: every requested time was skipped (caustic or t=0)",
              file=sys.stderr)
        return 2
    rep.write(args.output)
    return 0


def _parse_schedule(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s.strip())


def cmd_oracle_compare(args) -> int:
    params = _params(args)
    tol = 1e-6 if args.tolerance is None else args.tolerance
    orders = [float(s) for s in args.orders.split(",")] if args.orders else list(
        _DEF_ORACLE_ORDERS
    )
    times = [float(s) for s in args.times.split(",")] if args.times else list(
        _DEF_ORACLE_T
    )
    schedule = _parse_schedule(args.epsilon_schedule) if args.epsilon_schedule else None

    rep = _Report(
        "oracle-compare", params,
        ["x1", "x2", "t", "n", "closed_re", "closed_im", "oracle_re", "oracle_im",
         "rel_err", "oracle_err_estimate", "flag"],
    )
    rep.lines.append(f"# tolerance: {_fmt(tol)}")
    if schedule:
        rep.lines.append("# epsilon-schedule: " + ",".join(_fmt(e) for e in schedule))

    failed = False
    name = "radial_sho" if params.omega > 0 else "radial_h0"
    for n in orders:
        run = sr.PhysParams(hbar=params.hbar, m=params.m, omega=params.omega, n=n)
        for x1 in _DEF_ORACLE_X1:
            for x2 in _DEF_ORACLE_X2:
                for t in times:
                    try:
                        closed = kn.kernel_values(name, x1, x2, t, run)
                    except kn.CausticSingularity as e:
                        rep.comment(
                            f"skip t={_fmt(t)} n={_fmt(n)} reason=caustic "
                            f"nearest={_fmt(e.nearest_caustic_time)}"
                        )
                        continue
                    # The oracle gives the w = 0 kernel; MAIN's phases and
                    # effective time carry it to the oscillator.
                    phase, te = kn.main_wrap(x1, x2, t, run)
                    pt = kn.KernelPoint(x1, x2, te)
                    spec = None if schedule is None else orc.default_hankel_spec(
                        pt, run, schedule)
                    res = orc.hankel_kernel_oracle(pt, n, run, spec=spec)
                    oracle_val = phase * res.value
                    rel = abs(oracle_val - closed) / abs(closed)
                    flag = "ok"
                    if rel > tol:
                        flag = "fail"
                        failed = True
                    elif res.error_estimate > tol:
                        flag = "nonconverged"
                    rep.row(x1, x2, t, n, closed.real, closed.imag,
                            oracle_val.real, oracle_val.imag, rel,
                            res.error_estimate, flag)
    rep.write(args.output)
    return 1 if failed else 0


def cmd_evolve(args) -> int:
    params = _params(args)
    tol = 1e-6 if args.tolerance is None else args.tolerance
    name, run_params = _kernel_for_run(args.kernel, params)
    kind = kn.kernel_kind(name)
    x_min = 0.0 if kind.halfline else -args.x_max
    grid = orc.GridSpec(x_max=args.x_max, points=args.grid_points, dt=args.dt,
                        x_min=x_min)
    packet = ev.TestFunction(center=args.center, width=args.width,
                             momentum=args.momentum)
    try:
        psi0 = ev.as_gridfunction(packet, run_params, grid, kind.halfline)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    frame_times = np.linspace(0.0, args.t_max, args.frames)
    rep = _Report("evolve", run_params, ["t", "x", "re", "im", "abs2"])
    rep.lines.append(
        f"# kernel: {args.kernel} packet: center={_fmt(args.center)} "
        f"width={_fmt(args.width)} momentum={_fmt(args.momentum)}"
    )

    norm0 = psi0.norm()
    worst_drift = 0.0
    contaminated = False
    last = psi0
    for t in frame_times:
        t = float(t)
        if t == 0.0:
            frame = psi0
        else:
            frame = ev.propagate(psi0, t, name, run_params)
        worst_drift = max(worst_drift, abs(frame.norm() - norm0))
        if orc.edge_contaminated(frame):
            contaminated = True
        for x, v in zip(frame.x, frame.samples):
            rep.row(t, x, v.real, v.imag, abs(v) ** 2)
        last = frame

    cross_l2 = None
    if not args.no_cross_check and float(frame_times[-1]) > 0:
        # The grid evolver must see the same Hamiltonian the kernel solves.
        cn_params = kind.hamiltonian(run_params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", orc.BoundaryContaminationWarning)
            try:
                cn = orc.grid_evolve(psi0, float(frame_times[-1]), cn_params)
                cross_l2 = ev.l2_distance(last, cn)
            except orc.BoundaryContaminationWarning:
                contaminated = True

    ok = worst_drift <= tol and not contaminated
    trailer = [f"norm_drift={_fmt(worst_drift)} pass={'yes' if worst_drift <= tol else 'no'}"]
    if cross_l2 is not None:
        cross_ok = cross_l2 <= 1e-3
        ok = ok and cross_ok
        trailer.append(f"cross_oracle_l2={_fmt(cross_l2)} pass={'yes' if cross_ok else 'no'}")
    if contaminated:
        trailer.append("boundary_contamination=yes pass=no")
    rep.write(args.output, trailer=trailer)
    for t in trailer:
        print(t)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    params = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)
    failures = 0

    def check(label: str, value: float, bound: float):
        nonlocal failures
        ok = value < bound
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {label}: {value:.3e} (bound {bound:.1e})")

    worst = 0.0
    for ident in sr.IDENTITY_IDS:
        for wt in np.linspace(-0.45 * math.pi, 0.45 * math.pi, 25):
            worst = max(worst, sr.identity_residual(ident, float(wt), params))
    check("identity residual sweep", worst, 1e-12)

    worst = 0.0
    p32 = sr.PhysParams(omega=1.0, n=0.5)
    for x1 in (0.5, 1.1, 1.9):
        for x2 in (0.7, 1.4):
            for t in (0.4, 0.9):
                img = kn.kernel_values("radial_h0", x1, x2, t, p32)
                gen = kn.kernel_values("radial_h0", x1, x2, t, p32, core="bessel")
                worst = max(worst, abs(img - gen) / abs(img))
    check("image-method exactness (n=1/2)", worst, 1e-12)

    p52 = sr.PhysParams(omega=1.0, n=2.5)
    worst = 0.0
    for route in ("ELEMENT", "A1a", "A2a", "A3a"):
        pt = kn.KernelPoint(1.2, 0.8, 0.9)
        d = kn.radial_sho_kernel(pt, p52).value
        r = kn.kernel_via_route(route, pt, p52).value
        worst = max(worst, abs(r - d) / abs(d))
    check("route equivalence spot", worst, 1e-10)

    p0 = sr.PhysParams(omega=0.0, n=0.0)
    pt = kn.KernelPoint(1.0, 1.0, 1.0)
    res = orc.hankel_kernel_oracle(pt, 0.0, p0)
    closed = kn.radial_h0_kernel(pt, p0).value
    check("spectral oracle spot", abs(res.value - closed) / abs(closed), 1e-6)

    print(f"{'PASS' if failures == 0 else 'FAIL'} selftest")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sl2prop",
        description="Oscillator/inverse-square propagators: identity reports, "
        "kernel tables, oracle comparisons, wavepacket traces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("identities", help="disentangling-identity residual sweep")
    _add_phys_args(pi)
    pi.add_argument("--t-min", type=float, default=None)
    pi.add_argument("--t-max", type=float, default=None)
    pi.add_argument("--t-steps", type=int, default=25)
    pi.set_defaults(func=cmd_identities)

    pk = sub.add_parser("kernel", help="tabulate a propagator on a grid")
    _add_phys_args(pk)
    pk.add_argument("--kernel", choices=sorted([*_KERNEL_FLAG, "image"]),
                    default="radial-sho")
    pk.add_argument("--t-min", type=float, default=0.2)
    pk.add_argument("--t-max", type=float, default=1.4)
    pk.add_argument("--t-steps", type=int, default=7)
    pk.add_argument("--x-min", type=float, default=0.5)
    pk.add_argument("--x-max", type=float, default=2.5)
    pk.add_argument("--x-steps", type=int, default=5)
    pk.set_defaults(func=cmd_kernel)

    po = sub.add_parser("oracle-compare",
                        help="closed forms vs the spectral quadrature oracle")
    _add_phys_args(po)
    po.add_argument("--orders", type=str, default=None,
                    help="comma-separated Bessel orders (default 0,0.5,1,2.5)")
    po.add_argument("--times", type=str, default=None,
                    help="comma-separated times (default 0.3,0.7,1.2,2,3.5)")
    po.add_argument("--epsilon-schedule", type=str, default=None,
                    help="comma-separated damping strengths, strictly decreasing, "
                    "every value > 0, e.g. 1e-2,5e-3,2.5e-3")
    po.set_defaults(func=cmd_oracle_compare)

    pe = sub.add_parser("evolve", help="wavepacket evolution trace")
    _add_phys_args(pe)
    pe.add_argument("--kernel", choices=sorted([*_KERNEL_FLAG, "image"]),
                    default="radial-sho")
    pe.add_argument("--center", type=float, default=6.0)
    pe.add_argument("--width", type=float, default=0.6)
    pe.add_argument("--momentum", type=float, default=0.0)
    pe.add_argument("--t-max", type=float, default=1.0)
    pe.add_argument("--frames", type=int, default=5)
    pe.add_argument("--grid-points", type=int, default=2000)
    pe.add_argument("--x-max", type=float, default=14.0)
    pe.add_argument("--dt", type=float, default=5e-4)
    pe.add_argument("--no-cross-check", action="store_true")
    pe.set_defaults(func=cmd_evolve)

    ps = sub.add_parser("selftest", help="quick pass/fail battery")
    ps.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
