"""Command-line surface: CSV reports for identities, kernels, oracles, evolution.

Output is UTF-8 CSV with LF line endings, '#'-prefixed header comments, and
17-significant-digit floats.  Identical configuration produces byte-identical
output; run metadata lives only in header comments and carries no timestamps.
Exit status 1 means a declared check failed.  Exit status 2 means a refused
configuration: a subcommand raises ``ValueError`` and ``main`` alone reports
it as ``error: ...`` on stderr, before any CSV is written.  An ``--output``
path that cannot be opened for writing is refused the same way, as
``error: cannot write <path>: <reason>``: a directory, or a path whose parent
is not one, before any work; any other failure to open when the report is
about to be written, and ``kernel`` still joins its pool.

Every float field is written with ``.17g``.  The kernel and evolve tables
are built a block at a time: the grid coordinates (and, for ``kernel``, the
``x1,x2,`` prefix of each grid pair) are formatted once per run, the time
once per block, and each block is one ``"\n".join`` over the values as
Python complex numbers (``ndarray.tolist``).  The kernel is symmetric in x1
and x2 bit for bit, so ``kernel`` evaluates and formats only the upper
triangle of the grid, once per time, and assembles each row from its prefix
and the triangle entry that ``mirror`` names for that pair.  The magnitudes
are the scalar ``abs(v)`` and ``abs(v) ** 2``, not ``np.abs`` or ``q * q``:
numpy's vectorised complex magnitude and the product round differently in
the last bit for some values, and the CSV must stay byte-stable.  A report
goes to its stream an entry at a time, never joined into one string.

``kernel`` evaluates every time first, so that its skips and refusals come
before any output.  It then formats the triangle entries of all times in
fixed-size chunks on a pool of forked processes, one per CPU the process
may use (at most one per chunk), and streams the report: each time's block
is assembled and written as its entries come back.  The rows do not depend
on the worker count; with one worker, or no fork, the chunks are formatted
in the process.

``evolve`` propagates its frames concurrently: each frame on one thread of
a pool with a thread per CPU the process may use (at most one per frame).
A frame's values do not depend on the worker count.  Frames are formatted
in order as they complete.
"""

from __future__ import annotations

import argparse
import errno
import math
import multiprocessing
import os
import stat
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from itertools import chain, islice

import numpy as np

from . import evolve as ev
from . import kernels as kn
from . import oracle as orc
from . import sl2rep as sr

_DEF_ORACLE_X1 = (0.7, 1.3)
_DEF_ORACLE_X2 = (0.9, 1.6)
# The --kernel spelling of each kernel name.
_KERNEL_CHOICES = tuple(name.replace("_", "-") for name in kn.KERNEL_NAMES)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _add_phys_args(p: argparse.ArgumentParser):
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--output", type=str, default=None,
                   help="CSV path (default: stdout)")


def _add_order_args(p: argparse.ArgumentParser):
    """--order-n or --lambda, for the subcommands that run at one order
    (oracle-compare takes a list of orders)."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--order-n", type=float, default=None,
                       help="Bessel order n >= 0 (default 0.5, i.e. no coupling)")
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="inverse-square coupling, >= -hbar^2/4")


def _params(args) -> sr.PhysParams:
    if args.lam is not None:
        return sr.PhysParams.from_coupling(args.lam, hbar=args.hbar, m=args.mass,
                                           omega=args.omega)
    n = 0.5 if args.order_n is None else args.order_n
    return sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega, n=n)


def _units(params: sr.PhysParams) -> dict[str, float]:
    """The header units of a run at one order."""
    return {"hbar": params.hbar, "m": params.m, "omega": params.omega,
            "n": params.n, "lambda": params.lam}


def _chosen_kernel(args) -> tuple[str, kn.KernelKind, sr.PhysParams]:
    """The kernel name, its kind, and the Hamiltonian the name fixes, which
    the kernel, the eigenbasis oracle and the header all see."""
    name = args.kernel.replace("-", "_")
    kind = kn.kernel_kind(name)
    return name, kind, kind.hamiltonian(_params(args))


def _tolerance(text: str) -> float:
    """A --tolerance: a number >= 0.  NaN is refused too: every comparison
    with it is false, so a check would pass or fail whatever it measured."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, not {text!r}")
    return value


def _header(command: str, units: dict[str, float], *lines: str) -> list[str]:
    """A report's opening '#' lines, followed by ``lines``."""
    return [f"# sl2prop {command}",
            "# units: " + " ".join(f"{k}={_fmt(v)}" for k, v in units.items()), *lines]


def _check_output(path: str):
    """Refuse an ``--output`` whose parent is not a directory, or that names
    one (a trailing separator does), with the reason ``open`` would give,
    opening nothing."""
    parent = os.path.dirname(path.rstrip(os.sep)) or "."
    try:
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror}") from e


def _write(path: str | None, lines):
    """Write a report to ``path`` or stdout: each entry of the iterable
    ``lines`` (a line, or a block of lines joined by "\n") and an LF go
    straight to the stream as it comes, so the report is never joined into
    one string.  Nothing may be refused once the first entry is drawn.  A
    path that cannot be opened for writing is refused with ``ValueError``
    before any entry is drawn."""
    try:
        stream = nullcontext(sys.stdout) if path is None else open(
            path, "w", encoding="utf-8", newline="\n")
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from e
    with stream as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


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
    tol = args.tolerance
    if params.omega > 0:
        default_span = 0.45 * math.pi / params.omega
    else:
        default_span = 1.0
    t_min = -default_span if args.t_min is None else args.t_min
    t_max = default_span if args.t_max is None else args.t_max
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("identities t-range must be finite")
    ts = np.linspace(t_min, t_max, args.t_steps)

    # The clip notices join the header after the sweep.
    header = _header("identities", _units(params),
                     f"# t-range: [{_fmt(t_min)}, {_fmt(t_max)}] steps={args.t_steps}",
                     f"# tolerance: {_fmt(tol)}")
    rows = []
    worst = 0.0
    checked = 0
    clipped = {}
    # One residual call per identity, over the times it does not clip.
    for ident in sr.IDENTITY_IDS:
        kept = [t for t in ts.tolist() if _identity_window_ok(ident, t, params)]
        clipped[ident] = ts.size - len(kept)
        if not kept:
            continue
        residuals = sr.identity_residual(ident, np.array(kept), params).tolist()
        worst = max(worst, *residuals)
        checked += len(kept)
        rows.extend(f"{ident},{t:.17g},{r:.17g}" for t, r in zip(kept, residuals))
    for ident, cnt in clipped.items():
        if cnt:
            msg = f"{ident}: {cnt} t-points outside validity window were clipped"
            header.append(f"# notice: {msg}")
            print(f"notice: {msg}", file=sys.stderr)
    if checked == 0:
        raise ValueError("no t-point was checked (none requested, or every one clipped)")

    ok = worst <= tol
    _write(args.output, [*header, "identity_id,t,residual", *rows,
                         f"# max_residual={_fmt(worst)}", f"# pass={'yes' if ok else 'no'}"])
    return 0 if ok else 1


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.sched_getaffinity is missing on
    macOS and Windows)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# Values per chunk of kernel entries formatted by one task: about 28 ms of
# %.17g, against about 2 ms to pickle the entries back, while a 160x160x7
# table (90160 values) still cuts into 12 chunks, so that two workers finish
# within a chunk of each other.  16384 was as fast and 32768 slower.  The
# default 5x5x7 table fits in one chunk and starts no process.
_CHUNK = 8192


def _format_entries(pieces: list[tuple[str, np.ndarray]]) -> list[str]:
    """The ``t,re,im,abs`` tail of each row in a chunk, in order.  ``pieces``
    pairs a formatted time with triangle values at that time.  It runs in a
    pool worker or in the process and only formats floats."""
    return [f"{t_s},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}"
            for t_s, values in pieces for v in values.tolist()]


def _chunks(times_s: list[str], values: np.ndarray):
    """``values``, the triangles of the times ``times_s`` end to end, cut
    into chunks of ``_CHUNK`` values; a chunk may span several times."""
    m = values.size // len(times_s)
    for a in range(0, values.size, _CHUNK):
        b = min(a + _CHUNK, values.size)
        yield [(times_s[k], values[max(a, k * m):min(b, (k + 1) * m)])
               for k in range(a // m, (b - 1) // m + 1)]


def _kernel_report(lines: list, formatted, prefixes: list[str], mirror: list[int]):
    """The report's lines, where each None in ``lines`` stands for the next
    time's block, assembled from ``formatted`` (the chunks' entries, in
    order) as its entries arrive."""
    entries = chain.from_iterable(formatted)
    m = max(mirror) + 1  # triangle entries per time
    for line in lines:
        if line is None:
            tail = list(islice(entries, m))
            line = "\n".join([prefix + tail[k] for prefix, k in zip(prefixes, mirror)])
        yield line


def cmd_kernel(args) -> int:
    name, kind, run_params = _chosen_kernel(args)
    if kind.halfline and args.x_min <= 0:
        raise ValueError("radial kernels need --x-min > 0")
    # Checked before linspace, which would warn on a non-finite bound.
    if not all(map(math.isfinite, (args.t_min, args.t_max))):
        raise ValueError("kernel argument t must be finite")
    if not all(map(math.isfinite, (args.x_min, args.x_max))):
        raise ValueError("kernel argument x1 must be finite")
    if args.x_steps == 0:
        raise ValueError("no grid point requested (--x-steps 0)")
    if args.t_steps == 0:
        raise ValueError("no time requested (--t-steps 0)")
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)

    lines = _header("kernel", _units(run_params), f"# kernel: {args.kernel}",
                    "x1,x2,t,re,im,abs")

    # The kernel is symmetric in x1 and x2, bit for bit, so it is evaluated
    # on the upper triangle of the grid only.  The rows run row-major over
    # (x1, x2), as mat.ravel() does; mirror names the triangle entry of each.
    # Every time is evaluated, and every skip and refusal taken, before the
    # first line is written.
    iu, ju = np.triu_indices(xs.size)
    times_s, uppers = [], []
    for t in ts.tolist():
        t_s = _fmt(t)
        if t == 0.0:
            lines.append(f"# skip t={t_s} reason=delta-limit")
            continue
        try:
            uppers.append(kn.kernel_values(name, xs[iu], xs[ju], t, run_params))
        except kn.CausticSingularity as e:
            lines.append(f"# skip t={t_s} reason=caustic nearest={_fmt(e.nearest_caustic_time)}")
            continue
        times_s.append(t_s)
        lines.append(None)  # this time's block
    if not times_s:
        raise ValueError("every requested time was skipped (caustic or t=0)")

    tri = np.empty((xs.size, xs.size), dtype=np.intp)
    tri[iu, ju] = tri[ju, iu] = np.arange(iu.size)
    mirror = tri.ravel().tolist()
    xs_s = [_fmt(x) for x in xs]
    prefixes = [f"{x1},{x2}," for x1 in xs_s for x2 in xs_s]
    # The entries are formatted in chunks on a pool of forked processes, one
    # per CPU the process may use (at most one per chunk), or here when there
    # is one worker or no fork; the rows do not depend on the worker count.
    # Fork, not spawn: a spawned worker would import numpy and scipy again,
    # about 0.4 s, more than the formatting it takes over.  A child only
    # formats floats, so it needs no lock that another thread (BLAS) may
    # hold.  It flushes the standard streams it inherits when it exits, so
    # they are flushed first.  The with block joins the pool on every path,
    # and an error cancels the chunks not yet started.
    values = np.concatenate(uppers)
    chunks = _chunks(times_s, values)
    workers = 1
    if "fork" in multiprocessing.get_all_start_methods():
        workers = min(_usable_cpus(), -(-values.size // _CHUNK))
    sys.stdout.flush()
    sys.stderr.flush()
    with (nullcontext() if workers == 1 else ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))) as pool:
        formatted = (map if pool is None else pool.map)(_format_entries, chunks)
        try:
            _write(args.output, _kernel_report(lines, formatted, prefixes, mirror))
        except BaseException:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            raise
    return 0


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of floats; a blank entry is refused."""
    items = text.split(",")
    if not all(s.strip() for s in items):
        raise ValueError(f"blank entry in the comma-separated list {text!r}")
    return tuple(float(s) for s in items)


def cmd_oracle_compare(args) -> int:
    tol = args.tolerance
    orders = _floats(args.orders)
    times = _floats(args.times)

    # Each row carries its order in the n column.
    lines = _header("oracle-compare", {"hbar": args.hbar, "m": args.mass, "omega": args.omega},
                    f"# tolerance: {_fmt(tol)}")
    lines.append("x1,x2,t,n,closed_re,closed_im,oracle_re,oracle_im,rel_err,"
                 "oracle_err_estimate,flag")

    # One oracle call per time integrates every order and point pair on one
    # node set: the effective time and the nodes do not depend on the order
    # (MAIN's wrap and the oracle read hbar, m and omega only).  The call is
    # made at the first row of that time that is not a caustic skip.
    x1s, x2s = np.meshgrid(_DEF_ORACLE_X1, _DEF_ORACLE_X2, indexing="ij")
    at_time: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def oracle_at(t: float, params: sr.PhysParams):
        # The oracle gives the w = 0 kernel; MAIN's phases and effective
        # time carry it to the oscillator.  Past the caustic at pi/w the
        # effective time is negative (t = 3.5 at w = 1) and the oracle's
        # ray turns with it, so those rows take the principal branch that
        # the closed form takes.
        phase, te = kn.main_wrap(x1s, x2s, t, params)
        res = orc.hankel_kernel_oracle(x1s, x2s, te, np.array(orders), params)
        return phase * res.value, res.error_estimate

    failed = False
    name = "radial_sho" if args.omega > 0 else "radial_h0"
    for a, n in enumerate(orders):
        run = sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega, n=n)
        for i, x1 in enumerate(_DEF_ORACLE_X1):
            for j, x2 in enumerate(_DEF_ORACLE_X2):
                for b, t in enumerate(times):
                    try:
                        closed = kn.kernel_values(name, x1, x2, t, run)
                    except kn.CausticSingularity as e:
                        lines.append(
                            f"# skip t={_fmt(t)} n={_fmt(n)} reason=caustic "
                            f"nearest={_fmt(e.nearest_caustic_time)}"
                        )
                        continue
                    if b not in at_time:
                        at_time[b] = oracle_at(t, run)
                    values, estimates = at_time[b]
                    oracle_val = complex(values[a, i, j])
                    estimate = float(estimates[a, i, j])
                    rel = abs(oracle_val - closed) / abs(closed)
                    flag = "fail" if rel > tol else "nonconverged" if estimate > tol else "ok"
                    failed = failed or flag == "fail"
                    lines.append(
                        f"{x1:.17g},{x2:.17g},{t:.17g},{n:.17g},"
                        f"{closed.real:.17g},{closed.imag:.17g},"
                        f"{oracle_val.real:.17g},{oracle_val.imag:.17g},"
                        f"{rel:.17g},{estimate:.17g},{flag}"
                    )
    _write(args.output, lines)
    return 1 if failed else 0


def cmd_evolve(args) -> int:
    tol = args.tolerance
    if not math.isfinite(args.t_max):
        raise ValueError("evolve --t-max must be finite")
    name, kind, run_params = _chosen_kernel(args)
    x_min = 0.0 if kind.halfline else -args.x_max
    grid = orc.GridSpec(x_max=args.x_max, points=args.grid_points, x_min=x_min)
    packet = ev.TestFunction(center=args.center, width=args.width,
                             momentum=args.momentum)
    psi0 = packet.sample(grid, run_params, kind.halfline)
    # A zero state would pass every check vacuously.
    if not np.any(psi0.samples):
        raise ValueError("the packet is zero on every node of the grid "
                         f"[{_fmt(grid.x_min)}, {_fmt(grid.x_max)}]")

    frame_times = np.linspace(0.0, args.t_max, args.frames)
    if not np.any(frame_times != 0.0):
        raise ValueError("no frame at t != 0 to propagate (--frames < 2 or --t-max 0)")
    lines = _header("evolve", _units(run_params),
                    f"# kernel: {args.kernel} packet: center={_fmt(args.center)} "
                    f"width={_fmt(args.width)} momentum={_fmt(args.momentum)}",
                    "t,x,re,im,abs2")

    # The oracle, exact evolution in the eigenbasis, needs only psi0 and the
    # final time (nonzero, either sign): its refusals cost no propagation.
    exact = orc.eigen_evolve(psi0, float(frame_times[-1]), run_params, kind.halfline)

    # Every frame lives on psi0's grid.
    xs_s = [_fmt(x) for x in psi0.x]
    norm0 = psi0.norm()
    worst_drift = 0.0
    contaminated = False
    # One task per frame at t != 0, on a thread per CPU the process may use
    # (at most one per frame): the Bessel ufuncs and numpy's loops release
    # the GIL, and a frame's values do not depend on the worker count.
    # Frames are formatted in order as they complete, overlapping the work
    # on later ones; if one raises, those not yet started are cancelled, and
    # the with block joins the pool on every path.
    times = frame_times.tolist()
    workers = min(_usable_cpus(), sum(t != 0.0 for t in times))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = [None if t == 0.0 else pool.submit(ev.propagate, psi0, t, name, run_params)
                   for t in times]
        try:
            for t, future in zip(times, pending):
                frame = psi0 if future is None else future.result()
                worst_drift = max(worst_drift, abs(frame.norm() - norm0))
                contaminated = contaminated or orc.edge_contaminated(frame)
                t_s = _fmt(t)
                lines.append("\n".join([
                    f"{t_s},{x_s},{v.real:.17g},{v.imag:.17g},{abs(v) ** 2:.17g}"
                    for x_s, v in zip(xs_s, frame.samples.tolist())
                ]))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    # Each check is decided once, here; the trailer and the exit code read it.
    # Frame and oracle agree to rounding on a resolving grid: 1e-9 is 400x the
    # worst default-grid distance (2.4e-12, radial-h0 at n = 50).
    cross_l2 = ev.l2_distance(frame, exact)
    checks = [(f"norm_drift={_fmt(worst_drift)}", worst_drift <= tol),
              (f"cross_oracle_l2={_fmt(cross_l2)}", cross_l2 <= 1e-9)]
    if contaminated:
        checks.append(("boundary_contamination=yes", False))
    trailer = [f"{text} pass={'yes' if ok else 'no'}" for text, ok in checks]
    _write(args.output, lines + [f"# {t}" for t in trailer])
    print("\n".join(trailer))
    return 0 if all(ok for _, ok in checks) else 1


def cmd_selftest(args) -> int:
    """One PASS/FAIL line per check, each against its stated bound:

    - identity residual sweep (1e-12) and image-method exactness (1e-12):
      radial_h0 at n = 1/2 against free(x1, x2) - free(x1, -x2), 12 points;
    - route equivalence (1e-10): each route of ``kernels.kernel_via_route``
      against the closed form ``kernels.kernel_values``; the spectral
      oracle against it at one point (1e-9, reads 3.6e-16);
    - kernel PDE residual (2e-4): the worst ``evolve.schrodinger_residual``
      at (1.2, 0.8, 0.7), dx = 0.01, dt = 1e-4, over radial_sho n = 2.5, sho
      and radial_h0 n = 1 (the O(dx^2 + dt^2) defect reads 8.2e-5);
    - delta limit (1e-4): |2 e(t) - e(2t)| / |f(x1)| at t = 0.005 from
      ``evolve.delta_limit_check``, the smearing error with its linear term
      extrapolated away, for sho and radial_sho n = 1/2 (reads 7.1e-6).
    """
    params = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)
    failures = 0

    def check(label: str, value: float, bound: float):
        nonlocal failures
        ok = value < bound
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {label}: {value:.3e} (bound {bound:.1e})")

    sweep = np.linspace(-0.45 * math.pi, 0.45 * math.pi, 25)
    worst = max(float(np.max(sr.identity_residual(ident, sweep, params)))
                for ident in sr.IDENTITY_IDS)
    check("identity residual sweep", worst, 1e-12)

    worst = 0.0
    x1, x2 = np.meshgrid((0.5, 1.1, 1.9), (0.7, 1.4), indexing="ij")
    for t in (0.4, 0.9):
        img = (kn.kernel_values("free", x1, x2, t, params)
               - kn.kernel_values("free", x1, -x2, t, params))
        gen = kn.kernel_values("radial_h0", x1, x2, t, params)
        worst = max(worst, float(np.max(np.abs(img - gen) / np.abs(img))))
    check("image-method exactness (n=1/2)", worst, 1e-12)

    p52 = sr.PhysParams(omega=1.0, n=2.5)
    worst = 0.0
    d = kn.kernel_values("radial_sho", 1.2, 0.8, 0.9, p52)
    for route in kn.ROUTE_IDS:
        r = kn.kernel_via_route(route, 1.2, 0.8, 0.9, p52)
        worst = max(worst, abs(r - d) / abs(d))
    check("route equivalence spot", worst, 1e-10)

    p0 = sr.PhysParams(omega=0.0, n=0.0)
    res = orc.hankel_kernel_oracle(1.0, 1.0, 1.0, 0.0, p0)
    closed = kn.kernel_values("radial_h0", 1.0, 1.0, 1.0, p0)
    check("spectral oracle spot", abs(res.value - closed) / abs(closed), 1e-9)

    worst = max(ev.schrodinger_residual(name, 1.2, 0.8, 0.7, p, 0.01, 1e-4) for name, p in (
        ("radial_sho", p52), ("sho", params), ("radial_h0", sr.PhysParams(omega=0.0, n=1.0))))
    check("kernel PDE residual", worst, 2e-4)

    packet = ev.TestFunction(center=3.0, width=0.5, momentum=1.0)
    f_x1 = abs(packet.evaluate(3.2, params))
    worst = 0.0
    for name, x_min in (("sho", -8.0), ("radial_sho", 0.0)):
        grid = orc.GridSpec(x_max=8.0, points=4000, x_min=x_min)
        e2t, et = ev.delta_limit_check(packet, 3.2, (0.01, 0.005), name, params, grid)
        worst = max(worst, abs(2.0 * et - e2t) / f_x1)
    check("delta limit (extrapolated)", worst, 1e-4)

    print(f"{'PASS' if failures == 0 else 'FAIL'} selftest")
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reads -inf and -1e5 as values, not as options; subparsers inherit it."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sl2prop",
        description="Oscillator/inverse-square propagators: identity reports, "
        "kernel tables, oracle comparisons, wavepacket traces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("identities", help="disentangling-identity residual sweep")
    _add_phys_args(pi)
    _add_order_args(pi)
    pi.add_argument("--tolerance", type=_tolerance, default=1e-12)
    pi.add_argument("--t-min", type=float, default=None)
    pi.add_argument("--t-max", type=float, default=None)
    pi.add_argument("--t-steps", type=int, default=25)
    pi.set_defaults(func=cmd_identities)

    pk = sub.add_parser("kernel", help="tabulate a propagator on a grid")
    _add_phys_args(pk)
    _add_order_args(pk)
    pk.add_argument("--kernel", choices=_KERNEL_CHOICES, default="radial-sho")
    pk.add_argument("--t-min", type=float, default=0.2)
    pk.add_argument("--t-max", type=float, default=1.4)
    pk.add_argument("--t-steps", type=int, default=7)
    pk.add_argument("--x-min", type=float, default=0.5)
    pk.add_argument("--x-max", type=float, default=2.5)
    pk.add_argument("--x-steps", type=int, default=5)
    pk.set_defaults(func=cmd_kernel)

    po = sub.add_parser(
        "oracle-compare", help="closed forms vs the spectral oracle",
        description="Compare the radial kernels' closed forms with the spectral "
        "oracle: the Hankel integral over the Bessel eigenfunctions, taken along "
        "a ray into the complex plane where it converges absolutely.  A row fails "
        "when its rel_err exceeds --tolerance.")
    _add_phys_args(po)
    po.add_argument("--tolerance", type=_tolerance, default=1e-6)
    po.add_argument("--orders", type=str, default="0,0.5,1,2.5",
                    help="comma-separated Bessel orders (default 0,0.5,1,2.5)")
    po.add_argument("--times", type=str, default="0.3,0.7,1.2,2,3.5",
                    help="comma-separated times (default 0.3,0.7,1.2,2,3.5)")
    po.set_defaults(func=cmd_oracle_compare)

    pe = sub.add_parser("evolve", help="wavepacket evolution trace")
    _add_phys_args(pe)
    _add_order_args(pe)
    pe.add_argument("--kernel", choices=_KERNEL_CHOICES, default="radial-sho")
    pe.add_argument("--tolerance", type=_tolerance, default=1e-6)
    pe.add_argument("--center", type=float, default=6.0)
    pe.add_argument("--width", type=float, default=0.6)
    pe.add_argument("--momentum", type=float, default=0.0)
    pe.add_argument("--t-max", type=float, default=1.0)
    pe.add_argument("--frames", type=int, default=5)
    pe.add_argument("--grid-points", type=int, default=2000)
    pe.add_argument("--x-max", type=float, default=14.0)
    pe.set_defaults(func=cmd_evolve)

    ps = sub.add_parser("selftest", help="quick pass/fail battery")
    ps.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "output", None) is not None:
            _check_output(args.output)
        return args.func(args)
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
