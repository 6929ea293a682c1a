"""Command-line surface: CSV reports for identities, kernels, oracles, evolution.

Output is UTF-8 CSV with LF line endings, '#'-prefixed header comments, and
17-significant-digit floats.  Identical configuration produces byte-identical
output; run metadata lives only in header comments and carries no timestamps.

Every subcommand returns ``(entries, ok, echo)``: its report's entries,
whether its declared checks passed, and the text it echoes on stdout after
the report (only ``evolve``'s trailer).  ``main`` alone writes the report,
prints the echo and decides the exit status: 0, or 1 when a declared check
failed.  Exit status 2 means a refused configuration: a subcommand raises
``ValueError`` and ``main`` reports it as ``error: ...`` on stderr, before
any CSV is written.  An ``--output`` path that cannot be opened for writing
is refused the same way, as ``error: cannot write <path>: <reason>``: a
directory, or a path whose parent is not one, before any work; any other
failure to open when the report is about to be written, before ``kernel``
starts its pool, which it does as the first entry is drawn.

Every float field is written with ``.17g``.  The grid coordinates are
formatted once per run and the time once per block, and the values are
formatted as Python complex numbers (``ndarray.tolist``).  An ``evolve``
frame is one block, one ``"\n".join`` over its rows.  The kernel is
symmetric in x1 and x2 bit for bit, so ``kernel`` evaluates and formats only
the upper triangle of the grid, once per time: bare complex slices go to
the pool and ``re,im,abs`` strings come back, and the row writer alone
places x1, x2 and t.  It writes a time's block one x1 row at a time, each
row of the grid one ``"\n".join`` of ``x1,``, an ``x2,t`` pair formatted
once per block, and the entry that the ``tri`` index matrix names for that
pair.  The magnitudes are the scalar ``abs(v)`` and ``abs(v) ** 2``, not
``np.abs`` or ``q * q``: numpy's vectorised complex magnitude and the product
round differently in the last bit for some values, and the CSV must stay
byte-stable.  A report goes to its stream an entry at a time, never joined
into one string.

``kernel`` evaluates every time first, so that its skips and refusals come
before any output.  It then formats the triangle values of all times in
fixed-size chunks, plain slices of ``values`` that may span times, and
streams the report: each time's block is assembled and written row by row as
its entries come back.  Besides the evaluated triangles (one array,
``values``) and the formatted chunks not yet written, the parent holds one
time's formatted triangle entries and one grid row of the report; no table of
one entry per grid pair.

``oracle-compare`` works a time at a time: one closed-form call per order
over the point pairs and one oracle call for every order and pair.  The
rows still run n -> x1 -> x2 -> t, and a closed value that underflows to 0,
which has no relative error, is refused by name.  So is a run whose every
time is skipped at a caustic, which would compare nothing.

``kernel``'s chunks and ``evolve``'s frames at t != 0 are the CLI's only
parallel work, and one helper, ``_in_order``, runs both on one worker per
CPU the process may use (at most one per task): forked processes for
``kernel``, whose formatting holds the GIL, and threads for ``evolve``,
whose Bessel ufuncs and numpy loops release it.  With one worker, or no
fork for ``kernel``, the tasks run in the process.  The results come back
in task order, so no output depends on the worker count.
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
from contextlib import contextmanager, nullcontext
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
    (oracle-compare takes a list of orders, and identities reads none)."""
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


def _units(params: sr.PhysParams, order: bool = True) -> dict[str, float]:
    """The header units: hbar, m and omega, and n and lambda for a run at
    one order."""
    units = {"hbar": params.hbar, "m": params.m, "omega": params.omega}
    return {**units, "n": params.n, "lambda": params.lam} if order else units


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
    wt = params.omega_t(t)
    if identity_id == "MAIN":
        return abs(math.cos(wt / 2.0)) > 0.05
    return math.cos(wt) > 0.1


def cmd_identities(args):
    # Nothing in the sweep reads the order n.
    params = sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega)
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

    # The clip notices join the header, and go to stderr, after the sweep:
    # a residual call may still refuse the run, and then only its error shows.
    header = _header("identities", _units(params, order=False),
                     f"# t-range: [{_fmt(t_min)}, {_fmt(t_max)}] steps={args.t_steps}",
                     f"# tolerance: {_fmt(tol)}")
    rows = []
    worst = 0.0
    notices = []
    # One residual call per identity, over the times it does not clip.
    for ident in sr.IDENTITY_IDS:
        kept = [t for t in ts.tolist() if _identity_window_ok(ident, t, params)]
        if len(kept) < ts.size:
            notices.append(f"{ident}: {ts.size - len(kept)} t-points outside "
                           "validity window were clipped")
        if not kept:
            continue
        residuals = sr.identity_residual(ident, np.array(kept), params).tolist()
        worst = max(worst, *residuals)
        rows.extend(f"{ident},{t:.17g},{r:.17g}" for t, r in zip(kept, residuals))
    header.extend(f"# notice: {msg}" for msg in notices)
    sys.stderr.writelines(f"notice: {msg}\n" for msg in notices)
    if not rows:
        raise ValueError("no t-point was checked (none requested, or every one clipped)")

    ok = worst <= tol
    return [*header, "identity_id,t,residual", *rows, f"# max_residual={_fmt(worst)}",
            f"# pass={'yes' if ok else 'no'}"], ok, ""


@contextmanager
def _in_order(fn, tasks: list, *, fork: bool):
    """Yield an iterator of ``fn(task)`` for each task, in order, run on one
    worker per CPU the process may use (at most one per task): forked
    processes when ``fork`` is set, threads otherwise.  With one worker, or
    ``fork`` set on a platform without it, the tasks run here, one at a time
    as the iterator is drawn.

    Fork, not spawn: a spawned worker would import numpy and scipy again,
    about 0.4 s.  A forked child must need no lock that another thread (BLAS)
    may hold, and it flushes the standard streams it inherits when it exits,
    so they are flushed first.  An error cancels the tasks not yet started,
    and the pool is joined on every path."""
    # os.sched_getaffinity is missing on macOS and Windows.
    workers = min(len(tasks), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    if workers <= 1 or fork and "fork" not in multiprocessing.get_all_start_methods():
        yield map(fn, tasks)
        return
    if fork:
        sys.stdout.flush()
        sys.stderr.flush()
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    else:
        pool = ThreadPoolExecutor(workers)
    with pool:
        try:
            yield pool.map(fn, tasks)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# Values per chunk of kernel entries formatted by one task, a plain slice of
# the triangles that may span times: about 28 ms of %.17g, against about 2 ms
# to pickle the re,im,abs strings back, while a 160x160x7 table (90160
# values) still cuts into 12 chunks, so that two workers finish within a
# chunk of each other.  16384 was as fast and 32768 slower.  The default
# 5x5x7 table fits in one chunk and starts no process.
_CHUNK = 8192


def _format_entries(values: np.ndarray) -> list[str]:
    """The ``re,im,abs`` fields of each complex value, in order.  It runs in
    a pool worker or in the process and only formats floats."""
    return [f"{v.real:.17g},{v.imag:.17g},{abs(v):.17g}" for v in values.tolist()]


def _kernel_report(lines: list, chunks: list, xs_s: list[str], tri: np.ndarray):
    """The report's entries, where each ``(t_s,)`` in ``lines`` stands for
    the block of the time ``t_s``.  The ``chunks`` are formatted by
    ``_in_order``, entered as the first entry is drawn, so its pool starts
    only once the report's stream is open.  A block's ``re,im,abs`` entries
    are taken from the chunks' strings, in order, as they arrive and yielded
    one grid row at a time: row i pairs ``xs_s[i]`` with each x2, joined
    with ``t_s`` once per block, and the entry that row i of ``tri`` names.
    So the parent holds one time's entries and one grid row of the report,
    never a block."""
    m = int(tri[-1, -1]) + 1  # triangle entries per time; (n-1, n-1) is the last
    with _in_order(_format_entries, chunks, fork=True) as formatted:
        entries = chain.from_iterable(formatted)
        for line in lines:
            if isinstance(line, str):
                yield line
                continue
            (t_s,) = line
            fields = list(islice(entries, m))
            cols = [f"{x2},{t_s}" for x2 in xs_s]
            for x1, row in zip(xs_s, tri):
                yield "\n".join([f"{x1},{col},{fields[k]}" for col, k in zip(cols, row.tolist())])


def cmd_kernel(args):
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
    # (x1, x2), as mat.ravel() does; tri names the triangle entry of each.
    # Every time is evaluated, and every skip and refusal taken, before the
    # first line is written.
    iu, ju = np.triu_indices(xs.size)
    uppers = []
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
        lines.append((t_s,))  # this time's block
    if not uppers:
        raise ValueError("every requested time was skipped (caustic or t=0)")

    tri = np.empty((xs.size, xs.size), dtype=np.intp)
    tri[iu, ju] = tri[ju, iu] = np.arange(iu.size)
    xs_s = [_fmt(x) for x in xs]
    values = np.concatenate(uppers)
    del uppers  # values is the one copy of the triangles
    chunks = [values[a:a + _CHUNK] for a in range(0, values.size, _CHUNK)]
    return _kernel_report(lines, chunks, xs_s, tri), True, ""


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of floats; a blank entry is refused."""
    items = text.split(",")
    if not all(s.strip() for s in items):
        raise ValueError(f"blank entry in the comma-separated list {text!r}")
    return tuple(float(s) for s in items)


def cmd_oracle_compare(args):
    tol = args.tolerance
    orders = _floats(args.orders)
    times = _floats(args.times)

    # Each row carries its order in the n column.
    base = sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega)
    lines = _header("oracle-compare", _units(base, order=False), f"# tolerance: {_fmt(tol)}")
    lines.append("x1,x2,t,n,closed_re,closed_im,oracle_re,oracle_im,rel_err,"
                 "oracle_err_estimate,flag")

    # Per time, one closed-form call per order over the point pairs, and one
    # oracle call that integrates every order and pair on one node set (MAIN's
    # factors and the oracle read hbar, m and omega only); a caustic skips the
    # time at every order.  MAIN's quadratic phase and effective time carry
    # the oracle's w = 0 kernel to the oscillator.  Past the caustic at pi/w
    # the effective time is negative (t = 3.5 at w = 1) and the oracle's ray
    # turns with it, so those rows take the closed form's principal branch.
    # At w = 0 radial_sho is radial_h0.
    runs = [sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega, n=n) for n in orders]
    x1s, x2s = np.meshgrid(_DEF_ORACLE_X1, _DEF_ORACLE_X2, indexing="ij")
    at_time = []
    for t in times:
        try:
            closed = np.stack([kn.kernel_values("radial_sho", x1s, x2s, t, run) for run in runs])
        except kn.CausticSingularity as e:
            at_time.append(e)
            continue
        outer, _, _, te = kn.route_factors("MAIN", x1s, x2s, t, base)
        res = orc.hankel_kernel_oracle(x1s, x2s, te, np.array(orders), base)
        at_time.append((closed, outer * res.value, res.quad_err + res.tail_err))
    # A report of skips alone compares nothing, so it would pass vacuously.
    if all(isinstance(got, kn.CausticSingularity) for got in at_time):
        raise ValueError("every requested time was skipped (caustic)")

    # Rows run n -> x1 -> x2 -> t, a skip comment in a skipped row's place.
    failed = False
    for a, n in enumerate(orders):
        for i, x1 in enumerate(_DEF_ORACLE_X1):
            for j, x2 in enumerate(_DEF_ORACLE_X2):
                for t, got in zip(times, at_time):
                    if isinstance(got, kn.CausticSingularity):
                        lines.append(f"# skip t={_fmt(t)} n={_fmt(n)} reason=caustic "
                                     f"nearest={_fmt(got.nearest_caustic_time)}")
                        continue
                    closed, oracle_val, estimate = (v[a, i, j].item() for v in got)
                    if closed == 0:
                        raise ValueError(f"the closed form underflowed to 0 at x1={x1:.17g}, "
                                         f"x2={x2:.17g}, t={t:.17g}, n={n:.17g}")
                    rel = abs(oracle_val - closed) / abs(closed)
                    flag = ("fail" if rel > tol else "nonconverged"
                            if estimate > tol * abs(closed) else "ok")
                    failed = failed or flag == "fail"
                    lines.append(
                        f"{x1:.17g},{x2:.17g},{t:.17g},{n:.17g},"
                        f"{closed.real:.17g},{closed.imag:.17g},"
                        f"{oracle_val.real:.17g},{oracle_val.imag:.17g},"
                        f"{rel:.17g},{estimate:.17g},{flag}"
                    )
    return lines, not failed, ""


def cmd_evolve(args):
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
    times = frame_times.tolist()
    with _in_order(lambda t: ev.propagate(psi0, t, name, run_params),
                   [t for t in times if t != 0.0], fork=False) as frames:
        for t in times:
            frame = psi0 if t == 0.0 else next(frames)
            worst_drift = max(worst_drift, abs(frame.norm() - norm0))
            contaminated = contaminated or orc.edge_contaminated(frame)
            t_s = _fmt(t)
            lines.append("\n".join([
                f"{t_s},{x_s},{v.real:.17g},{v.imag:.17g},{abs(v) ** 2:.17g}"
                for x_s, v in zip(xs_s, frame.samples.tolist())
            ]))

    # Each check is decided once, here; the trailer and the exit code read it.
    # Frame and oracle agree to rounding on a resolving grid: 1e-9 is 400x the
    # worst default-grid distance (2.4e-12, radial-h0 at n = 50).
    cross_l2 = ev.l2_distance(frame, exact)
    checks = [(f"norm_drift={_fmt(worst_drift)}", worst_drift <= tol),
              (f"cross_oracle_l2={_fmt(cross_l2)}", cross_l2 <= 1e-9)]
    if contaminated:
        checks.append(("boundary_contamination=yes", False))
    trailer = [f"{text} pass={'yes' if ok else 'no'}" for text, ok in checks]
    return lines + [f"# {t}" for t in trailer], all(ok for _, ok in checks), "\n".join(trailer)


def cmd_selftest(args):
    """One PASS/FAIL line per check, each against its stated bound:

    - identity residual sweep (1e-12) and image-method exactness (1e-12):
      radial_h0 at n = 1/2 against free(x1, x2) - free(x1, -x2), 12 points;
    - route equivalence (1e-10): each of the seven identities through
      ``kernels.route_factors`` against the closed form
      ``kernels.kernel_values``; the spectral oracle against it at one
      point (1e-9, reads 3.2e-16);
    - kernel PDE residual (2e-4): the worst ``evolve.schrodinger_residual``
      at (1.2, 0.8, 0.7), dx = 0.01, dt = 1e-4, over radial_sho n = 2.5, sho
      and radial_h0 n = 1 (the O(dx^2 + dt^2) defect reads 8.2e-5);
    - delta limit (1e-4): |2 e(t) - e(2t)| / |f(x1)| at t = 0.005 from
      ``evolve.delta_limit_check``, the smearing error with its linear term
      extrapolated away, for sho and radial_sho n = 1/2 (reads 7.1e-6).
    """
    params = sr.PhysParams(hbar=1.0, m=1.0, omega=1.0, n=0.5)
    lines = []

    def check(label: str, value: float, bound: float):
        lines.append(f"{'PASS' if value < bound else 'FAIL'} {label}: {value:.3e} "
                     f"(bound {bound:.1e})")

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
    for ident in sr.IDENTITY_IDS:
        outer, y1, y2, te = kn.route_factors(ident, 1.2, 0.8, 0.9, p52)
        r = outer * kn.kernel_values("radial_h0", y1, y2, te, p52)
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

    ok = all(line.startswith("PASS") for line in lines)
    return [*lines, f"{'PASS' if ok else 'FAIL'} selftest"], ok, ""


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
        "when its rel_err exceeds --tolerance, and is nonconverged, which does not "
        "fail the run, when the oracle's error estimate exceeds --tolerance * |closed|.")
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
    output = getattr(args, "output", None)
    try:
        if output is not None:
            _check_output(output)
        entries, ok, echo = args.func(args)
        _write(output, entries)
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if echo:
        print(echo)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
