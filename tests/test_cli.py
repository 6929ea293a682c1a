import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sl2prop
from sl2prop import cli
from sl2prop import evolve as ev
from sl2prop import kernels as kn
from sl2prop import oracle as orc
from sl2prop import sl2rep as sr

# Reduced oracle comparison: both the image (n = 1/2) and a Bessel order,
# one time, four point pairs.
ORACLE_SMALL = ["oracle-compare", "--orders", "0.5,1", "--times", "0.7"]


def run(argv, path):
    return cli.main([*argv, "--output", str(path)])


@pytest.mark.parametrize("argv", [["identities"], ["kernel"], ORACLE_SMALL,
                                  ["evolve", "--frames", "2"]],
                         ids=lambda a: a[0])
def test_default_runs_pass_and_repeat_byte_for_byte(argv, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv, first) == 0
    assert run(argv, second) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(f"# sl2prop {argv[0]}\n".encode())


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert all(line.startswith("PASS") for line in out)


@pytest.mark.parametrize("kernel", ["radial-sho", "radial-h0"])
def test_radial_kernel_refuses_the_wall(kernel, tmp_path, capsys):
    assert run(["kernel", "--kernel", kernel, "--x-min", "0"], tmp_path / "k.csv") == 2
    assert "x-min > 0" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()


def test_violated_tolerance_exits_one(tmp_path):
    path = tmp_path / "i.csv"
    assert run(["identities", "--tolerance", "1e-30"], path) == 1
    assert path.read_text().endswith("pass=no\n")


def test_default_oracle_compare_agrees_far_below_its_tolerance(tmp_path):
    # All 80 default rows: the oracle meets the closed form to 1e-10 (the
    # worst reads 2.2e-11) and estimates its own error below that.
    path = tmp_path / "o.csv"
    assert run(["oracle-compare"], path) == 0
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    head, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 80 and all(r[-1] == "ok" for r in rows)
    for column in ("rel_err", "oracle_err_estimate"):
        assert max(float(r[head.index(column)]) for r in rows) < 1e-10


def test_oracle_compare_has_no_damping_schedule(tmp_path, capsys):
    # The spectral oracle converges absolutely on its rotated contour and
    # takes no damping; the option that set one is gone.
    path = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        run(["oracle-compare", "--orders", "1", "--times", "0.7",
             "--epsilon-schedule", "1e-2"], path)
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon-schedule" in capsys.readouterr().err
    assert not path.exists()


def test_header_reports_the_hamiltonian_the_kernel_runs(tmp_path):
    # The full-line oscillator carries no inverse-square term, whatever order
    # was asked for; the header says so.
    path = tmp_path / "k.csv"
    assert run(["kernel", "--kernel", "sho", "--order-n", "2.5"], path) == 0
    units = path.read_text().splitlines()[1]
    assert units.endswith(" n=0.5 lambda=0")


@pytest.mark.parametrize("argv", [
    ["evolve", "--frames", "0"],
    ["evolve", "--frames", "1"],  # the t = 0 frame alone checks nothing
    ["evolve", "--t-max", "0"],
    ["identities", "--t-steps", "0"],
    ["identities", "--t-min", "3.1", "--t-max", "3.2", "--t-steps", "3"],  # all clipped
    ["oracle-compare", "--orders", "0.5,,1"],
    ["oracle-compare", "--times", "0.7,,1"],
], ids=lambda a: "_".join(a))
def test_runs_with_nothing_to_check_or_a_blank_list_entry_exit_two(argv, tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert run(argv, path) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
    assert not path.exists()


def test_kernel_refuses_the_tolerance_flag(capsys):
    # The table checks nothing, so it takes no tolerance.
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--tolerance", "1e-300"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--order-n", "--lambda"])
def test_oracle_compare_refuses_a_single_order(flag, capsys):
    # Its rows carry their own orders; a run-wide order would be reported
    # over rows that never ran at it.
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-compare", flag, "3", "--orders", "1", "--times", "0.7"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_oracle_compare_units_leave_the_order_to_the_rows(tmp_path):
    path = tmp_path / "o.csv"
    assert run(["oracle-compare", "--orders", "1", "--times", "0.7"], path) == 0
    lines = path.read_text().splitlines()
    assert lines[1] == "# units: hbar=1 m=1 omega=1"
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    n_col = rows[0].index("n")
    assert {r[n_col] for r in rows[1:]} == {"1"}


def test_kernel_with_no_grid_point_exits_two(tmp_path, capsys):
    path = tmp_path / "k.csv"
    assert run(["kernel", "--x-steps", "0"], path) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
    assert not path.exists()


def _cross_l2(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("# cross_oracle_l2=")]
    assert len(lines) == 1
    return float(lines[0].split()[1].split("=")[1])


def test_evolve_cross_checks_a_negative_final_time(tmp_path):
    # A real packet at -t is the conjugate of the packet at t, so the
    # oracle's distance from the kernel frames is the same on both sides.
    forward, backward = tmp_path / "f.csv", tmp_path / "b.csv"
    assert run(["evolve", "--frames", "2", "--t-max", "1"], forward) == 0
    assert run(["evolve", "--frames", "2", "--t-max", "-1"], backward) == 0
    assert _cross_l2(backward.read_text()) == pytest.approx(
        _cross_l2(forward.read_text()), rel=1e-9)


@pytest.mark.parametrize("kernel", ["free", "radial-h0"])
def test_evolve_cross_checks_a_state_that_reaches_the_edge(kernel, tmp_path, capsys):
    # At the defaults these packets spread into the outer 5% of the grid: the
    # edge check fails, and the oracle's state is still compared (6.8e-15
    # for free, 8.2e-14 for radial-h0).
    path = tmp_path / "e.csv"
    assert run(["evolve", "--kernel", kernel], path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("cross_oracle_l2=") and out[1].endswith(" pass=yes")
    assert out[2:] == ["boundary_contamination=yes pass=no"]
    text = path.read_text()
    assert text.endswith("".join(f"# {line}\n" for line in out))
    assert _cross_l2(text) < 1e-4


def test_evolve_cross_checks_order_zero(tmp_path, capsys):
    # The eigenbasis holds for every n >= 0.
    path = tmp_path / "e.csv"
    assert run(["evolve", "--order-n", "0"], path) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[1].startswith("cross_oracle_l2=") and out[1].endswith(" pass=yes")
    assert _cross_l2(path.read_text()) < 1e-9


# The per-value rule the table writers must reproduce byte for byte.
def _row(*vals):
    return ",".join(f"{float(v):.17g}" for v in vals)


def _header(command, params, *lines):
    units = (("hbar", params.hbar), ("m", params.m), ("omega", params.omega),
             ("n", params.n), ("lambda", params.lam))
    return [f"# sl2prop {command}",
            "# units: " + " ".join(f"{k}={float(v):.17g}" for k, v in units), *lines]


def _run_params(args):
    kind = kn.kernel_kind(args.kernel.replace("-", "_"))
    n = 0.5 if args.order_n is None else args.order_n
    return kind, kind.hamiltonian(sr.PhysParams(n=n))


PI = "3.141592653589793"


@pytest.mark.parametrize("flags", [
    ["--order-n", "0.5"], ["--order-n", "1"], ["--order-n", "20"],
    ["--kernel", "sho"], ["--kernel", "free"], ["--kernel", "radial-h0"],
], ids=lambda f: "_".join(f))
def test_kernel_table_matches_the_per_value_rule(flags, tmp_path):
    # t runs over [-pi, pi] in nine steps: t = 0 and, for the oscillators,
    # both caustics are skipped between the blocks.
    x_min = "-1.5" if flags[-1] in ("sho", "free") else "0.5"
    argv = ["kernel", *flags, "--x-min", x_min, "--x-steps", "7",
            "--t-min", "-" + PI, "--t-max", PI, "--t-steps", "9"]
    path = tmp_path / "k.csv"
    assert run(argv, path) == 0

    args = cli.build_parser().parse_args(argv)
    kind, params = _run_params(args)
    name = args.kernel.replace("-", "_")
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    lines = _header("kernel", params, f"# kernel: {args.kernel}", "x1,x2,t,re,im,abs")
    for t in np.linspace(args.t_min, args.t_max, args.t_steps):
        t = float(t)
        if t == 0.0:
            lines.append(f"# skip t={t:.17g} reason=delta-limit")
            continue
        try:
            mat = kn.kernel_values(name, xs[:, None], xs[None, :], t, params)
        except kn.CausticSingularity as e:
            lines.append(f"# skip t={t:.17g} reason=caustic "
                         f"nearest={e.nearest_caustic_time:.17g}")
            continue
        for i, x1 in enumerate(xs):
            for j, x2 in enumerate(xs):
                v = mat[i, j]
                lines.append(_row(x1, x2, t, v.real, v.imag, abs(v)))
    skips = sum(ln.startswith("# skip") for ln in lines)
    assert skips == (3 if params.omega > 0 else 1)
    assert path.read_text() == "\n".join(lines) + "\n"


def _dense_kernel_table(argv):
    """The kernel report of ``argv`` by the per-value rule: the whole kernel
    matrix at each time, one formatted row per grid pair."""
    args = cli.build_parser().parse_args(argv)
    name = args.kernel.replace("-", "_")
    n = 0.5 if args.order_n is None else args.order_n
    params = kn.kernel_kind(name).hamiltonian(
        sr.PhysParams(hbar=args.hbar, m=args.mass, omega=args.omega, n=n))
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    lines = _header("kernel", params, f"# kernel: {args.kernel}", "x1,x2,t,re,im,abs")
    for t in np.linspace(args.t_min, args.t_max, args.t_steps).tolist():
        mat = kn.kernel_values(name, xs[:, None], xs[None, :], t, params)
        lines += [_row(x1, x2, t, v.real, v.imag, abs(v))
                  for x1, row in zip(xs, mat) for x2, v in zip(xs, row)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags", [
    ["--x-steps", "1"], ["--x-steps", "2"], ["--x-steps", "160"],
    ["--x-min", "2.5", "--x-max", "0.5", "--x-steps", "9"],
    ["--mass", "2", "--hbar", "0.7", "--x-steps", "9", "--order-n", "7.3"],
    ["--kernel", "sho", "--x-min=-2", "--x-steps", "12", "--mass", "2", "--hbar", "0.7"],
], ids=lambda f: "_".join(f))
def test_kernel_table_mirrors_the_upper_triangle_byte_for_byte(flags, tmp_path):
    argv = ["kernel", *flags]
    path = tmp_path / "k.csv"
    assert run(argv, path) == 0
    assert path.read_bytes() == _dense_kernel_table(argv).encode()


def test_kernel_table_evaluates_the_upper_triangle_only(tmp_path, monkeypatch):
    sizes = []
    kernel_values = kn.kernel_values

    def counting(name, x1, x2, t, params, core=None):
        sizes.append(np.broadcast(x1, x2).size)
        return kernel_values(name, x1, x2, t, params, core)

    monkeypatch.setattr(kn, "kernel_values", counting)
    assert run(["kernel", "--x-steps", "160"], tmp_path / "k.csv") == 0
    assert sizes == [160 * 161 // 2] * 7


@pytest.mark.parametrize("flags,message", [
    (["--x-min=-inf"], "kernel argument x1 must be finite"),
    (["--x-min", "-inf"], "kernel argument x1 must be finite"),
    (["--x-max=inf"], "kernel argument x1 must be finite"),
    (["--t-min=-inf"], "kernel argument t must be finite"),
    (["--t-min", "-inf"], "kernel argument t must be finite"),
    (["--t-max=inf"], "kernel argument t must be finite"),
    (["--t-steps", "0"], "no time requested (--t-steps 0)"),
], ids=["x-min", "x-min-spaced", "x-max", "t-min", "t-min-spaced", "t-max", "t-steps"])
def test_kernel_refuses_a_non_finite_bound_or_no_time_before_any_work(flags, message,
                                                                      tmp_path, capsys):
    path = tmp_path / "k.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["kernel", "--kernel", "sho", *flags], path) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("flags", [["--order-n", "1"], ["--kernel", "free"]],
                         ids=lambda f: "_".join(f))
def test_evolve_table_matches_the_per_value_rule(flags, tmp_path, capsys):
    argv = ["evolve", *flags, "--frames", "3", "--grid-points", "200"]
    path = tmp_path / "e.csv"
    assert run(argv, path) in (0, 1)
    trailer = capsys.readouterr().out.splitlines()

    args = cli.build_parser().parse_args(argv)
    kind, params = _run_params(args)
    grid = orc.GridSpec(x_max=args.x_max, points=args.grid_points,
                        x_min=0.0 if kind.halfline else -args.x_max)
    packet = ev.TestFunction(center=args.center, width=args.width, momentum=args.momentum)
    psi0 = packet.sample(grid, params, kind.halfline)
    lines = _header(
        "evolve", params,
        f"# kernel: {args.kernel} packet: center={args.center:.17g} "
        f"width={args.width:.17g} momentum={args.momentum:.17g}",
        "t,x,re,im,abs2")
    for t in np.linspace(0.0, args.t_max, args.frames):
        t = float(t)
        frame = psi0 if t == 0.0 else ev.propagate(
            psi0, t, args.kernel.replace("-", "_"), params)
        for x, v in zip(frame.x, frame.samples):
            lines.append(_row(t, x, v.real, v.imag, abs(v) ** 2))
    lines += [f"# {line}" for line in trailer]
    assert path.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("omega", ["1", "0"])
def test_oracle_compare_keeps_the_row_layout(omega, tmp_path):
    # Rows run n -> x1 -> x2 -> t whatever order the oracle is evaluated
    # in; at w = 1, t = pi is a caustic and leaves a skip comment in the
    # row's place.  The closed columns are kernel_values at that row.
    path = tmp_path / "o.csv"
    assert run(["oracle-compare", "--orders", "0.5,1", "--times", f"0.7,{PI}",
                "--omega", omega], path) == 0
    lines = path.read_text().splitlines()
    assert lines[:4] == [
        "# sl2prop oracle-compare", f"# units: hbar=1 m=1 omega={omega}",
        "# tolerance: 9.9999999999999995e-07",
        "x1,x2,t,n,closed_re,closed_im,oracle_re,oracle_im,rel_err,oracle_err_estimate,flag"]
    name = "radial_sho" if omega == "1" else "radial_h0"
    expected = []
    for n in (0.5, 1.0):
        params = sr.PhysParams(omega=float(omega), n=n)
        for x1 in (0.7, 1.3):
            for x2 in (0.9, 1.6):
                for t in (0.7, float(PI)):
                    if omega == "1" and t == float(PI):
                        expected.append(f"# skip t={t:.17g} n={n:.17g} reason=caustic "
                                        f"nearest={t:.17g}")
                    else:
                        closed = kn.kernel_values(name, x1, x2, t, params)
                        expected.append(_row(x1, x2, t, n, closed.real, closed.imag))
    body = lines[4:]
    assert len(body) == len(expected) == 16
    for got, want in zip(body, expected):
        if want.startswith("#"):
            assert got == want
        else:
            assert got.startswith(want + ",") and got.endswith(",ok")


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("argv", [["identities"], ORACLE_SMALL, ["evolve", "--frames", "2"]],
                         ids=lambda a: a[0])
def test_tolerance_must_be_a_number_at_least_zero(argv, value, tmp_path, capsys):
    # No value compares greater than NaN, so a NaN tolerance would let every
    # row of oracle-compare through.
    path = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--tolerance", value], path)
    assert exc.value.code == 2
    assert "--tolerance: must be a number >= 0" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("flags,message", [
    (["--omega", "inf"], "omega must be finite"),
    (["--hbar", "inf"], "hbar must be finite"),
    (["--mass", "inf"], "m must be finite"),
    (["--x-min", "nan"], "kernel argument x1 must be finite"),
    (["--t-min", "nan", "--t-max", "nan"], "kernel argument t must be finite"),
], ids=["omega", "hbar", "mass", "x-min", "t-range"])
def test_kernel_refuses_non_finite_inputs(flags, message, tmp_path, capsys):
    path = tmp_path / "k.csv"
    assert run(["kernel", *flags], path) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not path.exists()


@pytest.mark.parametrize("spaced", [False, True], ids=["joined", "spaced"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("bound", ["--t-min", "--t-max"])
def test_identities_refuses_a_non_finite_t_range(bound, value, spaced, tmp_path, capsys):
    # A NaN t-point would count as clipped and let the sweep pass on the rest.
    # Spaced, -inf must reach the check as a value, not as an unknown option.
    path = tmp_path / "i.csv"
    flags = [bound, value] if spaced else [f"{bound}={value}"]
    assert run(["identities", *flags], path) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: identities t-range must be finite"
    assert not path.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--t-max", "nan", "evolve --t-max must be finite"),
    ("--t-max", "inf", "evolve --t-max must be finite"),
    ("--x-max", "inf", "grid x_min and x_max must be finite"),
    ("--center", "nan", "packet center, width and momentum must be finite"),
    ("--width", "inf", "packet center, width and momentum must be finite"),
    ("--momentum", "-inf", "packet center, width and momentum must be finite"),
    ("--width", "1e-300", "width must be > 0, with a square that does not underflow to 0"),
])
@pytest.mark.parametrize("spaced", [False, True], ids=["joined", "spaced"])
def test_evolve_refuses_non_finite_inputs_before_any_work(flag, value, message, spaced,
                                                           tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("evolve worked on a refused input")

    monkeypatch.setattr(ev, "propagate", no_work)
    monkeypatch.setattr(orc, "eigen_evolve", no_work)
    path = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["evolve", *([flag, value] if spaced else [f"{flag}={value}"])], path) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("width", ["1e-160", "1e-200", "1e200", "1e300"])
def test_evolve_refuses_an_extreme_width_plainly(width, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("evolve worked on a refused width")

    monkeypatch.setattr(ev, "propagate", no_work)
    monkeypatch.setattr(orc, "eigen_evolve", no_work)
    path = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["evolve", "--width", width], path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "width" in err and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("flags,message", [
    (["--kernel", "sho", "--width", "1e-150", "--x-max", "1e5"],
     "the packet is zero on every node of the grid [-100000, 100000]"),
    (["--momentum", "1e300", "--x-max", "1e10"],
     "momentum 1e+300: the phase p x / hbar overflows on the grid"),
], ids=["exponent", "phase"])
def test_evolve_refuses_an_overflowing_packet_without_a_warning(flags, message, tmp_path,
                                                                capsys):
    # The Gaussian exponent overflows to -inf far from the centre, which is
    # exact; a momentum phase that overflows is refused by name.
    path = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert run(["evolve", *flags], path) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("flags,window", [
    (["--center", "100"], "[0, 14]"),
    (["--kernel", "sho", "--center=-100"], "[-14, 14]"),
], ids=["radial-sho", "sho"])
def test_evolve_refuses_a_packet_that_is_zero_on_the_grid(flags, window, tmp_path, capsys):
    # Every frame would be zero, and the norm and cross checks would pass on it.
    path = tmp_path / "e.csv"
    assert run(["evolve", *flags], path) == 2
    assert capsys.readouterr().err == (
        f"error: the packet is zero on every node of the grid {window}\n")
    assert not path.exists()


def test_evolve_packet_partly_off_the_grid_fails_the_edge_check(tmp_path, capsys):
    path = tmp_path / "e.csv"
    assert run(["evolve", "--kernel", "sho", "--center=-16", "--frames", "2",
                "--grid-points", "300"], path) == 1
    assert "boundary_contamination=yes pass=no" in capsys.readouterr().out.splitlines()


def _conjugated(*args, **kwargs):
    return np.conj(kn.kernel_values(*args, **kwargs))


def _scaled(*args, **kwargs):
    return 1.01 * kn.kernel_values(*args, **kwargs)


@pytest.mark.parametrize("kernel,label", [
    (_conjugated, "kernel PDE residual"),
    (_scaled, "delta limit (extrapolated)"),
], ids=["conjugated", "scaled"])
def test_selftest_kernel_lines_fail_on_a_wrong_kernel(kernel, label, monkeypatch, capsys):
    # Only the evolve checkers see the wrong kernel, and each of the two
    # wrong kernels fails exactly one of their lines.
    monkeypatch.setattr(ev, "kernel_values", kernel)
    assert cli.main(["selftest"]) == 1
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == 2
    assert fails[0].startswith(f"FAIL {label}: ")
    assert fails[1] == "FAIL selftest"


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # Guards the CLI's import time against a heavy scipy submodule.
    src = str(Path(sl2prop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sl2prop.cli; print('scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def _record_threads(monkeypatch):
    """The thread of every ``ev.propagate`` call, in call order."""
    threads = []
    propagate = ev.propagate

    def recording(psi0, t, kernel, params):
        threads.append(threading.get_ident())
        return propagate(psi0, t, kernel, params)

    monkeypatch.setattr(ev, "propagate", recording)
    return threads


def _frames(text):
    """The evolve rows as arrays t, re, im; .17g reads back bit for bit."""
    rows = [ln.split(",") for ln in text.splitlines()
            if not ln.startswith("#") and ln != "t,x,re,im,abs2"]
    return tuple(np.array([float(r[k]) for r in rows]) for k in (0, 2, 3))


def test_evolve_frames_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    argv = ["evolve", "--order-n", "1"]
    pooled, again, single = (tmp_path / f"{k}.csv" for k in ("pooled", "again", "single"))
    threads = _record_threads(monkeypatch)
    assert run(argv, pooled) == 0
    assert len(threads) == 4 and threading.get_ident() not in threads
    assert len(set(threads)) <= len(os.sched_getaffinity(0))
    assert run(argv, again) == 0
    assert pooled.read_bytes() == again.read_bytes()

    # One CPU for the process: one worker thread propagates every frame.
    threads.clear()
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert run(argv, single) == 0
    assert len(threads) == 4 and len(set(threads)) == 1
    assert single.read_bytes() == pooled.read_bytes()

    # Each frame is propagate's, called alone on this thread, bit for bit.
    args = cli.build_parser().parse_args(argv)
    kind, params = _run_params(args)
    grid = orc.GridSpec(x_max=args.x_max, points=args.grid_points, x_min=0.0)
    packet = ev.TestFunction(center=args.center, width=args.width, momentum=args.momentum)
    psi0 = packet.sample(grid, params, kind.halfline)
    ts, re, im = _frames(pooled.read_text())
    frame_times = np.linspace(0.0, args.t_max, args.frames)
    assert np.array_equal(np.unique(ts), frame_times)
    for t in frame_times[1:].tolist():
        frame = ev.propagate(psi0, t, "radial_sho", params).samples
        assert np.array_equal(re[ts == t], frame.real)
        assert np.array_equal(im[ts == t], frame.imag)


def test_evolve_frame_refusal_writes_nothing_and_joins_the_pool(tmp_path, monkeypatch,
                                                                capsys):
    # The third propagated frame (t = 0.375 of 0, 0.125, ..., 1) is refused;
    # the frames after it are slowed, so the refusal reaches the main thread
    # while most of them wait in the queue, where they are cancelled.
    propagate = ev.propagate
    calls = []

    def refusing(psi0, t, kernel, params):
        calls.append(t)
        if t == 0.375:
            raise ValueError("frame refused")
        if t > 0.375:
            time.sleep(0.2)
        return propagate(psi0, t, kernel, params)

    monkeypatch.setattr(ev, "propagate", refusing)
    before = threading.active_count()
    path = tmp_path / "e.csv"
    assert run(["evolve", "--order-n", "1", "--frames", "9", "--grid-points", "400"],
               path) == 2
    assert capsys.readouterr() == ("", "error: frame refused\n")
    assert not path.exists()
    assert threading.active_count() == before
    assert 0.375 in calls and len(calls) < 8


def test_cli_import_starts_no_thread():
    src = str(Path(sl2prop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import threading, sl2prop.cli; print(threading.active_count())"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "1\n"


def _record_pools(monkeypatch):
    """The worker count of each process pool that the CLI starts."""
    pools = []

    class Recording(cli.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    return pools


def test_kernel_table_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    # 160 * 161 / 2 * 7 = 90160 triangle values: 12 chunks, the first two
    # times each spanning two of them.
    argv = ["kernel", "--x-steps", "160"]
    pools = _record_pools(monkeypatch)
    cpus = len(os.sched_getaffinity(0))
    pooled, single = tmp_path / "pooled.csv", tmp_path / "single.csv"
    threads = threading.active_count()
    assert run(argv, pooled) == 0
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert cli.main(argv) == 0
    streamed = capsys.readouterr().out
    assert pools == ([min(cpus, 12)] * 2 if cpus > 1 else [])

    # One CPU for the process: the chunks are formatted here, with no pool.
    pools.clear()
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert run(argv, single) == 0
    assert cli.main(argv) == 0
    assert pools == []
    assert capsys.readouterr().out == streamed
    assert single.read_bytes() == pooled.read_bytes() == streamed.encode()
    assert pooled.read_bytes() == _dense_kernel_table(argv).encode()


def test_kernel_chunks_may_span_times_and_skips(tmp_path, monkeypatch):
    # Seven-value chunks cut the 15-value triangles of the default grid at
    # every offset, across the skipped t = 0 between two blocks: 90 values
    # in 13 chunks, against one chunk formatted in the process.
    argv = ["kernel", "--kernel", "sho", "--x-min=-1", "--t-min=-0.6", "--t-max", "0.6"]
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    assert run(argv, whole) == 0
    assert "\n# skip t=0 reason=delta-limit\n" in whole.read_text()
    monkeypatch.setattr(cli, "_CHUNK", 7)
    pools = _record_pools(monkeypatch)
    assert run(argv, cut) == 0
    cpus = len(os.sched_getaffinity(0))
    assert pools == ([min(cpus, 13)] if cpus > 1 else [])
    assert cut.read_bytes() == whole.read_bytes()


def test_kernel_table_in_one_chunk_starts_no_process(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("a process was forked")

    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "fork", refuse)
    path = tmp_path / "k.csv"
    assert run(["kernel"], path) == 0
    assert pools == []
    assert path.read_bytes() == _dense_kernel_table(["kernel"]).encode()


def test_kernel_refusal_after_evaluation_starts_no_pool(tmp_path, monkeypatch, capsys):
    # Both times of a 160-point sho table are skipped (t = 0 and the caustic
    # at pi): the refusal comes after every evaluation, before any pool.
    pools = _record_pools(monkeypatch)
    threads = threading.active_count()
    path = tmp_path / "k.csv"
    assert run(["kernel", "--kernel", "sho", "--x-min=-1", "--x-steps", "160",
                "--t-min", "0", "--t-max", PI, "--t-steps", "2"], path) == 2
    assert capsys.readouterr() == (
        "", "error: every requested time was skipped (caustic or t=0)\n")
    assert not path.exists()
    assert pools == []
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_kernel_pool_does_not_repeat_buffered_output(tmp_path):
    # A forked child flushes the stdout buffer it inherits when it exits, so
    # text buffered before the pool starts would be written once per worker.
    src = str(Path(sl2prop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    path = tmp_path / "k.csv"
    argv = ["kernel", "--x-steps", "160", "--t-steps", "2"]
    assert run(argv, path) == 0
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sl2prop import cli; sys.stdout.write('buffered\\n'); "
         f"sys.exit(cli.main({argv!r}))"],
        env=env, capture_output=True, check=True).stdout
    assert out == b"buffered\n" + path.read_bytes()


@pytest.mark.parametrize("omega", ["0", "1"])
def test_oracle_compare_refuses_a_short_time_at_once(omega, tmp_path, monkeypatch, capsys):
    def refuse(integrand, spec):
        raise AssertionError("the oracle integrated")

    monkeypatch.setattr(orc, "integrate_oscillatory", refuse)
    path = tmp_path / "o.csv"
    assert run(["oracle-compare", "--omega", omega, "--times", "1e-6"], path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the spectral oracle at t=9.99999")
    assert "panels, more than its cap of 30000" in err
    assert not path.exists()


def test_kernel_write_failure_joins_the_pool(tmp_path, monkeypatch, capsys):
    # The output cannot be opened once the pool has started: the run is
    # refused, and no worker process or pool thread is left.
    pools = _record_pools(monkeypatch)
    threads = threading.active_count()
    assert run(["kernel", "--x-steps", "160"], tmp_path / "missing" / "k.csv") == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert pools == ([min(len(os.sched_getaffinity(0)), 12)]
                     if len(os.sched_getaffinity(0)) > 1 else [])
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("argv", [["identities"], ["kernel"], ORACLE_SMALL,
                                  ["evolve", "--frames", "2"]],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("where,reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_an_output_that_cannot_be_opened_exits_two(argv, where, reason, tmp_path, capsys):
    path = tmp_path / "no" / "such" / "dir" / "x.csv" if where == "missing" else tmp_path
    assert run(argv, path) == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == f"error: cannot write {path}: {reason}"
    assert "Traceback" not in err and "sl2prop" not in out
    assert not (tmp_path / "no").exists()


def test_identities_makes_one_residual_call_per_identity(tmp_path, monkeypatch):
    # The 25 default times of each of the 7 identities go to one array call;
    # the coefficients still come from one factor_coeffs call per time.
    calls, coeffs = [], []
    residual, factor = sr.identity_residual, sr.factor_coeffs

    def counted_residual(ident, t, params):
        calls.append(np.size(t))
        return residual(ident, t, params)

    def counted_factor(ident, t, params):
        coeffs.append(t)
        return factor(ident, t, params)

    monkeypatch.setattr(sr, "identity_residual", counted_residual)
    monkeypatch.setattr(sr, "factor_coeffs", counted_factor)
    assert run(["identities"], tmp_path / "i.csv") == 0
    assert calls == [25] * 7
    assert len(coeffs) == 175
