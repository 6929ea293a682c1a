import pytest

from sl2prop import cli

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
    assert len(out) == 5
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


def test_oracle_truncation_follows_the_weakest_damping(tmp_path):
    # A schedule that is not a halving sequence: the Hankel integral must be
    # truncated where its smallest damping, 8e-4, has decayed.
    path = tmp_path / "o.csv"
    argv = ["oracle-compare", "--orders", "1", "--times", "2.0",
            "--epsilon-schedule", "2e-2,4e-3,8e-4"]
    assert run(argv, path) == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    rel = [float(r[rows[0].index("rel_err")]) for r in rows[1:]]
    assert len(rel) == 4
    assert max(rel) < 1e-5


@pytest.mark.parametrize("schedule,code", [
    ("0", 2),                 # undamped: no truncation point
    ("1e-2,1e-2", 2),         # duplicate level
    ("1e-4,1e-2,1e-3", 2),    # not decreasing
    ("0.5,0.25", 1),          # valid, but far too damped for the tolerance
    ("1e-2,,5e-3", 2),        # blank entry
])
def test_oracle_epsilon_schedule_verdicts(schedule, code, tmp_path, capsys):
    path = tmp_path / "o.csv"
    argv = ["oracle-compare", "--orders", "1", "--times", "0.7",
            "--epsilon-schedule", schedule]
    assert run(argv, path) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:")  # an uncaught exception fails the call itself
        assert not path.exists()
    else:
        assert path.read_text().count(",fail\n") >= 1


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
