import pytest

from sl2prop import cli

# Reduced oracle comparison: both the image (n = 1/2) and a Bessel order,
# one time, four point pairs.
ORACLE_SMALL = ["oracle-compare", "--orders", "0.5,1", "--times", "0.7"]


def run(argv, path):
    return cli.main([*argv, "--output", str(path)])


@pytest.mark.parametrize("argv", [["identities"], ["kernel"], ORACLE_SMALL],
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


@pytest.mark.parametrize("kernel", ["radial-sho", "radial-h0", "image"])
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
