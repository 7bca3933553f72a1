import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bousslab
from bousslab.certificate import gain_threshold
from bousslab.cli import main

from conftest import failing_solve

GOOD = """
[system]
a = 0.1
a1 = 0.0065
L = 1.0
alpha = 0.05
beta = 0.0005

[delay]
form = constant
tau0 = 0.5
M = 2.0
d = 0.0

[grid]
n = 48

[run]
T = 0.3
dt = 0.001
eta0 = cubic 0.1
omega0 = quartic 0.1
"""

INADMISSIBLE = GOOD.replace("alpha = 0.05", "alpha = 0.001")
UNCERTIFIED_L = GOOD.replace("L = 1.0", "L = 1.2")


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", "--config", _write(tmp_path, GOOD)]) == 0
    out = capsys.readouterr().out
    assert "mu1_star" in out and "lambda" in out
    assert main(["check", "--config", _write(tmp_path, INADMISSIBLE)]) == 2
    out = capsys.readouterr().out
    assert "threshold" in out
    bad = GOOD.replace("d = 0.0", "d = 1.0")
    assert main(["check", "--config", _write(tmp_path, bad)]) == 3
    capsys.readouterr()
    nan_gain = GOOD.replace("alpha = 0.05", "alpha = nan")
    assert main(["check", "--config", _write(tmp_path, nan_gain)]) == 3
    assert "alpha must be finite" in capsys.readouterr().err
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 3


def _empty_interval_alpha():
    """An alpha a few ulps above the threshold whose optimal-mu1 interval is
    empty (`test_empty_mu1_interval_is_inadmissible`)."""
    p = bousslab.SystemParams(a=1.0, a1=0.6, L=1.0, alpha=1.0, beta=0.05)
    dly = bousslab.DelaySpec(tau0=0.3, M=2.0, d=0.8)
    alpha = gain_threshold(p, dly)
    while not bousslab.check_gains(replace(p, alpha=alpha), dly)[0]:
        alpha = math.nextafter(alpha, math.inf)
    return alpha


EMPTY_INTERVAL = (GOOD.replace("a = 0.1\na1 = 0.0065", "a = 1.0\na1 = 0.6")
                  .replace("beta = 0.0005", "beta = 0.05")
                  .replace("tau0 = 0.5", "tau0 = 0.3").replace("d = 0.0", "d = 0.8"))


@pytest.mark.parametrize("case", ["below-threshold", "L-out-of-range", "empty-interval"])
def test_check_inadmissible_is_one_line(tmp_path, capsys, case):
    # every refusal of the certificate is exit 2 with one `inadmissible:` line
    cfg, reason = {"below-threshold": (INADMISSIBLE, "not above the threshold"),
                   "L-out-of-range": (UNCERTIFIED_L, "certification refused"),
                   "empty-interval": (EMPTY_INTERVAL.replace(
                       "alpha = 0.05", f"alpha = {_empty_interval_alpha()!r}"),
                       "interval is empty")}[case]
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line.startswith("inadmissible:")]
    assert len(lines) == 1 and reason in lines[0]
    assert captured.out.splitlines()[-1] == lines[0] and captured.err == ""
    if case == "below-threshold":   # the threshold in full, not to 6 digits
        assert repr(gain_threshold(*bousslab.parse_config(cfg)[:2])) in lines[0]


def _printed(out, key):
    return next(line.split(" = ", 1)[1] for line in out.splitlines()
                if line.startswith(key + " = "))


def test_check_beta_zero_without_crossing_takes_the_interval_end(tmp_path, capsys):
    # beta = 0 with M = 2: f never reaches g = 1/M on the interval, so the
    # best mu1 is the interval's right end
    cfg = GOOD.replace("beta = 0.0005", "beta = 0.0")
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    right = json.loads(_printed(out, "mu1_interval"))[1]
    assert abs(float(_printed(out, "mu1_star")) - right) <= 1e-12 * right


@pytest.mark.parametrize("command", ["check", "optimize-rate"])
def test_simulate_flags_rejected_by_other_commands(tmp_path, capsys, command):
    # the override flags belong to `simulate`; elsewhere argparse refuses them
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", _write(tmp_path, GOOD), "--dt", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err


def test_config_path_with_equals_sign(tmp_path):
    run_dir = tmp_path / "run=1"
    run_dir.mkdir()
    assert main(["check", "--config", _write(run_dir, GOOD, "ref.ini")]) == 0


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, GOOD),
               "--out", str(out)])
    assert rc == 0
    csv = (out / "timeseries.csv").read_text()
    assert csv.startswith("t,E,V,V1,V2,trace_now,trace_delayed")
    assert (out / "certificate.txt").exists()
    summary = (out / "summary.txt").read_text()
    assert "bound_ok = True" in summary
    assert "lambda_theory" in summary


@pytest.mark.parametrize("steps", [1, 2])
def test_simulate_of_one_or_two_steps_writes_its_outputs(tmp_path, steps):
    # one step leaves one sample in the decay fit's window (the final
    # half), so the summary has no lambda_obs; two steps leave two
    out = tmp_path / "out"
    ref = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"
    assert main(["simulate", "--config", str(ref), "--out", str(out), "--n", "32",
                 "--horizon", str(steps * 0.001)]) == 0
    names = ("timeseries.csv", "summary.txt", "certificate.txt", "config.ini")
    assert all((out / name).exists() for name in names)
    assert len((out / "timeseries.csv").read_text().splitlines()) == steps + 2
    assert ("lambda_obs" in (out / "summary.txt").read_text()) == (steps == 2)


def test_simulate_zero_data_bound_trivial(tmp_path):
    cfg = GOOD.replace("eta0 = cubic 0.1", "eta0 = zero") \
              .replace("omega0 = quartic 0.1", "omega0 = zero")
    out = tmp_path / "out0"
    assert main(["simulate", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = (out / "timeseries.csv").read_text().strip().split("\n")[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert all(e == 0.0 for e in energies)


def test_simulate_uncertified_L(tmp_path):
    out = tmp_path / "outL"
    rc = main(["simulate", "--config", _write(tmp_path, UNCERTIFIED_L),
               "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "uncertified" in summary


def test_simulate_flag_overrides(tmp_path):
    out = tmp_path / "outflags"
    rc = main(["simulate", "--config", _write(tmp_path, GOOD),
               "--out", str(out), "--horizon", "0.1", "--dt", "0.002"])
    assert rc == 0
    rows = (out / "timeseries.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == int(np.floor(0.1 / 0.002)) + 1


@pytest.mark.parametrize("key", ["theta", "mu1", "mu2"])
def test_simulate_rejects_theta_and_multiplier_keys(tmp_path, capsys, key):
    # theta is suggested_theta(dt) and (mu1, mu2) the certificate's: none is a setting
    cfg = GOOD.replace("omega0 = quartic 0.1", f"omega0 = quartic 0.1\n{key} = 0.5")
    out = tmp_path / "outmu"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--horizon", "0.05", "--n", "32"]) == 3
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_nonlinear_flag(tmp_path):
    out = tmp_path / "outnl"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--nonlinear", "--horizon", "0.05", "--n", "32"]) == 0
    assert "nonlinear = True" in (out / "summary.txt").read_text()


def test_simulate_seed_flag(tmp_path):
    # random initial data: the seed picks it, and one seed gives the same bytes
    cfg = _write(tmp_path, GOOD.replace("eta0 = cubic 0.1", "eta0 = random 0.1"))

    def series(seed, name):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", seed,
                     "--horizon", "0.05", "--n", "32"]) == 0
        return (out / "timeseries.csv").read_bytes()

    first = series("1", "a")
    assert series("1", "b") == first
    assert series("2", "c") != first


@pytest.mark.parametrize("where", ["config", "flag"])
def test_simulate_refuses_a_negative_seed_before_its_outputs(tmp_path, capsys, where):
    # numpy's generator takes no negative seed: refused as configuration
    # while the config is read, so an earlier run's output stays
    cfg = GOOD.replace("eta0 = cubic 0.1", "eta0 = random 0.01").replace(
        "T = 0.3", "T = 0.01").replace("n = 48", "n = 16")
    flags = ["--seed", "-1"] if where == "flag" else []
    if where == "config":
        cfg += "seed = -1\n"
    out = tmp_path / "outseed"
    out.mkdir()
    (out / "timeseries.csv").write_text("earlier\n")
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert "configuration error: seed must be a nonnegative integer, got -1" in err
    assert "Traceback" not in err
    assert (out / "timeseries.csv").read_text() == "earlier\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "0", "dt must be positive and finite, got 0.0"),
    ("--dt", "nan", "dt must be positive and finite, got nan"),
    ("--dt", "inf", "dt must be positive and finite, got inf"),
    ("--dt", "5e-324", "the step count T / dt is not finite: T = 0.3, dt = 5e-324"),
    ("--horizon", "-1", "horizon T must be finite and nonnegative, got -1.0"),
    ("--horizon", "nan", "horizon T must be finite and nonnegative, got nan")])
def test_simulate_refuses_a_bad_step_or_horizon_before_its_outputs(tmp_path, capsys, flag,
                                                                    value, message):
    # refused while the config is read, as a negative seed is: exit 3, and an
    # earlier run's output stays
    out = tmp_path / "outbad"
    out.mkdir()
    (out / "timeseries.csv").write_text("earlier\n")
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 flag, value]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert "Traceback" not in err
    assert (out / "timeseries.csv").read_text() == "earlier\n"


def test_simulate_store_fields_reports_kato(tmp_path):
    cfg = GOOD.replace("omega0 = quartic 0.1", "omega0 = quartic 0.1\nstore_fields = true")
    out = tmp_path / "outkato"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--horizon", "0.05", "--n", "32"]) == 0
    summary = (out / "summary.txt").read_text()
    assert "kato_residual = " in summary and "kato_C_L = " in summary


def _refuses_rho_res(tmp_path, capsys, cfg):
    out = tmp_path / "outrho"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--horizon", "0.01", "--n", "32"]) == 3
    assert "unknown key 'rho_res'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_rho_res_below_one_without_delay(tmp_path, capsys):
    # the monitor row integrates the delay terms exactly: rho_res is no
    # [run] key, whatever its value
    for value in ("0", "64"):
        _refuses_rho_res(tmp_path, capsys, GOOD.replace("beta = 0.0005", "beta = 0.0").replace(
            "omega0 = quartic 0.1", f"omega0 = quartic 0.1\nrho_res = {value}"))


def test_simulate_rejects_unallocatable_rho_res(tmp_path, capsys):
    _refuses_rho_res(tmp_path, capsys, GOOD.replace(
        "omega0 = quartic 0.1", "omega0 = quartic 0.1\nrho_res = 10000000000000"))


def test_simulate_rejects_negative_horizon(tmp_path, capsys):
    # a configuration error (exit 3), refused before the output directory is made
    out = tmp_path / "outneg"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--horizon", "-1", "--n", "32"]) == 3
    assert "horizon" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_simulate_rejects_unallocatable_horizon(tmp_path, capsys):
    # 1e303 rows: refused before the first step
    out = tmp_path / "outhuge"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--horizon", "1e300", "--n", "32"]) == 1
    assert "cannot allocate 1e+303 rows" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


@pytest.mark.parametrize("eta0", ["cubic 1.0", "slowmode"])
def test_simulate_rejects_nan_dt(tmp_path, capsys, eta0):
    # a configuration error (exit 3) whatever the initial data
    cfg = GOOD.replace("eta0 = cubic 0.1", f"eta0 = {eta0}")
    out = tmp_path / "outnan"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--dt", "nan", "--n", "32"]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "dt" in err and "nan" in err
    assert not (out / "timeseries.csv").exists()


@pytest.mark.parametrize("eta0", ["cubic nan", "slowmode nan"])
def test_simulate_refuses_non_finite_initial_data(tmp_path, capsys, eta0):
    # refused as configuration, not run to `unstable` with E0 = nan
    cfg = GOOD.replace("eta0 = cubic 0.1", f"eta0 = {eta0}")
    out = tmp_path / "outnan"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--n", "32", "--horizon", "0.01"]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "non-finite" in err
    assert not (out / "timeseries.csv").exists()


@pytest.mark.parametrize("eta0", ["slowmode abc", "cubic 1 2"])
def test_simulate_refuses_malformed_initial_profile(tmp_path, capsys, eta0):
    cfg = GOOD.replace("eta0 = cubic 0.1", f"eta0 = {eta0}")
    out = tmp_path / "outbad"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--n", "32", "--horizon", "0.01"]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(eta0) in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_slowmode_omega0_is_refused_before_any_output(tmp_path, capsys, command):
    # slowmode sets eta, omega and the history, so only eta0 may name it
    cfg = GOOD.replace("omega0 = quartic 0.1", "omega0 = slowmode")
    out = tmp_path / "outslow"
    flags = ["--out", str(out)] if command == "simulate" else []
    assert main([command, "--config", _write(tmp_path, cfg), *flags]) == 3
    err = capsys.readouterr().err
    assert "configuration error: omega0 cannot be 'slowmode'" in err
    assert "Traceback" not in err and not out.exists()


def test_unallocatable_grid_is_a_configuration_error(tmp_path, capsys):
    # numpy refuses 2^62 nodes as too big before it asks for any memory
    n = 2 ** 62
    message = f"cannot allocate the operators on n = {n} nodes"
    p = bousslab.SystemParams()
    with pytest.raises(bousslab.ConfigurationError, match=message):
        bousslab.build_operators(p, bousslab.Grid(n=n, L=p.L))
    out = tmp_path / "outn"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--n", str(n)]) == 1
    err = capsys.readouterr().err
    assert f"simulation error: {message}" in err and "Traceback" not in err
    assert not (out / "timeseries.csv").exists()
    # a sweep writes it as each point's row error
    spec = SWEEP.replace("n = 48", f"n = {n}").replace("task = certify", "task = simulate")
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(tmp_path / "swn")]) == 0
    header, *rows = (tmp_path / "swn" / "table.csv").read_text().strip().split("\n")
    assert len(rows) == 6
    for row in rows:
        assert dict(zip(header.split(","), row.split(",")))["error"].startswith(message)


def test_simulate_writes_partial_series_on_failure(tmp_path, monkeypatch):
    failing_solve(monkeypatch, after=5)
    out = tmp_path / "outfail"
    assert main(["simulate", "--config", _write(tmp_path, GOOD),
                 "--out", str(out)]) == 1
    rows = (out / "timeseries.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == 6
    assert "termination = numerical_error" in (out / "summary.txt").read_text()
    assert (out / "config.ini").exists()


def test_simulate_prints_its_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--horizon", "0.05"]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


SIMULATE_OUTPUTS = ("timeseries.csv", "summary.txt", "certificate.txt", "config.ini")


def test_simulate_rerun_creates_new_files(tmp_path):
    # a re-run into the same --out removes the old files and creates new ones
    # instead of rewriting them in place; the outputs are the same either way
    cfg = _write(tmp_path, GOOD)
    out, fresh, side = tmp_path / "out", tmp_path / "fresh", tmp_path / "side.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "timeseries.csv").read_bytes()
    os.link(out / "timeseries.csv", side)
    assert main(["simulate", "--config", cfg, "--out", str(out), "--horizon", "0.1"]) == 0
    assert side.read_bytes() == first
    assert not os.path.samefile(side, out / "timeseries.csv")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(fresh)]) == 0
    for name in SIMULATE_OUTPUTS:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"
NONLINEAR_SAMPLED = """
[system]
a = 0.1
a1 = 0.0065
L = 1.0
alpha = 0.05
beta = 0.0005
alpha_p = 0.3
beta_p = 0.2
rho_nl = 0.1

[delay]
form = sinusoidal
tau0 = 0.5
M = 0.6
d = 0.2
amplitude = 0.05
frequency = 2.0
history = 0.0 0.001 0.003 -0.002 0.0005

[grid]
n = 40

[run]
T = 0.1
dt = 0.002
nonlinear = true
eta0 = random 0.01
omega0 = sine 0.02 2
seed = 7
store_fields = true
"""


@pytest.mark.parametrize("text, flags", [
    (REFERENCE.read_text(), ["--n", "32", "--horizon", "0.05"]),
    (NONLINEAR_SAMPLED, []),
], ids=["reference", "sinusoidal-nonlinear-sampled"])
def test_simulate_rerun_from_its_config_is_byte_equal(tmp_path, text, flags):
    # the written config.ini re-runs the run: all four outputs, bit for bit
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(first),
                 *flags]) == 0
    assert main(["simulate", "--config", str(first / "config.ini"),
                 "--out", str(second)]) == 0
    for name in SIMULATE_OUTPUTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("second, code, left", [
    (UNCERTIFIED_L, 0, ["config.ini", "summary.txt", "timeseries.csv"]),
    (GOOD.replace("dt = 0.001", "dt = 0.6"), 1, sorted(SIMULATE_OUTPUTS)),
], ids=["uncertified", "refused"])
def test_simulate_rerun_leaves_no_earlier_output(tmp_path, second, code, left):
    # a certified run, then one without a certificate, after which --out
    # holds the second run's files only, or one refused before its first
    # step (dt >= tau0, which only the run checks), which leaves the first
    # run's four files as they were
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(SIMULATE_OUTPUTS)
    first = {name: (out / name).read_bytes() for name in SIMULATE_OUTPUTS}
    assert main(["simulate", "--config", _write(tmp_path, second), "--out", str(out)]) == code
    assert sorted(os.listdir(out)) == left
    if code == 0:
        assert "certified = False" in (out / "summary.txt").read_text()
    else:
        assert {name: (out / name).read_bytes() for name in left} == first


def _output_argv(tmp_path, command, out, output="table.csv"):
    if command == "simulate":
        return ["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out)]
    spec = SWEEP.replace("output = table.csv", f"output = {output}")
    return ["sweep", "--spec", _write(tmp_path, spec, "s.ini"), "--out", str(out)]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("case", ["output-is-directory", "out-is-file", "no-directory"])
def test_unwritable_output_is_output_error(tmp_path, capsys, monkeypatch, command, case):
    # refused before the first step or point, with exit 3 and no traceback
    def refuse(*args):
        raise AssertionError("ran before the output check")

    monkeypatch.setattr("bousslab.cli.simulate", refuse)
    monkeypatch.setattr("bousslab.cli._sweep_point", refuse)
    out, output = tmp_path / "out", "table.csv"
    if case == "output-is-directory":
        (out / ("timeseries.csv" if command == "simulate" else output)).mkdir(parents=True)
    elif case == "out-is-file":
        out.write_text("")
    elif command == "simulate":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    else:
        output = "nosuchdir/table.csv"
    assert main(_output_argv(tmp_path, command, out, output)) == 3
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_failed_write_is_output_error(tmp_path, capsys, monkeypatch, command):
    argv = _output_argv(tmp_path, command, tmp_path / "out")

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    assert main(argv) == 3
    assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"


def test_import_surface():
    # neither importing the package nor finding a slow mode loads ARPACK, and
    # the history interpolant needs no scipy.interpolate
    code = ("import sys, bousslab as bl, bousslab.cli; "
            "p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4); "
            "dly = bl.DelaySpec(tau0=0.5, M=2.0, d=0.0); "
            "bl.slow_mode_state(bl.build_operators(p, bl.Grid(n=48, L=1.0)), p, dly, 1e-3); "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.interpolate') "
            "if m in sys.modules))")
    src = str(Path(bousslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_linear_run_never_imports_scipy_sparse():
    # A lives in its band storage alone: importing the package and the CLI
    # and making a linear run load no scipy.sparse; only a nonlinear
    # stepper's CSR maps import it
    code = ("import sys, bousslab as bl, bousslab.cli; "
            "p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4); "
            "dly = bl.DelaySpec(tau0=0.5, M=2.0, d=0.0); "
            "ops = bl.build_operators(p, bl.Grid(n=16, L=1.0)); "
            "state, _ = bl.slow_mode_state(ops, p, dly, 1e-3); "
            "rep = bl.run(state, 0.05, bl.StepConfig(dt=1e-3), p, dly, ops); "
            "print(rep.termination, 'scipy.sparse' in sys.modules); "
            "bl.Stepper(ops, bl.StepConfig(dt=1e-3, nonlinear=True), p, dly); "
            "print('scipy.sparse' in sys.modules)")
    src = str(Path(bousslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["completed", "False", "True"]


SWEEP = GOOD + """
[sweep]
task = certify
output = table.csv

[axes]
alpha = 0.01 0.03 0.05 0.08 0.1 0.2
beta = 5e-4
"""


def test_sweep_rows_and_admissibility_flip(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--spec", _write(tmp_path, SWEEP, "sweep.ini"),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "table.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 6
    header = lines[0].split(",")
    i_adm = header.index("admissible")
    flags = [ln.split(",")[i_adm] == "True" for ln in lines[1:]]
    flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert flips == 1
    assert not flags[0] and flags[-1]


def test_sweep_admissible_is_certified(tmp_path):
    # the empty-interval alpha passes the gain threshold but has no
    # certificate: its row reads inadmissible, as `check` does (exit 2)
    alpha = _empty_interval_alpha()
    base = EMPTY_INTERVAL.replace("alpha = 0.05", f"alpha = {alpha!r}")
    assert main(["check", "--config", _write(tmp_path, base)]) == 2
    spec = base + SWEEP[len(GOOD):].replace(
        "alpha = 0.01 0.03 0.05 0.08 0.1 0.2", f"alpha = {alpha!r} 2.0").replace(
        "beta = 5e-4", "beta = 0.05")
    out = tmp_path / "swempty"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"), "--out", str(out)]) == 0
    header, empty, wide = (out / "table.csv").read_text().strip().split("\n")
    header = header.split(",")
    empty, wide = dict(zip(header, empty.split(","))), dict(zip(header, wide.split(",")))
    assert empty["admissible"] == "False" and empty["error"] == ""
    assert empty["lambda"] == empty["mu1_star"] == empty["zeta"] == ""
    assert wide["admissible"] == "True" and float(wide["lambda"]) > 0


def test_sweep_grid_size(tmp_path):
    spec = SWEEP.replace("alpha = 0.01 0.03 0.05 0.08 0.1 0.2",
                         "alpha = 0.05 0.1") \
                .replace("beta = 5e-4", "beta = 2e-4 4e-4 6e-4")
    out = tmp_path / "sw23"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(out)]) == 0
    lines = (out / "table.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3


def test_sweep_empty_axis_is_error(tmp_path):
    spec = SWEEP.replace("alpha = 0.01 0.03 0.05 0.08 0.1 0.2", "alpha = ")
    assert main(["sweep", "--spec", _write(tmp_path, spec, "bad.ini"),
                 "--out", str(tmp_path)]) == 3
    assert main(["sweep", "--spec", _write(tmp_path, "[axes\nbeta = 1", "bad.ini"),
                 "--out", str(tmp_path)]) == 3


def test_simulate_refuses_unknown_section_and_grid_key(tmp_path, capsys):
    for text, named in ((GOOD.replace("[run]", "[runn]"), "unknown section [runn]"),
                        (GOOD.replace("n = 48", "nn = 400"), "unknown key 'nn'")):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_sweep_spec_sections_are_not_base_config(tmp_path, capsys):
    # the shipped spec runs; a section that is neither the sweep's own nor
    # the base configuration's is an error
    spec = Path(__file__).resolve().parents[1] / "configs" / "sweep.ini"
    out = tmp_path / "shipped"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert len((out / "gain_sweep.csv").read_text().strip().split("\n")) == 1 + 10
    bad = SWEEP.replace("[sweep]", "[sweeps]")
    assert main(["sweep", "--spec", _write(tmp_path, bad, "s.ini"),
                 "--out", str(tmp_path / "bad")]) == 3
    assert "unknown section [sweeps]" in capsys.readouterr().err


def test_sweep_unknown_axis_is_spec_error(tmp_path, capsys):
    spec = SWEEP.replace("beta = 5e-4", "n = 32 64")
    out = tmp_path / "swn"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(out)]) == 3
    assert "sweep spec error: unknown sweep axis 'n'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [("taks = both", "taks"),
                                        ("task = certify\nthreads = 4", "threads")])
def test_sweep_unknown_key_is_spec_error(tmp_path, capsys, lines, key):
    # once ignored: a misspelt task ran the default certify and exited 0
    spec = SWEEP.replace("task = certify", lines)
    out = tmp_path / "swkey"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(out)]) == 3
    assert f"sweep spec error: unknown key {key!r} in section [sweep]" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_invalid_point_is_row_error(tmp_path):
    spec = SWEEP.replace("alpha = 0.01 0.03 0.05 0.08 0.1 0.2", "a = -1 0.1")
    out = tmp_path / "swa"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(out)]) == 0
    header, bad, good = (out / "table.csv").read_text().strip().split("\n")
    header = header.split(",")
    assert dict(zip(header, bad.split(",")))["error"].startswith("coefficients must be positive")
    assert dict(zip(header, good.split(",")))["error"] == ""


def test_sweep_row_marks_truncated_run(tmp_path, monkeypatch):
    spec = SWEEP.replace("task = certify", "task = simulate") \
                .replace("alpha = 0.01 0.03 0.05 0.08 0.1 0.2", "alpha = 0.05")
    failing_solve(monkeypatch, after=5)
    out = tmp_path / "swfail"
    assert main(["sweep", "--spec", _write(tmp_path, spec, "s.ini"),
                 "--out", str(out)]) == 0
    header, row = (out / "table.csv").read_text().strip().split("\n")
    row = dict(zip(header.split(","), row.split(",")))
    assert row["termination"] == "numerical_error"
    assert row["error"] == ""


def test_sweep_deterministic(tmp_path):
    spec = _write(tmp_path, SWEEP, "sweep.ini")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--spec", spec, "--out", str(out1)]) == 0
    assert main(["sweep", "--spec", spec, "--out", str(out2)]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


def test_optimize_rate(tmp_path, capsys):
    assert main(["optimize-rate", "--config", _write(tmp_path, GOOD)]) == 0
    out = capsys.readouterr().out
    assert "mu1_star" in out and "lambda_star" in out


def test_optimize_rate_beta_zero(tmp_path, capsys):
    # beta = 0: g is the constant (1-d)/M, its right endpoint included
    cfg = GOOD.replace("beta = 0.0005", "beta = 0.0").replace("M = 2.0", "M = 200.0")
    assert main(["optimize-rate", "--config", _write(tmp_path, cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[lines.index("mu1,f,g") + 1:-2]]
    assert len(rows) == 21
    assert all(float(g) == 1.0 / 200.0 for _, _, g in rows)


def test_optimize_rate_beta_zero_without_crossing(tmp_path, capsys):
    # f stays below g = 1/M, so mu1* is the table's last mu1
    cfg = GOOD.replace("beta = 0.0005", "beta = 0.0")
    assert main(["optimize-rate", "--config", _write(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    last_row = out.splitlines()[-3]
    assert last_row.split(",")[0] == "%.8g" % float(_printed(out, "mu1_star"))


@pytest.mark.parametrize("levels", ["1", "0"])
def test_convergence_needs_two_levels(capsys, levels):
    # one level or none gives no order to check
    assert main(["convergence", "--levels", levels]) == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "levels" in captured.err
    assert "orders" not in captured.out


def test_convergence_two_levels(capsys):
    assert main(["convergence", "--levels", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,dt,error" and len(lines) == 4
    assert all(len(row.split(",")) == 3 for row in lines[1:3])
    assert lines[3].startswith("orders: ") and float(lines[3].split()[1]) >= 1.9


def test_convergence_reports_a_failed_run(capsys, monkeypatch):
    # a failed step of the study is an error message and exit 1, not a traceback
    failing_solve(monkeypatch, 100)
    assert main(["convergence", "--levels", "2"]) == 1
    captured = capsys.readouterr()
    assert "convergence error" in captured.err and "banded solve" in captured.err
    assert "orders" not in captured.out


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_optimize_rate_needs_two_points(tmp_path, capsys, points):
    assert main(["optimize-rate", "--config", _write(tmp_path, GOOD),
                 "--points", points]) == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "--points" in captured.err
    assert "mu1,f,g" not in captured.out


@pytest.mark.parametrize("points", [str(10 ** 13), str(10 ** 20)])
def test_optimize_rate_refuses_points_it_cannot_hold(tmp_path, capsys, points):
    # 10**13 points would take 73 TiB, which numpy refuses at once;
    # 10**20 is past the largest array index
    assert main(["optimize-rate", "--config", _write(tmp_path, GOOD),
                 "--points", points]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and points in captured.err
    assert "Traceback" not in captured.err and "mu1,f,g" not in captured.out
