import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bousslab
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
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 3


def test_check_without_crossing_is_inadmissible(tmp_path, capsys):
    # beta = 0 with M = 2: f never reaches g = 1/M on the interval, so the
    # certificate has no crossing; the command reports it instead of raising
    cfg = GOOD.replace("beta = 0.0005", "beta = 0.0")
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert "bracket sign condition violated" in capsys.readouterr().err


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


def test_simulate_rejects_out_of_range_multipliers(tmp_path, capsys):
    cfg = GOOD.replace("omega0 = quartic 0.1", "omega0 = quartic 0.1\nmu1 = 5.0\nmu2 = 3.0")
    out = tmp_path / "outmu"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--horizon", "0.05", "--n", "32"]) == 1
    assert "simulation error" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_simulate_rejects_rho_res_below_one_without_delay(tmp_path, capsys):
    cfg = GOOD.replace("beta = 0.0005", "beta = 0.0").replace(
        "omega0 = quartic 0.1", "omega0 = quartic 0.1\nrho_res = 0")
    out = tmp_path / "outrho"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--horizon", "0.01", "--n", "32"]) == 1
    assert "m >= 1" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_simulate_rejects_negative_horizon(tmp_path, capsys):
    out = tmp_path / "outneg"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--horizon", "-1", "--n", "32"]) == 1
    assert "horizon" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_simulate_rejects_unallocatable_horizon(tmp_path, capsys):
    # 1e303 rows: refused before the first step
    out = tmp_path / "outhuge"
    assert main(["simulate", "--config", _write(tmp_path, GOOD), "--out", str(out),
                 "--horizon", "1e300", "--n", "32"]) == 1
    assert "cannot allocate 1e+303 rows" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_simulate_writes_partial_series_on_failure(tmp_path, monkeypatch):
    failing_solve(monkeypatch, after=5)
    out = tmp_path / "outfail"
    assert main(["simulate", "--config", _write(tmp_path, GOOD),
                 "--out", str(out)]) == 1
    rows = (out / "timeseries.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == 6
    assert "termination = numerical_error" in (out / "summary.txt").read_text()
    assert (out / "config.ini").exists()


def test_import_surface():
    # ARPACK/SuperLU load only when the slow mode runs, and the history
    # interpolant needs no scipy.interpolate
    code = ("import sys, bousslab, bousslab.cli; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.interpolate') "
            "if m in sys.modules))")
    src = str(Path(bousslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


@pytest.mark.parametrize("levels", ["1", "0"])
def test_convergence_needs_two_levels(capsys, levels):
    # one level or none gives no order to check
    assert main(["convergence", "--levels", levels]) == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "levels" in captured.err
    assert "orders" not in captured.out


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_optimize_rate_needs_two_points(tmp_path, capsys, points):
    assert main(["optimize-rate", "--config", _write(tmp_path, GOOD),
                 "--points", points]) == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "--points" in captured.err
    assert "mu1,f,g" not in captured.out
