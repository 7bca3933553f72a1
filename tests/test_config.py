import dataclasses

import numpy as np
import pytest

from bousslab.config import (RunSettings, initial_profile, parse_config,
                             serialize_config)
from bousslab.errors import ConfigurationError

SAMPLE = """
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
history = zero

[grid]
n = 64

[run]
T = 1.0
dt = 0.001
eta0 = cubic 1.0
omega0 = quartic 1.0
"""


def test_parse_sample():
    p, dly, grid, run = parse_config(SAMPLE)
    assert p.a == 0.1 and p.a1 == 0.0065 and p.L == 1.0
    assert dly.tau0 == 0.5 and dly.M == 2.0
    assert grid.n == 64
    assert run.T == 1.0 and run.dt == 0.001


def test_round_trip_semantically_identical():
    p, dly, grid, run = parse_config(SAMPLE)
    text = serialize_config(p, dly, grid, run)
    p2, dly2, grid2, run2 = parse_config(text)
    assert p2 == p
    assert grid2 == grid
    assert run2 == run
    assert dly2.tau0 == dly.tau0 and dly2.M == dly.M and dly2.form == dly.form
    assert np.array_equal(dly2.history, dly.history)
    # serialization is a fixed point after one round
    assert serialize_config(p2, dly2, grid2, run2) == text


def test_unknown_key_rejected():
    bad = SAMPLE.replace("a = 0.1", "a = 0.1\nbogus = 2")
    with pytest.raises(ConfigurationError):
        parse_config(bad)


def test_unknown_grid_key_rejected():
    # `nn = 400` used to run at the default n = 200
    with pytest.raises(ConfigurationError, match=r"unknown key 'nn' in section \[grid\]"):
        parse_config(SAMPLE.replace("n = 64", "nn = 400"))
    with pytest.raises(ConfigurationError, match=r"unknown key 'L' in section \[grid\]"):
        parse_config(SAMPLE.replace("n = 64", "n = 64\nL = 2.0"))


@pytest.mark.parametrize("name", ["runn", "Run", "sweep", "axes", "DEFAULT"])
def test_unknown_section_rejected(name):
    # a misspelled section used to leave its keys unread, at their defaults
    with pytest.raises(ConfigurationError, match=rf"unknown section \[{name}\]"):
        parse_config(SAMPLE.replace("[run]", f"[{name}]"))


@pytest.mark.parametrize("key, value", [
    ("startup_steps", "4"), ("picard_iters", "30"), ("picard_tol", "1e-12"),
    ("kappa", "2.0"), ("fit_window", "0.5"), ("bound_slack", "0.02"),
    ("theta", "auto"), ("mu1", "auto"), ("mu2", "0.5"), ("rho_res", "64")])
def test_removed_run_keys_rejected(key, value):
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        parse_config(SAMPLE + f"{key} = {value}\n")


def test_round_trip_every_run_field():
    # a non-default value for every [run] field survives serialize -> parse
    p, dly, grid, run = parse_config(SAMPLE)
    changed = RunSettings(T=2.5, dt=5e-4, nonlinear=True,
                          eta0="sine 1.0 2", omega0="gauss 0.5 0.3 0.1", seed=7,
                          store_fields=True)
    defaults = RunSettings()
    assert all(getattr(changed, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(RunSettings))
    run2 = parse_config(serialize_config(p, dly, grid, changed))[3]
    assert run2 == changed


def test_numpy_scalars_round_trip():
    # a numpy scalar is written as its Python value's repr, so np.float32
    # keeps every digit and the text parses back to equal fields
    p, dly, grid, run = parse_config(SAMPLE)
    p = dataclasses.replace(p, alpha=np.float64(0.05), beta=np.float32(5e-4))
    dly = dataclasses.replace(dly, tau0=np.float64(0.5), M=np.float32(2.0))
    grid = dataclasses.replace(grid, n=np.int64(64))
    run = dataclasses.replace(run, seed=np.int64(7), dt=np.float32(1e-3),
                              store_fields=np.bool_(True), nonlinear=np.bool_(False))
    text = serialize_config(p, dly, grid, run)
    assert "np." not in text and "beta = 0.0005000000237487257\n" in text
    p2, dly2, grid2, run2 = parse_config(text)
    assert (p2, grid2, run2) == (p, grid, run)
    assert (dly2.tau0, dly2.M) == (dly.tau0, dly.M)


def test_seed_must_be_a_nonnegative_integer():
    # numpy's generator would refuse a negative seed only once the run starts
    for seed in (-1, True, 2.0, "3", np.int64(-2)):
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            RunSettings(seed=seed)
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer, got -1"):
        parse_config(SAMPLE + "seed = -1\n")
    assert RunSettings(seed=np.int64(5)).seed == 5


def test_run_settings_refuse_a_profile_that_is_not_a_string():
    # once a raw AttributeError from str.split, when the run began
    for key in ("eta0", "omega0"):
        for spec in (None, 1.0):
            with pytest.raises(ConfigurationError, match="initial profile is a string, got"):
                RunSettings(**{key: spec})


def test_run_settings_refuse_a_bad_step_or_horizon():
    # a step that `StepConfig` or a horizon that `run` would refuse later is
    # refused as the settings are made, so `simulate` fails before its outputs
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match=f"dt must be positive and finite, got {dt}"):
            RunSettings(dt=dt)
    for T in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match=f"horizon T must be finite and nonnegative, "
                                                     f"got {T}"):
            RunSettings(T=T)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite, got 0.0"):
        parse_config(SAMPLE.replace("dt = 0.001", "dt = 0"))
    # a step so small that T / dt, the step count, overflows
    with pytest.raises(ConfigurationError,
                       match=r"step count T / dt is not finite: T = 5.0, dt = 5e-324"):
        RunSettings(T=5.0, dt=5e-324)
    assert RunSettings(T=0.0).T == 0.0
    assert RunSettings(T=0.0, dt=5e-324).dt == 5e-324


@pytest.mark.parametrize("history", ["zero", "constant 0.3", "0.7", "0.1 0.5 -0.2"])
def test_history_round_trip(history):
    # every history form serialize_config writes parses back to the same samples
    parsed = parse_config(SAMPLE.replace("history = zero", f"history = {history}"))
    dly2 = parse_config(serialize_config(*parsed))[1]
    assert np.array_equal(dly2.history, parsed[1].history)


def test_malformed_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("[system\na = ")


def test_history_forms():
    p, dly, _, _ = parse_config(SAMPLE.replace("history = zero",
                                               "history = constant 1.5"))
    assert np.all(dly.history == 1.5)
    p, dly, _, _ = parse_config(SAMPLE.replace("history = zero",
                                               "history = 0.1 0.2 0.3"))
    # sparse seeds are densified by linear interpolation
    times = dly.history_times()
    assert dly.history.size >= 65
    for t_q, v_q in ((-dly.tau0, 0.1), (-dly.tau0 / 2, 0.2), (0.0, 0.3)):
        assert abs(np.interp(t_q, times, dly.history) - v_q) < 1e-14


def test_initial_profiles():
    x = np.linspace(0.1, 0.9, 9)
    L = 1.0
    assert np.all(initial_profile("zero", x, L) == 0.0)
    q = initial_profile("quartic 2.0", x, L)
    assert np.allclose(q, 2.0 * x ** 2 * (1 - x) ** 2)
    c = initial_profile("cubic 1.0", x, L)
    assert np.allclose(c, x ** 3 * (1 - x) ** 2)
    s = initial_profile("sine 1.0 2", x, L)
    assert np.allclose(s, np.sin(2 * np.pi * x) * x ** 2 * (1 - x) ** 2)
    g1 = initial_profile("gauss 1.0 0.5 0.1", x, L)
    assert g1.max() <= 1.0
    r1 = initial_profile("random 1.0", x, L, np.random.default_rng(1))
    r2 = initial_profile("random 1.0", x, L, np.random.default_rng(1))
    assert np.array_equal(r1, r2)
    with pytest.raises(ConfigurationError):
        initial_profile("nope", x, L)


@pytest.mark.parametrize("key, spec, match", [
    ("eta0", "slowmode abc", "cannot parse"),
    ("eta0", "cubic abc", "cannot parse"),
    ("eta0", "cubic 1 2", "at most 1 arguments"),
    ("omega0", "sine 1 2 3", "at most 2 arguments"),
    ("omega0", "gauss 1 0.5 0.1 9", "at most 3 arguments"),
    ("omega0", "zero 1", "at most 0 arguments"),
    ("eta0", "slowmode nan", "non-finite"),
    ("eta0", "slowmode inf", "non-finite"),
    ("omega0", "quartic -inf", "non-finite"),
    ("eta0", "slowmodes 1.0", "unknown initial profile"),
    ("eta0", "gauss 1 0.5 0", "needs a positive width"),
    ("omega0", "gauss 1 0.5 -0.1", "needs a positive width"),
    ("eta0", "bogus 1 2 3", "unknown initial profile"),
    # slowmode sets eta, omega and the history: an eta0 family only
    ("omega0", "slowmode", "omega0 cannot be 'slowmode'"),
    ("omega0", "slowmode 2.0", "only eta0 names it"),
])
def test_malformed_initial_profile_rejected(key, spec, match):
    good = "cubic 1.0" if key == "eta0" else "quartic 1.0"
    text = SAMPLE.replace(f"{key} = {good}", f"{key} = {spec}")
    with pytest.raises(ConfigurationError, match=match):
        parse_config(text)
    # the settings refuse it themselves, not only when read from text
    with pytest.raises(ConfigurationError, match=match):
        RunSettings(**{key: spec})
    # the same check refuses it in the library call
    if not spec.startswith("slowmode"):
        with pytest.raises(ConfigurationError, match=match):
            initial_profile(spec, np.linspace(0.1, 0.9, 9), 1.0)
