import numpy as np
import pytest

import bousslab as bl
from bousslab.errors import ConfigurationError, NumericalError
from bousslab.stepping import SimState, Stepper

from conftest import ACC, ACC_DELAY


def _setup(n=32, beta=5e-4):
    p = bl.SystemParams(**{**ACC, "beta": beta})
    dly = bl.DelaySpec(**ACC_DELAY)
    g = bl.Grid(n=n, L=p.L)
    ops = bl.build_operators(p, g)
    return p, dly, g, ops


def _random_state(g, dly, rng, scale=1.0):
    t_h = np.linspace(-dly.tau0, 0.0, 41)
    hist = bl.HistoryLine(t_h, scale * rng.standard_normal(41), M=dly.M)
    return SimState(t=0.0, eta=scale * rng.standard_normal(g.n),
                    omega=scale * rng.standard_normal(g.n), history=hist)


def test_zero_state_stays_zero():
    p, dly, g, ops = _setup()
    hist = bl.HistoryLine([-dly.tau0, 0.0], [0.0, 0.0], M=dly.M)
    s = SimState(t=0.0, eta=np.zeros(g.n), omega=np.zeros(g.n), history=hist)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    stepper = Stepper(ops, cfg, p, dly)
    for _ in range(20):
        s = stepper.step(s)
    assert np.all(s.eta == 0.0) and np.all(s.omega == 0.0)


def test_beta_zero_energy_monotone():
    # mirrors the non-increasing energy statement for the undelayed damper
    p, dly, g, ops = _setup(n=100, beta=0.0)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(state, 2.0, cfg, p, dly, ops)
    up = np.diff(rep.E).max()
    assert up <= 1e-10 * rep.E[0]


def test_superposition():
    p, dly, g, ops = _setup(n=48)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rng = np.random.default_rng(42)
    sx = _random_state(g, dly, rng)
    sy = _random_state(g, dly, rng)
    tx, vx = np.array(sx.history._t), np.array(sx.history._v)
    vy = np.array(sy.history._v)
    ex, ox = sx.eta.copy(), sx.omega.copy()
    s_sum = SimState(t=0.0, eta=sx.eta + sy.eta, omega=sx.omega + sy.omega,
                     history=bl.HistoryLine(tx, vx + vy, M=dly.M))
    rx = Stepper(ops, cfg, p, dly).step(sx)
    ry = Stepper(ops, cfg, p, dly).step(sy)
    rsum = Stepper(ops, cfg, p, dly).step(s_sum)
    scale = np.max(np.abs(rsum.eta)) + np.max(np.abs(rsum.omega))
    assert np.max(np.abs(rsum.eta - rx.eta - ry.eta)) < 1e-10 * scale
    assert np.max(np.abs(rsum.omega - rx.omega - ry.omega)) < 1e-10 * scale
    # homogeneity
    c = -2.5
    s_scaled = SimState(t=0.0, eta=c * ex, omega=c * ox,
                        history=bl.HistoryLine(tx, c * vx, M=dly.M))
    rc = Stepper(ops, cfg, p, dly).step(s_scaled)
    assert np.max(np.abs(rc.eta - c * rx.eta)) < 1e-10 * scale * abs(c)


def test_determinism_bit_identical():
    p, dly, g, ops = _setup(n=40)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))

    def one():
        rng = np.random.default_rng(3)
        s = _random_state(g, dly, rng, scale=0.1)
        return bl.run(s, 0.2, cfg, p, dly, ops)

    r1, r2 = one(), one()
    assert np.array_equal(r1.E, r2.E)
    assert np.array_equal(r1.trace_now, r2.trace_now)


def test_row_count_and_T_zero():
    p, dly, g, ops = _setup(n=32)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rng = np.random.default_rng(0)
    s = _random_state(g, dly, rng, scale=0.01)
    rep = bl.run(s, 0.0217, cfg, p, dly, ops)
    assert rep.n_rows == int(np.floor(0.0217 / 1e-3)) + 1
    s2 = _random_state(g, dly, rng, scale=0.01)
    rep0 = bl.run(s2, 0.0, cfg, p, dly, ops)
    assert rep0.n_rows == 1
    assert rep0.E[0] > 0


def test_dt_must_resolve_delay():
    p, dly, g, ops = _setup()
    with pytest.raises(ConfigurationError):
        Stepper(ops, bl.StepConfig(dt=dly.tau0), p, dly)


def test_theta_range_enforced():
    with pytest.raises(ConfigurationError):
        bl.StepConfig(dt=1e-3, theta=0.4)


def test_one_shot_step_matches_stepper():
    p, dly, g, ops = _setup(n=32)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rng = np.random.default_rng(9)
    s1 = _random_state(g, dly, rng, scale=0.1)
    rng = np.random.default_rng(9)
    s2 = _random_state(g, dly, rng, scale=0.1)
    out1 = bl.step(s1, ops, cfg, p, dly)
    out2 = Stepper(ops, cfg, p, dly).step(s2)
    assert np.array_equal(out1.eta, out2.eta)


def test_slow_mode_state_decays_at_its_rate():
    p, dly, g, ops = _setup(n=100)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert lam.real < 0
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(state, 2.0, cfg, p, dly, ops)
    lam_obs, r2 = bl.fit_decay(rep.t, rep.E, window=0.5)
    assert abs(lam_obs - (-2 * lam.real)) < 0.05 * abs(2 * lam.real)


def test_slow_mode_state_converges_or_raises(monkeypatch):
    p, dly, g, ops = _setup(n=32)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    real_eig = np.linalg.eig
    calls = []

    def restless_eig(a):
        # every eigensolve moves the spectrum by 1e-3: the fixed point never settles
        w, v = real_eig(a)
        calls.append(1)
        return w + 1e-3 * (-1) ** len(calls), v

    monkeypatch.setattr(np.linalg, "eig", restless_eig)
    with pytest.raises(NumericalError, match="did not settle"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert len(calls) == 13   # the start plus 12 fixed-point eigensolves


def test_startup_steps_run():
    p, dly, g, ops = _setup(n=32)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3), startup_steps=4)
    rng = np.random.default_rng(1)
    s = _random_state(g, dly, rng, scale=0.01)
    rep = bl.run(s, 0.02, cfg, p, dly, ops)
    assert rep.termination == "completed"
    assert np.all(np.isfinite(rep.E))
