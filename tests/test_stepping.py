import logging
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import bousslab as bl
from bousslab.energy import energy_sample
from bousslab.errors import ConfigurationError, NumericalError
from bousslab.operators import BandedLU, band_storage, nonlinear_matrices
from bousslab.report import CSV_COLUMNS
from bousslab.stepping import SimState, Stepper, _coarse_spectrum

from conftest import ACC, ACC_DELAY, dense_from_band, failing_solve


def _setup(n=32, beta=5e-4):
    p = bl.SystemParams(**{**ACC, "beta": beta})
    dly = bl.DelaySpec(**ACC_DELAY)
    g = bl.Grid(n=n, L=p.L)
    ops = bl.build_operators(p, g)
    return p, dly, g, ops


def _random_state(g, dly, rng, scale=1.0):
    t_h = np.linspace(-dly.tau0, 0.0, 41)
    hist = bl.HistoryLine(t_h, scale * rng.standard_normal(41))
    return SimState(t=0.0, eta=scale * rng.standard_normal(g.n),
                    omega=scale * rng.standard_normal(g.n), history=hist)


def test_zero_state_stays_zero():
    p, dly, g, ops = _setup()
    hist = bl.HistoryLine([-dly.tau0, 0.0], [0.0, 0.0])
    # nonlinear, every Picard step is exactly 0: 0/0 reads as q = 0, an
    # exact fixed point, and the second iterate is accepted
    for nonlinear in (False, True):
        s = SimState(t=0.0, eta=np.zeros(g.n), omega=np.zeros(g.n), history=hist.copy())
        cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3), nonlinear=nonlinear)
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
                     history=bl.HistoryLine(tx, vx + vy))
    rx = Stepper(ops, cfg, p, dly).step(sx)
    ry = Stepper(ops, cfg, p, dly).step(sy)
    rsum = Stepper(ops, cfg, p, dly).step(s_sum)
    scale = np.max(np.abs(rsum.eta)) + np.max(np.abs(rsum.omega))
    assert np.max(np.abs(rsum.eta - rx.eta - ry.eta)) < 1e-10 * scale
    assert np.max(np.abs(rsum.omega - rx.omega - ry.omega)) < 1e-10 * scale
    # homogeneity
    c = -2.5
    s_scaled = SimState(t=0.0, eta=c * ex, omega=c * ox,
                        history=bl.HistoryLine(tx, c * vx))
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


def test_numerical_error_keeps_partial_series(monkeypatch):
    p, dly, g, ops = _setup(n=16)
    failing_solve(monkeypatch, after=3)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(_random_state(g, dly, np.random.default_rng(4), scale=0.01),
                 0.01, cfg, p, dly, ops)
    assert rep.termination == "numerical_error"
    assert rep.n_rows == 4 and np.array_equal(rep.t, [0.0, 1e-3, 2e-3, 3e-3])


def test_early_stop_cuts_stored_fields(monkeypatch):
    p, dly, g, ops = _setup(n=16)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    # the 301st solve fails inside the second block of 256 steps: the
    # fields end at the last row kept, the state 300 steps give
    eta0 = 0.01 * np.sin(np.pi * g.nodes)
    s = bl.initial_state(p, dly, g, eta0, np.zeros(g.n))
    end = Stepper(ops, cfg, p, dly).advance(
        SimState._from_u(0.0, s.u, s.history.copy()), 300)
    with monkeypatch.context() as mp:
        failing_solve(mp, after=300)
        rep = bl.run(s, 1.0, cfg, p, dly, ops, store_fields=True)
    assert rep.termination == "numerical_error" and rep.n_rows == 301
    assert rep.fields_eta.shape == rep.fields_omega.shape == (301, g.n)
    assert np.array_equal(rep.fields_eta[0], eta0)
    assert np.array_equal(rep.fields_omega[0], np.zeros(g.n))
    assert np.array_equal(rep.fields_eta[-1], end.eta)
    assert np.array_equal(rep.fields_omega[-1], end.omega)

    s = _random_state(g, dly, np.random.default_rng(4), scale=0.01)
    expected = [s]
    stepper = Stepper(ops, cfg, p, dly)
    for _ in range(3):
        expected.append(stepper.step(expected[-1]))
    # the same start again: the steps above pushed into its history
    s = _random_state(g, dly, np.random.default_rng(4), scale=0.01)
    failing_solve(monkeypatch, after=3)
    rep = bl.run(s, 0.01, cfg, p, dly, ops, store_fields=True)
    assert rep.termination == "numerical_error" and rep.n_rows == 4
    assert rep.fields_eta.shape == rep.fields_omega.shape == (4, g.n)
    for k, st in enumerate(expected):
        assert np.array_equal(rep.fields_eta[k], st.eta)
        assert np.array_equal(rep.fields_omega[k], st.omega)


def test_run_rejects_horizon_beyond_allocation():
    # 1e303 rows exceed numpy's index range, so nothing is allocated
    p, dly, g, ops = _setup(n=16)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s = _random_state(g, dly, np.random.default_rng(5), scale=0.01)
    for store_fields in (False, True):
        with pytest.raises(ConfigurationError, match=r"cannot allocate 1e\+303 rows"):
            bl.run(s, 1e300, cfg, p, dly, ops, store_fields=store_fields)
    assert s.t == 0.0 and s.history.t_last == 0.0   # no step was taken


def test_dt_must_resolve_delay(monkeypatch):
    # dt = tau0 would read a delayed value not yet stored: the stepper is
    # built, and `run`, `advance` and `step` refuse the steps with
    # `_check_start`'s message before any of them (every banded solve
    # would fail), the state and its line unchanged
    p, dly, g, ops = _setup()
    cfg = bl.StepConfig(dt=dly.tau0)
    stepper = Stepper(ops, cfg, p, dly)
    s = _random_state(g, dly, np.random.default_rng(6), scale=0.01)
    u, line, size = s.u.copy(), s.history._buf.copy(), s.history.size
    failing_solve(monkeypatch, after=0)
    for take, t_end in ((lambda: bl.run(s, 1.0, cfg, p, dly, ops), 1),
                        (lambda: stepper.advance(s, 2), 1), (lambda: stepper.step(s), 0.5)):
        with pytest.raises(ConfigurationError,
                           match=rf"min tau = 0\.5 <= dt = 0\.5 on \[0, {t_end:g}\]"):
            take()
        assert s.t == 0.0 and np.array_equal(s.u, u) and s.history.size == size
        assert np.array_equal(s.history._buf, line)


def _step_rule_entry_points():
    """Each entry point that takes a step dt or a horizon T, as a call of (T, dt)."""
    from bousslab.mms import mms_error
    p, dly = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=0.0), bl.DelaySpec()
    g = bl.Grid(n=16, L=1.0)
    ops = bl.build_operators(p, g)
    s = bl.initial_state(p, dly, g, np.zeros(g.n), np.zeros(g.n))
    return {"RunSettings": lambda T, dt: bl.RunSettings(T=T, dt=dt),
            "StepConfig": lambda T, dt: bl.StepConfig(dt=dt),
            "run": lambda T, dt: bl.run(s, T, bl.StepConfig(dt=dt), p, dly, ops),
            "mms_error": lambda T, dt: mms_error(p, dly, 16, dt, T)}


_DT_REFUSALS = [(f"dt={dt}", 0.5, dt, f"dt must be positive and finite, got {dt}")
                for dt in (0.0, np.nan, np.inf)]
_T_REFUSALS = [*((f"T={T}", T, 1e-3, f"horizon T must be finite and nonnegative, got {T}")
                 for T in (-1.0, np.nan, np.inf)),
               ("T/dt=inf", 0.5, 5e-324,
                "the step count T / dt is not finite: T = 0.5, dt = 5e-324")]


@pytest.mark.parametrize("entry, T, dt, message", [
    *(pytest.param(entry, *case, id=f"{entry}-{name}")
      for entry in ("RunSettings", "StepConfig", "run", "mms_error")
      for name, *case in _DT_REFUSALS),
    *(pytest.param(entry, *case, id=f"{entry}-{name}")
      for entry in ("RunSettings", "run", "mms_error") for name, *case in _T_REFUSALS)])
def test_every_entry_point_refuses_a_step_or_horizon_by_one_rule(entry, T, dt, message):
    # `params._check_dt` and `params._step_count` are the one rule: the same
    # input gets the same message wherever it enters (StepConfig takes no T)
    with pytest.raises(ConfigurationError) as info:
        _step_rule_entry_points()[entry](T, dt)
    assert str(info.value) == message


def test_nan_dt_is_refused_naming_dt():
    p, dly, g, ops = _setup(n=16)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite, got nan"):
        bl.StepConfig(dt=np.nan)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite, got inf"):
        bl.StepConfig(dt=np.inf)
    with pytest.raises(ConfigurationError, match="dt=nan"):
        bl.slow_mode_state(ops, p, dly, dt=np.nan)
    # a step so small that T / dt overflows: named before any step
    state = bl.initial_state(p, dly, g, np.zeros(g.n), np.zeros(g.n))
    with pytest.raises(ConfigurationError,
                       match=r"step count T / dt is not finite: T = 5.0, dt = 5e-324"):
        bl.run(state, 5.0, bl.StepConfig(dt=5e-324), p, dly, ops)


_COLUMN = r"forcing needs a finite \(64,\) column"


def _law(shape, dtype="float64"):
    return rf"forcing law gave shape {re.escape(shape)} for 5 times: need one value per " \
           rf"time, finite and real \(dtype {dtype}\)"


@pytest.mark.parametrize("forcing, match", [
    pytest.param((np.ones(63), np.exp), _COLUMN, id="column-of-2n-1"),
    pytest.param((np.ones((32, 2)), np.exp), _COLUMN, id="column-of-n-by-2"),
    pytest.param((np.r_[np.ones(63), np.nan], np.exp), _COLUMN, id="column-with-nan"),
    pytest.param((np.r_[np.inf, np.ones(63)], np.exp), _COLUMN, id="column-with-inf"),
    pytest.param((np.ones(64), lambda t: 1.0), _law("()"), id="law-of-one-value"),
    pytest.param((np.ones(64), lambda t: np.ones(3)), _law("(3,)"), id="law-of-three-values"),
    pytest.param((np.ones(64), lambda t: np.exp(t)[:, None]), _law("(5, 1)"),
                 id="law-of-a-column"),
    pytest.param((np.ones(64), lambda t: np.where(t > 3e-3, np.nan, 1.0)), _law("(5,)"),
                 id="law-of-a-nan"),
    pytest.param((np.ones(64), lambda t: np.full(t.shape, np.inf)), _law("(5,)"),
                 id="law-of-inf"),
    pytest.param((np.ones(64), lambda t: np.exp(1j * t)), _law("(5,)", "complex128"),
                 id="law-of-complex")])
def test_stepper_refuses_a_malformed_forcing(forcing, match):
    # a column is refused as the stepper is made, a law's values before the
    # run's first solve: the state and its line stay, its start included (the
    # line is denser than dt, so a block's drop of its past would move it)
    p, dly, g, ops = _setup()
    s = _random_state(g, dly, np.random.default_rng(6), scale=0.01)
    t_h = np.linspace(-dly.tau0, 0.0, 2001)
    s.history = bl.HistoryLine(t_h, 0.01 * np.cos(40.0 * t_h))
    u, line, size = s.u.copy(), s.history._buf.copy(), s.history.size
    with pytest.raises(ConfigurationError, match=match):
        Stepper(ops, bl.StepConfig(dt=1e-3), p, dly, forcing=forcing).advance(s, 5)
    assert s.t == 0.0 and np.array_equal(s.u, u) and np.array_equal(s.history._buf, line)
    assert s.history.size == size and s.history.t_first == -dly.tau0
    energy_sample(s, p, dly, g)   # the state still reads its window


def test_forcing_law_of_the_wrong_length_is_refused_before_the_run(monkeypatch):
    # the constructor never calls the law, so one giving two values whatever
    # the times is refused where the block makes a run's values, before that
    # run's first solve
    p, dly, g, ops = _setup()
    s = _random_state(g, dly, np.random.default_rng(6), scale=0.01)
    stepper = Stepper(ops, bl.StepConfig(dt=1e-3), p, dly,
                      forcing=(np.ones(64), lambda t: np.ones(2)))
    failing_solve(monkeypatch, 0)
    with pytest.raises(ConfigurationError,
                       match=r"forcing law gave shape \(2,\) for 256 times: need one value"):
        stepper.advance(s, 300)
    assert s.history.t_last == 0.0


def test_theta_range_enforced():
    with pytest.raises(ConfigurationError):
        bl.StepConfig(dt=1e-3, theta=0.4)


def test_run_rejects_bad_horizon_and_multipliers():
    p, dly, g, ops = _setup(n=16)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s = _random_state(g, dly, np.random.default_rng(5), scale=0.01)
    for T in (-1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="horizon"):
            bl.run(s, T, cfg, p, dly, ops)
    for mu1, mu2 in ((0.0, 1.0), (1.0 / p.L, 0.0), (-0.1, 0.0), (0.0, -0.1)):
        with pytest.raises(ConfigurationError, match="mu1 in"):
            bl.run(s, 0.01, cfg, p, dly, ops, mu1=mu1, mu2=mu2)
    assert s.t == 0.0 and s.history.t_last == 0.0   # no step was taken


@pytest.mark.parametrize("rho_res", [2048, 0, 2.5, True, 10 ** 13],
                         ids=["2048", "zero", "float", "bool", "unallocatable"])
def test_run_ignores_rho_res_with_a_deprecation_warning(rho_res):
    # the keyword is read by no code path: any value warns and gives the
    # rows of a call without it, bit for bit, whatever beta
    for beta in (0.0, 5e-4):
        p, dly, g, ops = _setup(n=16, beta=beta)
        cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
        s = _random_state(g, dly, np.random.default_rng(7), scale=0.01)
        with pytest.warns(DeprecationWarning, match="ignores rho_res"):
            old = bl.run(s, 0.05, cfg, p, dly, ops, rho_res=rho_res, store_fields=True)
        new = bl.run(s, 0.05, cfg, p, dly, ops, store_fields=True)
        assert old.n_rows == new.n_rows == 51 and old.config == new.config
        for name in (*CSV_COLUMNS, "dissipation_rhs", "fields_eta", "fields_omega"):
            a, b = getattr(old, name), getattr(new, name)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def test_run_leaves_its_state_untouched():
    # the run steps its own copy of the history: two runs from one state
    # agree bit for bit, and the state keeps its time, fields and history
    p, dly, g, ops = _setup(n=64)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s0 = _random_state(g, dly, np.random.default_rng(11), scale=0.1)
    h = s0.history
    before = (s0.u.copy(), h._t.copy(), h._v.copy(), h._m.copy(), h.size, h.t_last)
    r1, r2 = (bl.run(s0, 0.2, cfg, p, dly, ops, store_fields=True) for _ in range(2))
    assert r1.termination == r2.termination == "completed" and r1.n_rows == 201
    for name in (*CSV_COLUMNS, "dissipation_rhs", "fields_eta", "fields_omega"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name)), name
    assert s0.t == 0.0 and s0.history is h
    after = (s0.u, h._t, h._v, h._m, h.size, h.t_last)
    for x, y in zip(before, after):
        assert np.array_equal(x, y)


def test_run_refuses_a_history_that_does_not_end_at_the_state_time():
    p, dly, g, ops = _setup(n=16)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s0 = _random_state(g, dly, np.random.default_rng(12), scale=0.01)
    Stepper(ops, cfg, p, dly).step(s0)   # the step pushed into s0's history
    with pytest.raises(ConfigurationError, match=r"ends at t=0\.001, not at its time t=0\.0"):
        bl.run(s0, 0.01, cfg, p, dly, ops)
    late = SimState(t=0.25, eta=s0.eta, omega=s0.omega, history=s0.history)
    with pytest.raises(ConfigurationError, match=r"ends at t=0\.001, not at its time t=0\.25"):
        bl.run(late, 0.01, cfg, p, dly, ops)


@pytest.mark.parametrize("beta", [0.0, 5e-4])
def test_run_computes_each_trace_once(monkeypatch, beta):
    # one trace product per run of steps (a delay of many steps makes the
    # ten steps one run), over the run's stacked states; the monitor rows
    # read both traces from the history as given: trace_now is the trace of
    # each stepped state, and at the hand-built start, whose newest sample
    # is not its trace, the history's value at t
    p, dly, g, ops = _setup(n=16, beta=beta)
    real, calls = bl.trace_eta_xx_L, []

    def counting(eta, grid):
        calls.append(np.shape(eta))
        return real(eta, grid)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bousslab" and hasattr(mod, "trace_eta_xx_L"):
            monkeypatch.setattr(mod, "trace_eta_xx_L", counting)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s0 = _random_state(g, dly, np.random.default_rng(13), scale=0.01)
    rep = bl.run(s0, 0.01, cfg, p, dly, ops, store_fields=True)
    assert rep.n_rows == 11 and calls == [(10, g.n)]
    assert np.array_equal(rep.trace_now[1:], [real(e, g) for e in rep.fields_eta[1:]])
    assert rep.trace_now[0] == s0.history.query(0.0) != real(s0.eta, g)


def test_state_fields_are_views_of_u():
    p, dly, g, ops = _setup(n=16)
    s = _random_state(g, dly, np.random.default_rng(6))
    stepper = Stepper(ops, bl.StepConfig(dt=1e-3, theta=0.5), p, dly)
    for state in (s, stepper.step(s)):
        assert state.u.shape == (2 * g.n,)
        assert np.shares_memory(state.eta, state.u)
        assert np.shares_memory(state.omega, state.u)
        assert np.array_equal(state.u[0::2], state.eta)
        assert np.array_equal(state.u[1::2], state.omega)


def _oracle_step(stepper, p, lu, state, hist, grid, M2=None):
    """The step as it was before SimState held u: interleave both fields
    through index arrays, banded solve of the folded right-hand side u +
    theta dt b, then (x - (1 - theta) u) / theta (Picard for the nonlinear
    terms on increments, at most 30 solves, stopped from the second solve on
    once Banach's bound q/(1-q) |d_k| <= 1e-12 |u_{k+1}| holds), split into
    copies; the nonlinear terms by its own `@` products with the G and C of
    `nonlinear_matrices` and its own norms; a forced stepper's law(t_eval)
    column is added to b.  Given M2 = I + (1 - theta) dt A, the first solve
    is the unfolded N^-1 (M2 u + dt b) instead.  Returns (t, eta, omega);
    pushes the new trace onto `hist`."""
    dly, cfg = stepper.dly, stepper.cfg
    n = grid.n
    ie = 2 * np.arange(n)
    io = ie + 1
    u = np.empty(2 * n)
    u[ie] = state[1]
    u[io] = state[2]
    t_eval = state[0] + cfg.theta * cfg.dt
    b = np.zeros(2 * n)
    tau, _ = bl.tau_at(dly, t_eval)
    b[ie] = -p.beta * stepper.ops.omega_s_influence * hist.query(t_eval - tau)
    if stepper.forcing is not None:
        column, law = stepper.forcing
        b = b + law(np.array([t_eval]))[0] * column
    if cfg.nonlinear:
        G, C = nonlinear_matrices(n, grid.h, p)
        h = 6 * (n + 2)
        F = G @ u
        rhs = C @ (F[:h] * F[h:])
    if M2 is not None:
        base = M2 @ u + cfg.dt * b
        if cfg.nonlinear:
            base = base + (1.0 - cfg.theta) * cfg.dt * rhs
            base = base + cfg.theta * cfg.dt * rhs
        u_new = lu.solve(base)
    else:
        base = cfg.theta * cfg.dt * b + u
        if cfg.nonlinear:
            base = base + cfg.theta * cfg.dt * rhs
        u_new = (lu.solve(base) - (1.0 - cfg.theta) * u) / cfg.theta
    if cfg.nonlinear:
        d = u_new - u
        deltas = [float(np.linalg.norm(d))]
        for _ in range(29):
            Fd = G @ d
            Fm = F + 0.5 * Fd
            d = lu.solve(cfg.theta * cfg.dt * (C @ (Fm[:h] * Fd[h:] + Fd[:h] * Fm[h:])))
            F = F + Fd
            u_new = u_new + d
            deltas.append(float(np.linalg.norm(d)))
            q = deltas[-1] / deltas[-2]
            assert q < 1, "oracle Picard map does not contract"
            if q * deltas[-1] <= (1 - q) * 1e-12 * np.linalg.norm(u_new):
                break
        else:
            raise AssertionError("oracle Picard iteration did not converge")
    eta, omega = u_new[ie].copy(), u_new[io].copy()
    t_new = state[0] + cfg.dt
    hist.extend(t_new, bl.trace_eta_xx_L(eta, grid))
    return t_new, eta, omega


def _oracle_setup(nonlinear, n, amp):
    """Criterion 12's system with the nonlinear coefficients, under a
    sinusoidal delay law with a nonzero history (so the delayed source is
    live), and smooth data of amplitude `amp`: (p, dly, g, ops, cfg, state)."""
    p = bl.SystemParams(**ACC, alpha_p=0.5, beta_p=0.5, rho_nl=0.5)
    dly = bl.DelaySpec(form="sinusoidal", tau0=0.5, amplitude=0.1, frequency=2.0,
                       phase=-np.pi / 2, M=0.7, d=0.2,
                       history=amp * np.cos(np.linspace(-3.0, 0.0, 33)))
    g = bl.Grid(n=n, L=p.L)
    ops = bl.build_operators(p, g)
    dt = 4e-3 if nonlinear else 1e-3
    cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt), nonlinear=nonlinear)
    x = g.nodes
    state = bl.initial_state(p, dly, g, amp * x ** 3 * (1 - x) ** 2 * (1 + 0.3 * x),
                             amp * x ** 2 * (1 - x) ** 2)
    return p, dly, g, ops, cfg, state


def _oracle_stepper(ops, cfg, p, dly, forced):
    """The Stepper of an oracle case, when `forced` forced on every row by
    1 / (1 + t) times a fixed column."""
    n = ops.grid.n
    forcing = (np.cos(np.arange(2 * n)), lambda t: 1.0 / (1.0 + t)) if forced else None
    return Stepper(ops, cfg, p, dly, forcing=forcing)


# the nonlinear cases: small data, where every step stops at its second
# iterate, and amplitude 1, where q reaches about 0.05 and steps take more
_ORACLE_CASES = pytest.mark.parametrize("nonlinear, n, steps, amp, forced", [
    pytest.param(False, 64, 50, 1.0, False, id="False-64-50"),
    pytest.param(False, 64, 50, 1.0, True, id="False-64-50-forced"),
    pytest.param(True, 50, 20, 1e-3, False, id="True-50-20"),
    pytest.param(True, 50, 20, 1.0, False, id="True-50-20-amp1")])


@_ORACLE_CASES
def test_step_matches_interleave_oracle(nonlinear, n, steps, amp, forced):
    p, dly, g, ops, cfg, state = _oracle_setup(nonlinear, n, amp)
    stepper = _oracle_stepper(ops, cfg, p, dly, forced)
    oracle = (state.t, state.eta.copy(), state.omega.copy())
    hist = bl.HistoryLine(np.array(state.history._t), np.array(state.history._v))
    A = sp.csr_matrix(dense_from_band(*ops.A_band))
    lu = BandedLU(*band_storage(sp.identity(2 * n, format="csr") - cfg.theta * cfg.dt * A))
    for _ in range(steps):
        state = stepper.step(state)
        oracle = _oracle_step(stepper, p, lu, oracle, hist, g)
        assert state.t == oracle[0]
        assert np.array_equal(state.eta, oracle[1])
        assert np.array_equal(state.omega, oracle[2])
    # the stepper's line drops the past it no longer reads: its samples are
    # the oracle's newest
    n_kept = state.history.size
    assert np.array_equal(state.history._t, hist._t[-n_kept:])
    assert np.array_equal(state.history._v, hist._v[-n_kept:])


@_ORACLE_CASES
def test_folded_step_matches_the_matvec_form(nonlinear, n, steps, amp, forced):
    # N^-1 M2 = (N^-1 - (1 - theta) I) / theta with N = I - theta dt A and
    # M2 = I + (1 - theta) dt A: the stepper's one solve per step stays
    # within roundoff of the unfolded N^-1 (M2 u + dt b) (6e-12 to 8e-12 of
    # max |u| on these cases), each stepping its own history
    p, dly, g, ops, cfg, state = _oracle_setup(nonlinear, n, amp)
    stepper = _oracle_stepper(ops, cfg, p, dly, forced)
    oracle = (state.t, state.eta.copy(), state.omega.copy())
    hist = bl.HistoryLine(np.array(state.history._t), np.array(state.history._v))
    I, A = sp.identity(2 * n, format="csr"), sp.csr_matrix(dense_from_band(*ops.A_band))
    lu = BandedLU(*band_storage(I - cfg.theta * cfg.dt * A))
    M2 = I + (1.0 - cfg.theta) * cfg.dt * A
    for _ in range(steps):
        state = stepper.step(state)
        oracle = _oracle_step(stepper, p, lu, oracle, hist, g, M2)
        assert state.t == oracle[0]
        bound = 1e-10 * np.abs(state.u).max()
        assert np.abs(state.eta - oracle[1]).max() <= bound
        assert np.abs(state.omega - oracle[2]).max() <= bound


def test_forced_blocks_match_steps_one_at_a_time():
    # a run's forcing rows come from one law call over its times: 300 steps
    # in blocks of long runs give the bits of 300 single steps (the forced
    # oracle case checks the single steps)
    p, dly, g, ops, cfg, state = _oracle_setup(False, 50, 1.0)
    stepper = _oracle_stepper(ops, cfg, p, dly, forced=True)
    one = SimState._from_u(state.t, state.u.copy(), state.history.copy())
    for _ in range(300):
        one = stepper.step(one)
    many = stepper.advance(state, 300)
    assert many.t == one.t and np.array_equal(many.u, one.u)


def _iterates_per_step(monkeypatch):
    """Record, per step of any Stepper, its Picard iterates u_0 (the state),
    u_1, ... and increments d_0 = u_1 - u_0, d_1, ...: the first solve x
    gives u_1 = (x - (1 - theta) u_0) / theta, each later one the
    increment, and the iterates are running sums."""
    steps, real, real_solve = [], Stepper._solve_step, BandedLU.solve
    theta = []

    def solve(self, rhs):
        out = real_solve(self, rhs)
        us, ds = steps[-1]
        if len(us) == 1:
            us.append((out - (1.0 - theta[-1]) * us[0]) / theta[-1])
            ds.append(us[1] - us[0])
        else:
            ds.append(out.copy())
            us.append(us[-1] + out)
        return out

    def step(self, u, *args):
        steps.append(([u.copy()], []))
        theta.append(self.cfg.theta)
        return real(self, u, *args)

    monkeypatch.setattr(BandedLU, "solve", solve)
    monkeypatch.setattr(Stepper, "_solve_step", step)
    return steps


def _contraction(ds):
    """q_k = |d_k| / |d_{k-1}|, k >= 1, of one step's increments."""
    d = [np.linalg.norm(dk) for dk in ds]
    return np.divide(d[1:], d[:-1])


@pytest.mark.parametrize("n, amp, least", [
    (50, 1e-3, 2), (50, 1.0, 4), (203, 1.0, 4), (403, 1.0, 4)])
def test_picard_stops_at_the_first_iterate_banach_accepts(monkeypatch, n, amp, least):
    # every step takes at least two solves (q needs two increments), and
    # stops at the first u_{k+1}, k >= 1, that Banach's bound
    # q/(1-q) |d_k| <= 1e-12 |u_{k+1}| certifies, q < 1 throughout.  At
    # amplitude 1 (q up to about 0.05) every step takes at least `least`
    p, dly, g, ops, cfg, state = _oracle_setup(True, n, amp)
    steps = _iterates_per_step(monkeypatch)
    rep = bl.run(state, 0.2, cfg, p, dly, ops)
    assert rep.termination == "completed" and rep.n_rows == 51
    for us, ds in steps:
        q = _contraction(ds)
        ok = [q_k * np.linalg.norm(d_k) <= (1 - q_k) * 1e-12 * np.linalg.norm(u_k)
              for q_k, d_k, u_k in zip(q, ds[1:], us[2:])]
        assert np.all(q < 1) and ok[-1] and not any(ok[:-1])
    assert min(len(us) - 1 for us, _ in steps) >= least


def test_picard_contraction_does_not_grow_with_n(caplog):
    # the increments' roundoff scales with the increments, so the largest q
    # of the amplitude-1 system is the map's own (about 0.054) on every
    # grid, and each run completes on Banach's bound alone
    qs = []
    for n in (203, 403, 801):
        p, dly, g, ops, cfg, state = _oracle_setup(True, n, 1.0)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
            rep = bl.run(state, 0.2, cfg, p, dly, ops)
        assert rep.termination == "completed" and rep.n_rows == 51, n
        qs += [float(m.group(1)) for r in caplog.records
               if (m := re.match(r"nonlinear run: .* largest q (\S+)$", r.getMessage()))]
    assert len(qs) == 3 and 0.0 < min(qs) and max(qs) <= 1.1 * min(qs) < 1.0, qs


def _count_rhs_and_solves(monkeypatch):
    """Count `Stepper._nonlinear_rhs` calls (N(u) and its increments) and
    `BandedLU.solve` calls."""
    counts = {"rhs": 0, "solve": 0}
    real_rhs, real_solve = Stepper._nonlinear_rhs, BandedLU.solve

    def rhs(self, *fields):
        counts["rhs"] += 1
        return real_rhs(self, *fields)

    def solve(self, b):
        counts["solve"] += 1
        return real_solve(self, b)

    monkeypatch.setattr(Stepper, "_nonlinear_rhs", rhs)
    monkeypatch.setattr(BandedLU, "solve", solve)
    return counts


@pytest.mark.parametrize("nonlinear, theta", [
    (True, None), (True, 1.0), (False, None)])
def test_one_right_hand_side_per_solve(monkeypatch, nonlinear, theta):
    # N(u_0) serves both the explicit (1 - theta) term and the first
    # iterate, and each later solve takes one increment of N, so a nonlinear
    # run evaluates one right-hand side per banded solve (at least two per
    # step), and a linear run none
    p, dly, g, ops, cfg, state = _oracle_setup(nonlinear, 50, 1.0)
    if theta is not None:
        cfg = bl.StepConfig(dt=cfg.dt, theta=theta, nonlinear=nonlinear)
    counts = _count_rhs_and_solves(monkeypatch)
    rep = bl.run(state, 0.2, cfg, p, dly, ops)
    steps = rep.n_rows - 1
    assert rep.termination == "completed" and steps == round(0.2 / cfg.dt)
    if nonlinear:
        assert counts["rhs"] == counts["solve"] >= 2 * steps
    else:
        assert counts["rhs"] == 0 and counts["solve"] == steps


def test_nonlinear_run_logs_its_picard_counts(monkeypatch, caplog):
    # the DEBUG line at the end of a nonlinear run reports the steps, the
    # solves (one right-hand side each) and the largest q = |d_k| / |d_{k-1}|
    p, dly, g, ops, cfg, state = _oracle_setup(True, 50, 1.0)
    counts = _count_rhs_and_solves(monkeypatch)
    steps = _iterates_per_step(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
        rep = bl.run(state, 0.2, cfg, p, dly, ops)
    q_max = max(_contraction(ds).max() for _, ds in steps)
    lines = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG and r.getMessage().startswith("nonlinear run")]
    assert lines == [f"nonlinear run: {rep.n_rows - 1} steps, {counts['solve']} solves, "
                     f"largest q {q_max:.3g}"]
    assert counts["rhs"] == counts["solve"]
    assert 0.0 < q_max < 1.0
    # a linear run logs no such line
    caplog.clear()
    p, dly, g, ops, cfg, state = _oracle_setup(False, 50, 1.0)
    with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
        bl.run(state, 0.01, cfg, p, dly, ops)
    assert "nonlinear run" not in caplog.text


def test_picard_without_contraction_ends_the_run(monkeypatch, caplog):
    # amplitude 100 leaves the small-data regime: the second iterate moves
    # further than the first (q >= 1), so the run stops after two solves,
    # before any overflow, with the cause named
    p, dly, g, ops, cfg, state = _oracle_setup(True, 50, 100.0)
    real, calls = BandedLU.solve, [0]

    def counting(self, rhs):
        calls[0] += 1
        return real(self, rhs)

    monkeypatch.setattr(BandedLU, "solve", counting)
    caplog.set_level(logging.INFO, logger="bousslab.stepping")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bl.run(state, 0.08, cfg, p, dly, ops)
    assert rep.termination == "nonlinear_divergence"
    assert rep.n_rows == 1 and calls[0] == 2
    assert ("run stopped at step 1 (t = 0): nonlinear_divergence: "
            "Picard map does not contract: q = 2.2\n") in caplog.text


def test_picard_cap_ends_the_run(monkeypatch, caplog):
    # with a zero tolerance Banach's bound never holds: the increments keep
    # shrinking by q (their roundoff shrinks with them), so the first step
    # makes its 30 solves and the run ends with the cap named
    p, dly, g, ops, cfg, state = _oracle_setup(True, 50, 1e-3)
    monkeypatch.setattr(bl.stepping, "_PICARD_TOL", 0.0)
    steps = _iterates_per_step(monkeypatch)
    caplog.set_level(logging.INFO, logger="bousslab.stepping")
    rep = bl.run(state, 0.08, cfg, p, dly, ops)
    assert rep.termination == "nonlinear_divergence" and rep.n_rows == 1
    assert len(steps) == 1 and len(steps[0][1]) == 30
    assert np.all(_contraction(steps[0][1]) < 1)
    assert "did not reach tol=0.0 within 30 iterations" in caplog.text


def test_energy_blowup_ends_the_run_unstable():
    # alpha < 0 pumps energy in at x = L: the run stops at the first row
    # whose energy passes 1e6 E0, and keeps it
    p = bl.SystemParams(**{**ACC, "alpha": -0.05, "beta": 0.0})
    dly = bl.DelaySpec(**ACC_DELAY)
    g = bl.Grid(n=64, L=p.L)
    state = bl.initial_state(p, dly, g, bl.initial_profile("cubic 1.0", g.nodes, p.L),
                             bl.initial_profile("quartic 1.0", g.nodes, p.L))
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(state, 20.0, cfg, p, dly, bl.build_operators(p, g))
    assert rep.termination == "unstable" and rep.n_rows == 525
    assert rep.E[-1] > 1e6 * rep.E[0] >= rep.E[-2]


def test_non_finite_picard_iterate_ends_the_run(monkeypatch, caplog):
    # the second solve of the first step returns NaN: the run stops with
    # the cause named, before any row past the first
    p, dly, g, ops, cfg, state = _oracle_setup(True, 50, 1e-3)
    real, calls = BandedLU.solve, [0]

    def solve(self, rhs):
        calls[0] += 1
        return real(self, rhs) * (np.nan if calls[0] > 1 else 1.0)

    monkeypatch.setattr(BandedLU, "solve", solve)
    caplog.set_level(logging.INFO, logger="bousslab.stepping")
    rep = bl.run(state, 0.08, cfg, p, dly, ops)
    assert rep.termination == "nonlinear_divergence" and rep.n_rows == 1
    assert calls[0] == 2 and "nonlinear iterate is not finite" in caplog.text


def _entries(p, dly, ops, cfg):
    """run, Stepper.advance and Stepper.step, each taking a state."""
    stepper = Stepper(ops, cfg, p, dly)
    return {"run": lambda s: bl.run(s, 0.01, cfg, p, dly, ops),
            "advance": lambda s: stepper.advance(s, 5),
            "step": stepper.step}


def _bits(s):
    """The state's and its history line's bytes, and the line's size."""
    return s.u.tobytes(), s.history._buf.tobytes(), s.history.size


@pytest.mark.parametrize("bad, entry", [
    pytest.param(bad, entry, id=name if entry == "run" else f"{name}-{entry}")
    for name, bad in (("nan", np.nan), ("inf", np.inf))
    for entry in ("run", "advance", "step")])
def test_run_refuses_a_non_finite_state(bad, entry):
    p, dly, g, ops = _setup(n=16)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    s = _random_state(g, dly, np.random.default_rng(14), scale=0.01)
    eta = s.eta.copy()
    eta[3] = bad
    s = SimState(t=0.0, eta=eta, omega=s.omega, history=s.history)
    kept = _bits(s)
    with pytest.raises(ConfigurationError, match="non-finite"):
        _entries(p, dly, ops, cfg)[entry](s)
    assert s.history.t_last == 0.0   # no step was taken
    assert _bits(s) == kept


@pytest.mark.parametrize("entry", ["run", "advance", "step", "energy_sample"])
def test_a_state_of_another_grid_size_is_refused(entry):
    p, dly, g, ops = _setup(n=32)
    cfg = bl.StepConfig(dt=0.01, theta=bl.suggested_theta(0.01))
    line = bl.HistoryLine([-dly.tau0, 0.0], [0.0, 0.0])
    s = SimState(0.0, np.zeros(10), np.zeros(10), line)
    kept = _bits(s)
    entries = {**_entries(p, dly, ops, cfg),
               "energy_sample": lambda s: energy_sample(s, p, dly, g)}
    message = "state shape (20,) != (64,), (eta, omega) on n = 32"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        entries[entry](s)
    assert _bits(s) == kept


@pytest.mark.parametrize("eta, omega", [
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros(32), np.zeros((1, 32))),
    (np.zeros((1, 32)), np.zeros((1, 32))),
], ids=["2-D", "1-D and 2-D", "one row"])
def test_fields_that_are_not_1d_are_refused(eta, omega):
    p, dly, g, ops = _setup(n=32)
    line = bl.HistoryLine([-dly.tau0, 0.0], [0.0, 0.0])
    shapes = re.escape(f"shapes {eta.shape} and {omega.shape}")
    with pytest.raises(ConfigurationError, match=shapes):
        SimState(0.0, eta, omega, line)
    with pytest.raises(ConfigurationError, match=shapes):
        bl.initial_state(p, dly, g, eta, omega)


def test_slow_mode_state_decays_at_its_rate():
    p, dly, g, ops = _setup(n=100)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert lam.real < 0
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(state, 2.0, cfg, p, dly, ops)
    lam_obs, r2 = bl.fit_decay(rep.t, rep.E)
    assert abs(lam_obs - (-2 * lam.real)) < 0.05 * abs(2 * lam.real)


# a relative error of 1e-6 on every complex solve keeps every Newton step
# above eps ||A||_1 (3.7e-9 at n = 32), so Newton runs to its cap of 12
# factorizations and fails the floor; a NaN solve makes the first step NaN,
# which must stop Newton and fail the floor too
@pytest.mark.parametrize("noise, newton_lus", [
    pytest.param(1e-6, 12, id="noisy"),
    pytest.param(np.nan, 1, id="nan")])
def test_slow_mode_state_newton_stall_above_the_floor_raises(monkeypatch, noise, newton_lus):
    p, dly, g, ops = _setup(n=32)
    real, rng, factors = BandedLU.solve, np.random.default_rng(5), []
    real_init = BandedLU.__init__

    def counting_init(self, *band):
        real_init(self, *band)
        factors.append(np.iscomplexobj(self._lu))

    def noisy_solve(self, rhs):
        x = real(self, rhs)
        if np.iscomplexobj(x):
            x = x * (1 + noise * rng.standard_normal(x.shape))
        return x

    monkeypatch.setattr(BandedLU, "__init__", counting_init)
    monkeypatch.setattr(BandedLU, "solve", noisy_solve)
    with pytest.raises(NumericalError, match=r"stalled after \d+ factorizations.*"
                       r"step \S+ above the floor eps \|\|A\|\|_1 = \S+"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)
    # the Newton LUs of lambda I - A are the only factorizations
    assert all(factors) and len(factors) == newton_lus


def _slow_mode_bits(ops, p, dly, caplog):
    """slow_mode_state's lambda, state, history and DEBUG lines, as bits."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
        state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    arrays = (np.array([lam.real, lam.imag]), state.u, state.history._t, state.history._v)
    return [a.view(np.uint64).tolist() for a in arrays], [r.getMessage() for r in caplog.records]


def test_slow_mode_state_shares_one_coarse_spectrum(caplog):
    # the levels of a ladder share the n = 24 start spectrum: a warm cache
    # gives the cold one's bits; another alpha is another system and misses
    p, dly, _, ops = _setup(n=50)
    _coarse_spectrum.cache_clear()
    cold = _slow_mode_bits(ops, p, dly, caplog)
    assert _coarse_spectrum.cache_info()[:2] == (0, 1)   # (hits, misses)
    assert cold == _slow_mode_bits(ops, p, dly, caplog)
    fine = bl.build_operators(p, bl.Grid(n=101, L=p.L))
    bl.slow_mode_state(fine, p, dly, dt=1e-3)
    assert _coarse_spectrum.cache_info()[:2] == (2, 1)
    other = bl.SystemParams(**{**ACC, "beta": 5e-4, "alpha": 0.06})
    bl.slow_mode_state(bl.build_operators(other, bl.Grid(n=50, L=p.L)), other, dly, dt=1e-3)
    assert _coarse_spectrum.cache_info()[:2] == (2, 2)
    ev = _coarse_spectrum(p.a, p.a1, p.L, p.alpha, 24)
    with pytest.raises(ValueError, match="read-only"):
        ev[0] = 0.0


@pytest.mark.parametrize("failure", [
    np.linalg.LinAlgError("Eigenvalues did not converge"),
    np.linalg.LinAlgError("Array must not contain infs or NaNs"),
])
def test_slow_mode_state_eigensolver_failure_is_typed(monkeypatch, failure):
    p, dly, g, ops = _setup(n=32)

    def failing_eigvals(a):
        raise failure

    _coarse_spectrum.cache_clear()   # an earlier test's spectrum would not call eigvals
    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    with pytest.raises(NumericalError, match="eigensolve"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)


def _dense_slow_mode(ops, p, dly, dt, resolve_limit=0.7):
    """The dense-eigensolve slow mode, kept as the reference: candidates from
    a full eig of A, then the fixed point on full eigs of A + e^{-lambda tau0} B
    with the rank-one delay matrix B = -beta g t^T built densely here."""
    A = dense_from_band(*ops.A_band)
    g, t = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    g[0::2], t[0::2] = ops.omega_s_influence, ops.trace_row
    B = -p.beta * np.outer(g, t)
    ev, _ = np.linalg.eig(A)
    ok = (np.abs(ev) * dt <= resolve_limit) & (ev.real < 0)
    osc = ok & (np.abs(ev.imag) > 1e-9)
    cand = np.where(osc)[0]
    if cand.size == 0:
        cand = np.where(ok)[0]
    if cand.size == 0:
        raise ConfigurationError("no time-resolved decaying mode")
    lam = ev[cand[np.argmin(np.abs(ev[cand].real))]]
    for _ in range(12):
        K = A + np.exp(-lam * dly.tau0) * B
        evk, Vk = np.linalg.eig(K)
        i0 = int(np.argmin(np.abs(evk - lam)))
        lam_step = abs(evk[i0] - lam)
        lam, v = evk[i0], Vk[:, i0]
        if lam_step <= np.finfo(float).eps * np.linalg.norm(K, 1):
            break
    else:
        raise NumericalError("dense fixed point did not settle")
    v = v / np.max(np.abs(v))
    return complex(lam.real, abs(lam.imag)), np.real(v[0::2]), np.real(v[1::2])


_TOY = dict(a=0.05, a1=0.002, L=2.0, alpha=0.1, beta=1e-3)


@pytest.mark.parametrize("system, n", [
    *((ACC, n) for n in (8, 16, 48, 100)),
    *(({**ACC, "beta": 0.0}, n) for n in (8, 16, 48, 100)),
    # the whole spectrum lies in the resolved disk: the dense case
    (_TOY, 8),
    # a delay term near roundoff: the candidate from A's spectrum is already
    # next to the root, so Newton starts with steps near its noise
    ({**ACC, "beta": 1e-12}, 100),
])
def test_slow_mode_state_matches_dense_eigensolves(system, n):
    p = bl.SystemParams(**system)
    dly = bl.DelaySpec(**ACC_DELAY)
    ops = bl.build_operators(p, bl.Grid(n=n, L=p.L))
    lam_ref, eta_ref, omega_ref = _dense_slow_mode(ops, p, dly, dt=1e-3)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert abs(lam - lam_ref) <= 1e-9 * abs(lam_ref), (lam, lam_ref)
    assert np.max(np.abs(state.eta - eta_ref)) <= 1e-8 * np.max(np.abs(eta_ref))
    assert np.max(np.abs(state.omega - omega_ref)) <= 1e-8 * np.max(np.abs(omega_ref))


# admissible systems inside the length bound on which Newton's steps from the
# start do not halve at once (2.25, then 1.23 on the first): a stop at the
# first step that does not halve called this approach a stall
@pytest.mark.parametrize("system, delay", [
    (dict(a=0.05, a1=0.02, L=1.0, alpha=0.1, beta=1e-3),
     dict(tau0=0.5, M=2.0, d=0.0)),
    (dict(a=0.18171857145388032, a1=0.013740776548389243, L=0.9356944507445024,
          alpha=0.14560332536422532, beta=4.800572045911655e-4),
     dict(tau0=0.687203726395712, M=1.6548115843259172, d=0.0)),
])
def test_slow_mode_state_newton_approach_is_not_a_stall(system, delay):
    p, dly = bl.SystemParams(**system), bl.DelaySpec(**delay)
    ops = bl.build_operators(p, bl.Grid(n=100, L=p.L))
    _, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    # lambda is an eigenvalue of the dense K(lambda) = A + e^{-lambda tau0} B
    A = dense_from_band(*ops.A_band)
    g, t = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    g[0::2], t[0::2] = ops.omega_s_influence, ops.trace_row
    K = A - np.exp(-lam * dly.tau0) * p.beta * np.outer(g, t)
    assert np.min(np.abs(np.linalg.eigvals(K) - lam)) <= 1e-9 * abs(lam), lam


def test_slow_mode_state_unresolvable_dt_on_both_paths():
    p, dly, g, ops = _setup(n=16)
    with pytest.raises(ConfigurationError):
        _dense_slow_mode(ops, p, dly, dt=0.4)
    with pytest.raises(ConfigurationError):
        bl.slow_mode_state(ops, p, dly, dt=0.4)


@pytest.mark.parametrize("dt", [1e-7, 1e-9])
def test_slow_mode_state_overflow_ends_in_a_numerical_error(dt):
    # on the reference system at n = 200 such a dt resolves a candidate so
    # fast that exp(-lambda tau0) overflows: the NaN Newton step fails the
    # floor, without a numpy warning on the way
    p, dly, g, ops = _setup(n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="step nan above the floor"):
            bl.slow_mode_state(ops, p, dly, dt=dt)


@pytest.mark.parametrize("history, field", [(1e200, 0.0), (0.0, 1e200)],
                         ids=["history", "state"])
def test_a_run_from_overflowing_finite_data_warns_nothing(history, field):
    # finite data of 1e200 overflow dE/dt (from the history) or the first
    # monitor row (from the state): the run ends unstable without a numpy warning
    p, _, g, ops = _setup(n=24)
    dly = bl.DelaySpec(**ACC_DELAY, history=bl.constant_history(history))
    state = bl.initial_state(p, dly, g, np.full(g.n, field), np.full(g.n, field))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bl.run(state, 0.05, bl.StepConfig(dt=1e-3), p, dly, ops)
    assert rep.termination == "unstable"
    assert not np.all(np.isfinite(rep.dissipation_rhs))


def test_slow_mode_state_of_an_overflowing_amplitude_warns_nothing():
    # an amplitude of 1e308 overflows the mode's history: refused by the
    # line, without a numpy warning on the way
    p, dly, g, ops = _setup(n=24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="non-finite history sample"):
            bl.slow_mode_state(ops, p, dly, dt=1e-3, amplitude=1e308)


@pytest.mark.parametrize("amplitude", [np.inf, -np.inf, np.nan])
def test_slow_mode_state_rejects_non_finite_amplitude(amplitude):
    p, dly, g, ops = _setup(n=16)
    with pytest.raises(ConfigurationError, match="amplitude"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3, amplitude=amplitude)


@pytest.mark.parametrize("change", [dict(a=0.2), dict(a1=0.007), dict(L=1.5),
                                    dict(alpha=0.06)])
def test_operators_refuse_other_coefficients(change):
    p, dly, g, ops = _setup(n=16)
    other = bl.SystemParams(**{**ACC, **change})
    cfg = bl.StepConfig(dt=1e-3)
    with pytest.raises(ConfigurationError, match="operators built for"):
        Stepper(ops, cfg, other, dly)
    with pytest.raises(ConfigurationError, match="operators built for"):
        bl.slow_mode_state(ops, other, dly, dt=1e-3)
    state = bl.initial_state(p, dly, g, np.zeros(g.n), np.zeros(g.n))
    with pytest.raises(ConfigurationError, match="operators built for"):
        bl.run(state, 0.01, cfg, other, dly, ops)


def test_build_operators_refuses_a_grid_of_another_length():
    p = bl.SystemParams(**ACC)
    with pytest.raises(ConfigurationError, match="grid length"):
        bl.build_operators(p, bl.Grid(n=20, L=2.0))


def test_operators_serve_other_beta_and_nonlinear_coefficients():
    # A holds neither beta nor the nonlinear coefficients: ops built for one
    # beta step another exactly as ops built for it
    p, dly, g, ops = _setup(n=16, beta=5e-4)
    other = bl.SystemParams(**{**ACC, "beta": 1e-3}, alpha_p=0.5, beta_p=0.5, rho_nl=0.5)
    own = bl.build_operators(other, g)
    state, _ = bl.slow_mode_state(ops, other, dly, dt=1e-3, amplitude=1e-3)
    cfg = bl.StepConfig(dt=1e-3, nonlinear=True)
    reports = [bl.run(state, 0.02, cfg, other, dly, o, store_fields=True) for o in (ops, own)]
    assert reports[0].termination == "completed"
    assert np.array_equal(reports[0].fields_eta, reports[1].fields_eta)
    assert np.array_equal(reports[0].E, reports[1].E)


def test_slow_mode_state_deterministic_and_normalized():
    p, dly, g, ops = _setup(n=100)
    amp = 0.37
    (s1, lam1), (s2, lam2) = (bl.slow_mode_state(ops, p, dly, dt=1e-3, amplitude=amp)
                              for _ in range(2))
    assert lam1 == lam2
    assert np.array_equal(s1.eta, s2.eta) and np.array_equal(s1.omega, s2.omega)
    assert np.array_equal(s1.history._v, s2.history._v)
    # the history meets the state: its t = 0 sample is eta's trace
    assert s1.history.query(0.0) == bl.trace_eta_xx_L(s1.eta, g)
    assert lam1.imag > 0
    peak = max(np.max(np.abs(s1.eta)), np.max(np.abs(s1.omega)))
    assert abs(peak - amp) <= 1e-15 * amp


def test_slow_mode_state_logs_at_debug(caplog, capsys):
    p, dly, g, ops = _setup(n=32)
    with caplog.at_level(logging.DEBUG, logger="bousslab"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)
    text = "\n".join(r.getMessage() for r in caplog.records
                     if r.name == "bousslab.stepping" and r.levelno == logging.DEBUG)
    assert re.search(r"Newton starts at \(\S+j\), from \d+ candidates on the n=24 grid", text)
    m = re.search(r"Newton took (\d+) factorizations, attained accuracy (\S+), "
                  r"floor (\S+)", text)
    factors, accuracy, floor = int(m[1]), float(m[2]), float(m[3])
    assert 2 <= factors <= 12 and 0 <= accuracy <= floor
    assert capsys.readouterr() == ("", "")


def test_interrupted_manufactured_solution_run_raises(monkeypatch):
    # a run that stops early is not scored: the quartic pair's 500 steps fail
    # at step 101 and the error reaches the caller
    from bousslab.mms import mms_error
    failing_solve(monkeypatch, 100)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=0.0)
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    with pytest.raises(NumericalError):
        mms_error(p, dly, 64, 1e-3, 0.5, family="quartic")


@pytest.mark.parametrize("T, dt, match", [
    (0.5, 5e-324, r"step count T / dt is not finite: T = 0.5, dt = 5e-324"),
    (np.inf, 1e-3, r"horizon T must be finite and nonnegative, got inf"),
    (-0.5, 1e-3, r"horizon T must be finite and nonnegative, got -0.5"),
], ids=["tiny-dt", "infinite-T", "negative-T"])
def test_manufactured_solution_step_count_is_runs(monkeypatch, T, dt, match):
    # mms_error counts its steps by run's rule: a step so small that T / dt
    # overflows, or a bad T, is refused naming them before any solve
    from bousslab.mms import mms_error
    failing_solve(monkeypatch, 0)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=0.0)
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    with pytest.raises(ConfigurationError, match=match):
        mms_error(p, dly, 16, dt, T)
