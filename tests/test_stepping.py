import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import bousslab as bl
from bousslab.errors import ConfigurationError, NumericalError
from bousslab.operators import BandedLU
from bousslab.stepping import SimState, Stepper, system_matrices

from conftest import ACC, ACC_DELAY, failing_solve


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


def test_history_underrun_keeps_partial_series():
    # the history keeps only M = 0.01 s of the past, too little for the
    # delay tau0 = 0.5: the monitor row after the first push underruns
    p, dly, g, ops = _setup(n=16)
    t_h = np.linspace(-dly.tau0, 0.0, 41)
    hist = bl.HistoryLine(t_h, np.zeros(41), M=0.01)
    s = SimState(t=0.0, eta=0.01 * np.sin(np.pi * g.nodes), omega=np.zeros(g.n),
                 history=hist)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(s, 0.01, cfg, p, dly, ops)
    assert rep.termination == "history_underrun"
    assert rep.n_rows == 1 and rep.t[0] == 0.0 and rep.E[0] > 0


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
    # a monitor row that fails leaves no stored state behind
    hist = bl.HistoryLine(np.linspace(-dly.tau0, 0.0, 41), np.zeros(41), M=0.01)
    eta0 = 0.01 * np.sin(np.pi * g.nodes)
    s = SimState(t=0.0, eta=eta0, omega=np.zeros(g.n), history=hist)
    rep = bl.run(s, 0.01, cfg, p, dly, ops, store_fields=True)
    assert rep.termination == "history_underrun" and rep.n_rows == 1
    assert rep.fields_eta.shape == rep.fields_omega.shape == (1, g.n)
    assert np.array_equal(rep.fields_eta[0], eta0)
    assert np.array_equal(rep.fields_omega[0], np.zeros(g.n))

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


def test_dt_must_resolve_delay():
    p, dly, g, ops = _setup()
    with pytest.raises(ConfigurationError):
        Stepper(ops, bl.StepConfig(dt=dly.tau0), p, dly)


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


def test_run_rejects_rho_res_below_one_whatever_beta():
    for beta in (0.0, 5e-4):
        p, dly, g, ops = _setup(n=16, beta=beta)
        cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
        s = _random_state(g, dly, np.random.default_rng(7), scale=0.01)
        with pytest.raises(ConfigurationError, match="m >= 1"):
            bl.run(s, 0.01, cfg, p, dly, ops, rho_res=0)
        assert s.history.t_last == 0.0   # no step was taken


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


def _oracle_step(stepper, lu, M2, state, hist, grid):
    """The step as it was before SimState held u: interleave both fields
    through index arrays, matvec, banded solve (Picard for the nonlinear
    terms, 30 iterations, tolerance 1e-12, stall rule), split into copies.
    Returns (t, eta, omega); pushes the new trace onto `hist`."""
    p, dly, cfg = stepper.p, stepper.dly, stepper.cfg
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
    base = M2 @ u + cfg.dt * b
    if not cfg.nonlinear:
        u_new = lu.solve(base)
    else:
        base = base + (1.0 - cfg.theta) * cfg.dt * stepper._nonlinear_rhs(u)
        u_new = u.copy()
        prev_delta = np.inf
        for _ in range(30):
            u_next = lu.solve(base + cfg.theta * cfg.dt * stepper._nonlinear_rhs(u_new))
            delta = np.linalg.norm(u_next - u_new)
            scale = np.linalg.norm(u_next) + 1e-300
            u_new = u_next
            if delta <= 1e-12 * scale or (delta >= 0.5 * prev_delta
                                          and delta <= 1e-9 * scale):
                break
            prev_delta = delta
        else:
            raise AssertionError("oracle Picard iteration did not converge")
    eta, omega = u_new[ie].copy(), u_new[io].copy()
    t_new = state[0] + cfg.dt
    hist.push(t_new, bl.trace_eta_xx_L(eta, grid))
    return t_new, eta, omega


@pytest.mark.parametrize("nonlinear, n, steps", [(False, 64, 50), (True, 50, 20)])
def test_step_matches_interleave_oracle(nonlinear, n, steps):
    # the nonlinear case: small smooth data; both under a sinusoidal delay
    # law with a nonzero history, so the delayed source is live
    amp = 1e-3 if nonlinear else 1.0
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
    oracle = (state.t, state.eta.copy(), state.omega.copy())
    hist = bl.HistoryLine(np.array(state.history._t), np.array(state.history._v), M=dly.M)
    stepper = Stepper(ops, cfg, p, dly)
    A, _ = system_matrices(ops, p)
    I = sp.identity(2 * n, format="csr")
    lu = BandedLU(I - cfg.theta * dt * A)
    M2 = I + (1.0 - cfg.theta) * dt * A
    for _ in range(steps):
        state = stepper.step(state)
        oracle = _oracle_step(stepper, lu, M2, oracle, hist, g)
        assert state.t == oracle[0]
        assert np.array_equal(state.eta, oracle[1])
        assert np.array_equal(state.omega, oracle[2])
    assert np.array_equal(state.history._v, hist._v)


def test_slow_mode_state_decays_at_its_rate():
    p, dly, g, ops = _setup(n=100)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert lam.real < 0
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(state, 2.0, cfg, p, dly, ops)
    lam_obs, r2 = bl.fit_decay(rep.t, rep.E)
    assert abs(lam_obs - (-2 * lam.real)) < 0.05 * abs(2 * lam.real)


def test_slow_mode_state_converges_or_raises(monkeypatch):
    p, dly, g, ops = _setup(n=32)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    real_eigs = spla.eigs
    calls = []

    def restless_eigs(M, k, **kw):
        # every eigensolve moves the spectrum by 1e-3: the fixed point never settles
        out = real_eigs(M, k, **kw)
        calls.append(k)
        shift = 1e-3 * (-1) ** len(calls)
        if isinstance(out, tuple):
            return out[0] + shift, out[1]
        return out + shift

    monkeypatch.setattr(spla, "eigs", restless_eigs)
    with pytest.raises(NumericalError, match="did not settle"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)
    assert calls.count(1) == 12   # 12 fixed-point solves after the candidate search


@pytest.mark.parametrize("failure", [
    ArpackNoConvergence("ARPACK did not converge", np.empty(0), np.empty((0, 0))),
    ArpackError(-9999),
    RuntimeError("Factor is exactly singular"),
])
def test_slow_mode_state_eigensolver_failure_is_typed(monkeypatch, failure):
    p, dly, g, ops = _setup(n=32)

    def failing_eigs(M, k, **kw):
        raise failure

    monkeypatch.setattr(spla, "eigs", failing_eigs)
    with pytest.raises(NumericalError, match="eigensolve"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)


def _dense_slow_mode(ops, p, dly, dt, resolve_limit=0.7):
    """The dense-eigensolve slow mode, kept as the reference: candidates from
    a full eig of A, then the fixed point on full eigs of A + e^{-lambda tau0} B."""
    A, B = (M.toarray() for M in system_matrices(ops, p))
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


def test_slow_mode_state_unresolvable_dt_on_both_paths():
    p, dly, g, ops = _setup(n=16)
    with pytest.raises(ConfigurationError):
        _dense_slow_mode(ops, p, dly, dt=0.4)
    with pytest.raises(ConfigurationError):
        bl.slow_mode_state(ops, p, dly, dt=0.4)


def test_slow_mode_state_deterministic_and_normalized():
    p, dly, g, ops = _setup(n=100)
    amp = 0.37
    (s1, lam1), (s2, lam2) = (bl.slow_mode_state(ops, p, dly, dt=1e-3, amplitude=amp)
                              for _ in range(2))
    assert lam1 == lam2
    assert np.array_equal(s1.eta, s2.eta) and np.array_equal(s1.omega, s2.omega)
    assert np.array_equal(s1.history._v, s2.history._v)
    assert lam1.imag > 0
    peak = max(np.max(np.abs(s1.eta)), np.max(np.abs(s1.omega)))
    assert abs(peak - amp) <= 1e-15 * amp


def test_slow_mode_state_logs_at_debug(caplog, capsys):
    p, dly, g, ops = _setup(n=32)
    with caplog.at_level(logging.DEBUG, logger="bousslab"):
        bl.slow_mode_state(ops, p, dly, dt=1e-3)
    text = "\n".join(r.getMessage() for r in caplog.records
                     if r.name == "bousslab.stepping" and r.levelno == logging.DEBUG)
    assert "candidate search ended at k=8" in text
    assert "fixed point took" in text and "last step" in text and "floor" in text
    assert capsys.readouterr() == ("", "")

