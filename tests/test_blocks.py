"""`run` in blocks against the run one step at a time.

The oracle is the step-by-step loop `run` had before it advanced in blocks:
`Stepper.step` and one monitor row (`energy_sample`) per step, with the same
early stops.  Both read the same history line, so t, the traces, the stored
fields and dissipation_rhs agree bit for bit; E, V and V2 sum each
window's delay integrals alone, as one step at a time does, so they agree
to 1e-14 relative (bit for bit with numpy 2.4's reductions), and V1 its
dot product to 1e-14 E.
"""

import logging

import numpy as np
import pytest

import bousslab as bl
from bousslab.energy import energy_sample
from bousslab.errors import (ConfigurationError, HistoryUnderrunError,
                             NonlinearDivergenceError, NumericalError)
from bousslab.operators import BandedLU
from bousslab.report import CSV_COLUMNS
from bousslab.stepping import SimState, Stepper

from conftest import ACC, failing_solve

LAWS = {
    "constant": dict(tau0=0.5, M=2.0, d=0.0),
    "affine": dict(form="affine", tau0=0.5, rate=0.3, M=0.7, d=0.3),
    "sinusoidal": dict(form="sinusoidal", tau0=0.5, amplitude=0.1, frequency=2.0,
                       phase=-np.pi / 2, M=0.7, d=0.2),
}
STOPS = {NonlinearDivergenceError: "nonlinear_divergence",
         HistoryUnderrunError: "history_underrun", NumericalError: "numerical_error"}


def _step_by_step(s0, T, cfg, p, dly, ops, mu1=0.0, mu2=0.0):
    """(rows, states, dissipation_rhs, termination) of the run one step at a
    time: rows in CSV_COLUMNS order, one column per row."""
    history = s0.history.copy()
    history.replace_last(bl.trace_eta_xx_L(s0.eta, ops.grid))
    state = SimState._from_u(s0.t, s0.u, history)
    stepper = Stepper(ops, cfg, p, dly)
    rows, states = [energy_sample(state, p, dly, ops.grid, mu1, mu2)], [state.u]
    E0, termination = rows[0][1], "completed"
    for _ in range(int(np.floor(T / cfg.dt + 1e-9))):
        try:
            state = stepper.step(state)
            rows.append(energy_sample(state, p, dly, ops.grid, mu1, mu2))
        except tuple(STOPS) as exc:
            termination = STOPS[type(exc)]
            break
        states.append(state.u)
        E = rows[-1][1]
        if not np.isfinite(E) or (E0 > 0 and E > 1e6 * E0):
            termination = "unstable"
            break
    rows = np.array(rows).T
    q = rows[5:7]
    tau_dot = np.array([bl.tau_at(dly, t)[1] for t in rows[0]])
    rhs = (0.5 * np.sum(q * (bl.phi_matrix(p, dly) @ q), axis=0)
           + 0.5 * abs(p.beta) * (tau_dot - dly.d) * q[1] ** 2)
    return rows, np.array(states), rhs, termination


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_run_matches_oracle(s0, T, cfg, p, dly, ops, store_fields=False,
                               mu1=0.0, mu2=0.0, patch=None, runs=None):
    """Run in blocks and one step at a time (each after `patch()`, if
    given), compare, and return the report and the planned block lengths;
    the lengths of the runs of steps between history extends go into
    `runs`, if given."""
    lengths, real, extend = [], Stepper._block, bl.HistoryLine.extend

    def block(self, u, history, times, queries, after, out):
        lengths.append(len(out))
        return real(self, u, history, times, queries, after, out)

    def counted_extend(self, times, values):
        if runs is not None and len(times):
            runs.append(len(times))
        return extend(self, times, values)

    if patch:
        patch()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Stepper, "_block", block)
        mp.setattr(bl.HistoryLine, "extend", counted_extend)
        rep = bl.run(s0, T, cfg, p, dly, ops, mu1=mu1, mu2=mu2, store_fields=store_fields)
    if patch:
        patch()
    rows, states, rhs, termination = _step_by_step(s0, T, cfg, p, dly, ops, mu1, mu2)
    assert (rep.termination, rep.n_rows) == (termination, rows.shape[1])
    for k, name in enumerate(CSV_COLUMNS):
        got, want = getattr(rep, name), rows[k]
        if name in ("E", "V", "V2"):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
        elif name == "V1":
            assert np.all(np.abs(got - want) <= 1e-14 * rows[1]), name
        else:
            assert np.array_equal(_bits(got), _bits(want)), name
    assert np.array_equal(_bits(rep.dissipation_rhs), _bits(rhs))
    if store_fields:
        assert np.array_equal(_bits(rep.fields_eta), _bits(states[:, 0::2]))
        assert np.array_equal(_bits(rep.fields_omega), _bits(states[:, 1::2]))
    return rep, lengths


def _system(law, nonlinear, n=40, amp=1e-2):
    """(p, dly, ops, cfg, s0): the acceptance gains, with the nonlinear
    coefficients, under `law` with a nonzero history, so the delayed source
    is live, and smooth data of amplitude amp."""
    p = bl.SystemParams(**ACC, alpha_p=0.5, beta_p=0.5, rho_nl=0.5)
    dly = bl.DelaySpec(**LAWS[law], history=amp * np.cos(np.linspace(-3.0, 0.0, 33)))
    g = bl.Grid(n=n, L=p.L)
    dt = 2e-3 if nonlinear else 1e-3
    cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt), nonlinear=nonlinear)
    x = g.nodes
    s0 = bl.initial_state(p, dly, g, amp * x ** 3 * (1 - x) ** 2 * (1 + 0.3 * x),
                          amp * x ** 2 * (1 - x) ** 2)
    return p, dly, bl.build_operators(p, g), cfg, s0


@pytest.mark.parametrize("store_fields", [False, True])
@pytest.mark.parametrize("nonlinear", [False, True])
@pytest.mark.parametrize("law", list(LAWS))
def test_blocks_match_steps_one_at_a_time(law, nonlinear, store_fields):
    # 300 steps in blocks as long as the eviction slack allows, the first
    # rows' windows starting in the history's first interval, the last
    # block cut short by the horizon
    p, dly, ops, cfg, s0 = _system(law, nonlinear)
    cert = bl.build_certificate(bl.SystemParams(**ACC), dly)
    rep, lengths = _assert_run_matches_oracle(s0, 300 * cfg.dt, cfg, p, dly, ops,
                                              store_fields, cert.mu1, cert.mu2)
    assert rep.termination == "completed" and sum(lengths) == 300
    assert max(lengths) > 100 and 1 < lengths[-1] < max(lengths)


def test_two_sample_history_refreshes_its_head_on_the_first_push():
    # a line of two samples is refreshed whole by the third: the first
    # window, in its head interval, is monitored alone
    p, dly, ops, cfg, s0 = _system("constant", False)
    hist = bl.HistoryLine([-0.5, 0.0], [0.3, 0.0], M=dly.M)
    s0 = SimState(t=0.0, eta=s0.eta, omega=s0.omega, history=hist)
    rep, lengths = _assert_run_matches_oracle(s0, 0.05, cfg, p, dly, ops)
    assert rep.termination == "completed" and lengths == [1, 49]


@pytest.mark.parametrize("M", [1.5, 2000.0])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_delay_of_one_and_a_half_steps_takes_one_step_per_run(nonlinear, M):
    # tau0 = 1.5 dt: each delayed query lands in the interval that the next
    # push refines, so each run of steps between extends is one step; the
    # monitor windows still allow one block of all 60 rows, unless a line
    # bounded by M = 1.5 dt evicts the samples they start after
    p, dly, ops, cfg, s0 = _system("constant", nonlinear)
    dly = bl.DelaySpec(tau0=1.5 * cfg.dt, M=M * cfg.dt, history=np.cos(np.linspace(0, 1, 9)))
    s0 = bl.initial_state(p, dly, ops.grid, s0.eta, s0.omega)
    runs = []
    rep, lengths = _assert_run_matches_oracle(s0, 60 * cfg.dt, cfg, p, dly, ops, runs=runs)
    assert rep.termination == "completed" and runs == [1] * 60
    assert lengths == [60] if M > 2 else max(lengths) <= 2


def _dense_state(p, dly, ops, M=None, scale=1.0):
    """Slow-mode-like start: smooth data and a history sampled every 1e-3 on
    [-tau0, 0], so blocks are long from the first step."""
    x = ops.grid.nodes
    t = np.linspace(-dly.tau0, 0.0, round(dly.tau0 / 1e-3) + 1)
    hist = bl.HistoryLine(t, scale * np.cos(3 * t), M=dly.M if M is None else M)
    return SimState(t=0.0, eta=scale * x ** 3 * (1 - x) ** 2,
                    omega=scale * x ** 2 * (1 - x) ** 2, history=hist)


def test_underrun_by_eviction_ends_at_the_oracle_row():
    # a history line bounded by M = 0.5 keeps [t - 0.625, t], while the
    # delay tau = 0.5 + t / 2 grows: the monitor window's start is evicted
    # once t passes 0.25
    p, _, ops, cfg, _ = _system("constant", False)
    dly = bl.DelaySpec(form="affine", tau0=0.5, rate=0.5, M=2.0, d=0.5)
    s0 = _dense_state(p, dly, ops, M=0.5)
    rep, lengths = _assert_run_matches_oracle(s0, 0.5, cfg, p, dly, ops)
    assert rep.termination == "history_underrun" and 200 < rep.n_rows < 300
    assert max(lengths) > 100 and lengths[-1] == 1


def test_numerical_error_inside_a_block_ends_at_the_oracle_row(monkeypatch):
    # the 151st banded solve fails, in a block of 256 steps
    p, dly, ops, cfg, _ = _system("constant", False)
    s0 = _dense_state(p, dly, ops)
    rep, lengths = _assert_run_matches_oracle(
        s0, 0.4, cfg, p, dly, ops,
        patch=lambda: (monkeypatch.undo(), failing_solve(monkeypatch, 150)))
    assert rep.termination == "numerical_error" and rep.n_rows == 151 and lengths == [256]


def test_picard_divergence_inside_a_block_ends_at_the_oracle_row(monkeypatch):
    # the 301st banded solve returns NaN: the nonlinear iterate of that step
    # is not finite
    p, dly, ops, cfg, _ = _system("constant", True)
    s0 = _dense_state(p, dly, ops, scale=1e-2)
    real = BandedLU.solve

    def nan_solve():
        calls = [0]

        def solve(self, rhs):
            calls[0] += 1
            return real(self, rhs) * (np.nan if calls[0] == 301 else 1.0)

        monkeypatch.setattr(BandedLU, "solve", solve)

    rep, lengths = _assert_run_matches_oracle(s0, 0.8, cfg, p, dly, ops, patch=nan_solve)
    assert rep.termination == "nonlinear_divergence" and 50 < rep.n_rows < 150
    assert len(lengths) == 1 and lengths[0] > 200


@pytest.mark.parametrize("nonlinear", [False, True])
def test_fast_blow_up_inside_a_block_ends_at_the_oracle_row(nonlinear, monkeypatch, caplog):
    # alpha = -1 pumps energy in at x = L fast enough that the block's 256
    # steps overflow: the run still stops at the oracle's first row past
    # 1e6 E0, without a warning, and its DEBUG lines count the steps, solves
    # and contraction estimates of the rows it kept, not of the steps after
    # them (small data keep the nonlinear Picard map contracting until then)
    scale = 1e-8 if nonlinear else 1.0
    p = bl.SystemParams(**{**ACC, "alpha": -1.0, "beta": 0.0},
                        alpha_p=0.5, beta_p=0.5, rho_nl=0.5)
    dly = bl.DelaySpec(tau0=0.5, M=2.0)
    g = bl.Grid(n=64, L=p.L)
    ops = bl.build_operators(p, g)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3), nonlinear=nonlinear)
    s0 = _dense_state(p, dly, ops, scale=scale)
    s0 = SimState(t=0.0, eta=scale * bl.initial_profile("cubic 1.0", g.nodes, p.L),
                  omega=scale * bl.initial_profile("quartic 1.0", g.nodes, p.L),
                  history=s0.history)
    with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
        rep, lengths = _assert_run_matches_oracle(s0, 1.0, cfg, p, dly, ops)
    assert rep.termination == "unstable" and rep.n_rows < 10 and lengths == [256]
    steps = rep.n_rows - 1
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert f"run: {steps} steps in 1 blocks, shortest {steps}, mean length {steps}" in lines
    if nonlinear:
        # the oracle's solves: one right-hand side each
        solves, real = [0], BandedLU.solve

        def counted(self, rhs):
            solves[0] += 1
            return real(self, rhs)

        monkeypatch.setattr(BandedLU, "solve", counted)
        _step_by_step(s0, 1.0, cfg, p, dly, ops)
        line = next(x for x in lines if x.startswith("nonlinear run"))
        assert line.startswith(f"nonlinear run: {steps} steps, {solves[0]} solves, "
                               f"{solves[0]} right-hand sides, largest q ")
        assert float(line.rsplit(" ", 1)[1]) < 1
    else:
        # the block's 256 steps overflow
        history = s0.history.copy()
        with np.errstate(all="ignore"):
            end = Stepper(ops, cfg, p, dly).advance(SimState._from_u(0.0, s0.u, history), 256)
            assert not np.all(np.isfinite(end.u * end.u))


def test_run_refuses_a_history_that_starts_after_the_first_delayed_time():
    p, dly, ops, cfg, s0 = _system("constant", False)
    hist = bl.HistoryLine([-0.1, 0.0], [0.0, 0.0], M=dly.M)
    s = SimState(t=0.0, eta=s0.eta, omega=s0.omega, history=hist)
    with pytest.raises(ConfigurationError, match=r"starts at t=-0\.1, after the delayed "
                                                 r"time t - tau\(t\) = -0\.5"):
        bl.run(s, 0.01, cfg, p, dly, ops)
    assert hist.t_last == 0.0 and hist.size == 2   # no step was taken


def test_run_logs_its_blocks(monkeypatch, caplog):
    # slow-mode data (a dense history) under M = 2: blocks of 256 from the
    # first step, the last one cut by the horizon; after an early stop the
    # last block counts the steps it took
    p = bl.SystemParams(**ACC)
    dly = bl.DelaySpec(tau0=0.5, M=2.0)
    ops = bl.build_operators(p, bl.Grid(n=32, L=p.L))
    s0, _ = bl.slow_mode_state(ops, p, dly, dt=1e-3)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))

    def logged():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bousslab.stepping"):
            rep = bl.run(s0, 0.6, cfg, p, dly, ops)
        return rep, [r.getMessage() for r in caplog.records
                     if r.levelno == logging.DEBUG and r.getMessage().startswith("run:")]

    rep, lines = logged()
    assert rep.n_rows == 601
    assert lines == ["run: 600 steps in 3 blocks, shortest 88, mean length 200"]
    failing_solve(monkeypatch, 300)
    rep, lines = logged()
    assert rep.termination == "numerical_error" and rep.n_rows == 301
    assert lines == ["run: 300 steps in 2 blocks, shortest 44, mean length 150"]
