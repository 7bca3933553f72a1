"""`run` in blocks against the run one step at a time.

The oracle is the step-by-step loop `run` had before it advanced in blocks:
`Stepper.advance` by one step and one monitor row (`energy_sample`) per step,
with the same early stops.  Both step a copy of the start's history line as given, so
t, the traces, the stored fields and dissipation_rhs agree bit for bit; E,
V and V2 sum each window's delay integrals alone, as one step at a time
does, so they agree to 1e-14 relative (bit for bit with numpy 2.4's
reductions), and V1 its dot product to 1e-14 E.
"""

import logging

import numpy as np
import pytest

import bousslab as bl
from bousslab import stepping
from bousslab.energy import energy_rows, energy_sample
from bousslab.errors import ConfigurationError, NonlinearDivergenceError, NumericalError
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
STOPS = {NonlinearDivergenceError: "nonlinear_divergence", NumericalError: "numerical_error"}


def _step_by_step(s0, T, cfg, p, dly, ops, mu1=0.0, mu2=0.0):
    """(rows, states, dissipation_rhs, termination) of the run one step at a
    time: rows in CSV_COLUMNS order, one column per row."""
    state = s0
    stepper = Stepper(ops, cfg, p, dly)
    rows, states = [energy_sample(state, p, dly, ops.grid, mu1, mu2)], [state.u]
    E0, termination = rows[0][1], "completed"
    for _ in range(int(np.floor(T / cfg.dt + 1e-9))):
        try:
            state = stepper.advance(state, 1)
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


def _count_solves(monkeypatch):
    """A one-entry list that counts the `BandedLU.solve` calls from now on."""
    calls, real = [0], BandedLU.solve

    def solve(self, rhs):
        calls[0] += 1
        return real(self, rhs)

    monkeypatch.setattr(BandedLU, "solve", solve)
    return calls


def _nan_solve(monkeypatch, at):
    """Make the `at`-th `BandedLU.solve` call from now on return NaN."""
    calls, real = [0], BandedLU.solve

    def solve(self, rhs):
        calls[0] += 1
        return real(self, rhs) * (np.nan if calls[0] == at else 1.0)

    monkeypatch.setattr(BandedLU, "solve", solve)


def _assert_rows_match(rep, oracle, store_fields, n):
    """The first n rows of a report against the oracle's."""
    rows, states, rhs, _ = oracle
    for k, name in enumerate(CSV_COLUMNS):
        got, want = getattr(rep, name)[:n], rows[k, :n]
        if name in ("E", "V", "V2"):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
        elif name == "V1":
            assert np.all(np.abs(got - want) <= 1e-14 * rows[1, :n]), name
        else:
            assert np.array_equal(_bits(got), _bits(want)), name
    assert np.array_equal(_bits(rep.dissipation_rhs[:n]), _bits(rhs[:n]))
    if store_fields:
        assert np.array_equal(_bits(rep.fields_eta[:n]), _bits(states[:n, 0::2]))
        assert np.array_equal(_bits(rep.fields_omega[:n]), _bits(states[:n, 1::2]))


def _run_and_oracle(s0, T, cfg, p, dly, ops, store_fields=False,
                    mu1=0.0, mu2=0.0, patch=None, runs=None):
    """(report, planned block lengths, oracle) of the run in blocks and one
    step at a time (each after `patch()`, if given); the lengths of the
    runs of steps between history extends go into `runs`, if given."""
    lengths, real, extend = [], Stepper._block, bl.HistoryLine.extend

    def block(self, *args):
        lengths.append(len(args[4]))   # the block's output rows, `out`
        return real(self, *args)

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
    return rep, lengths, _step_by_step(s0, T, cfg, p, dly, ops, mu1, mu2)


def _assert_run_matches_oracle(s0, T, cfg, p, dly, ops, store_fields=False,
                               mu1=0.0, mu2=0.0, patch=None, runs=None):
    """Run in blocks and one step at a time, compare, and return the report
    and the planned block lengths (`_run_and_oracle`)."""
    rep, lengths, oracle = _run_and_oracle(s0, T, cfg, p, dly, ops, store_fields,
                                           mu1, mu2, patch, runs)
    assert (rep.termination, rep.n_rows) == (oracle[3], oracle[0].shape[1])
    _assert_rows_match(rep, oracle, store_fields, rep.n_rows)
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
    # 300 steps in a block of 256 and one of 44 cut short by the horizon,
    # the first rows' windows starting in the history's first interval
    p, dly, ops, cfg, s0 = _system(law, nonlinear)
    cert = bl.build_certificate(bl.SystemParams(**ACC), dly)
    rep, lengths = _assert_run_matches_oracle(s0, 300 * cfg.dt, cfg, p, dly, ops,
                                              store_fields, cert.mu1, cert.mu2)
    assert rep.termination == "completed" and sum(lengths) == 300
    assert max(lengths) > 100 and 1 < lengths[-1] < max(lengths)


def test_two_sample_history_keeps_its_secant_slopes():
    # a line of two samples keeps its own secant slopes once pushes reach
    # it: the first window, in its first interval, joins the one block, and
    # the first row reads the line's value at t = 0, not the trace of eta
    p, dly, ops, cfg, s0 = _system("constant", False)
    hist = bl.HistoryLine([-0.5, 0.0], [0.3, 0.0])
    s0 = SimState(t=0.0, eta=s0.eta, omega=s0.omega, history=hist)
    rep, lengths = _assert_run_matches_oracle(s0, 0.05, cfg, p, dly, ops)
    assert rep.termination == "completed" and lengths == [50]
    assert rep.trace_now[0] == 0.0 != bl.trace_eta_xx_L(s0.eta, ops.grid)
    secant = hist._m.copy()
    line = Stepper(ops, cfg, p, dly).advance(s0, 50).history
    assert np.array_equal(_bits(line._m[:2]), _bits(secant))
    assert np.array_equal(_bits(hist._m), _bits(secant)) and hist.size == 2
    assert secant[0] == secant[1] == (rep.trace_now[0] - 0.3) / 0.5


@pytest.mark.parametrize("law", [dict(tau0=0.5, M=0.5), dict(tau0=1.5e-3, M=1.5e-3),
                                 LAWS["sinusoidal"]], ids=["tau0=0.5", "tau0=1.5dt", "sinusoidal"])
def test_run_advance_and_energy_sample_agree_on_a_hand_built_state(law):
    # a hand-built history whose value at t = 0 is not the trace of eta is
    # initial data in its own right: `run` steps it as given, so its last
    # fields are `advance`'s and its first row `energy_sample`'s, bit for bit
    p, _, ops, cfg, s0 = _system("constant", False, n=16)
    dly = bl.DelaySpec(**law)
    t = np.linspace(-dly.tau0, 0.0, 33)
    s = SimState(t=0.0, eta=s0.eta, omega=s0.omega,
                 history=bl.HistoryLine(t, 1e-2 * np.cos(3 * t) + 5e-3))
    assert s.history.query(0.0) != bl.trace_eta_xx_L(s.eta, ops.grid)
    rep = bl.run(s, 600 * cfg.dt, cfg, p, dly, ops, mu1=0.3, mu2=0.5, store_fields=True)
    row = energy_sample(s, p, dly, ops.grid, mu1=0.3, mu2=0.5)
    end = Stepper(ops, cfg, p, dly).advance(s, 600)
    assert rep.termination == "completed" and rep.n_rows == 601
    assert np.array_equal(_bits(rep.fields_eta[-1]), _bits(end.eta))
    assert np.array_equal(_bits(rep.fields_omega[-1]), _bits(end.omega))
    assert np.array_equal(_bits([getattr(rep, name)[0] for name in CSV_COLUMNS]), _bits(row))


@pytest.mark.parametrize("M", [1.5, 2000.0])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_delay_of_one_and_a_half_steps_takes_one_step_per_run(nonlinear, M):
    # tau0 = 1.5 dt: each delayed query lands in the interval that ends at
    # the newest sample, so each run of steps between extends is one step;
    # the block holds all 60 rows, and the delay law's bound M, tight or
    # loose, changes nothing
    p, dly, ops, cfg, s0 = _system("constant", nonlinear)
    dly = bl.DelaySpec(tau0=1.5 * cfg.dt, M=M * cfg.dt, history=np.cos(np.linspace(0, 1, 9)))
    s0 = bl.initial_state(p, dly, ops.grid, s0.eta, s0.omega)
    runs = []
    rep, lengths = _assert_run_matches_oracle(s0, 60 * cfg.dt, cfg, p, dly, ops, runs=runs)
    assert rep.termination == "completed" and runs == [1] * 60 and lengths == [60]


@pytest.mark.parametrize("nonlinear", [False, True])
def test_delay_bound_of_three_steps_records_each_run_before_its_windows_go(nonlinear):
    # tau0 = M = 3 dt: runs of three steps in one block of 90, whose rows
    # one monitor pass records at its end: the block dropped the history
    # only before the earliest point it reads
    p, dly, ops, cfg, s0 = _system("constant", nonlinear)
    dly = bl.DelaySpec(tau0=3 * cfg.dt, M=3 * cfg.dt, history=np.cos(np.linspace(0, 1, 9)))
    s0 = bl.initial_state(p, dly, ops.grid, s0.eta, s0.omega)
    runs, recorded, real = [], [], energy_rows
    cert = bl.build_certificate(bl.SystemParams(**ACC), dly)

    def counted(U, *args, **kwargs):
        recorded.append(len(U))
        return real(U, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepping, "energy_rows", counted)
        rep, lengths = _assert_run_matches_oracle(s0, 90 * cfg.dt, cfg, p, dly, ops,
                                                  mu1=cert.mu1, mu2=cert.mu2, runs=runs)
    assert rep.termination == "completed" and lengths == [90]
    assert runs == [3] * 30 and recorded == [1, 90]


def _dense_state(p, dly, ops, scale=1.0):
    """Slow-mode-like start: smooth data and a history sampled every 1e-3 on
    [-tau0, 0], so blocks are long from the first step."""
    x = ops.grid.nodes
    t = np.linspace(-dly.tau0, 0.0, round(dly.tau0 / 1e-3) + 1)
    hist = bl.HistoryLine(t, scale * np.cos(3 * t))
    return SimState(t=0.0, eta=scale * x ** 3 * (1 - x) ** 2,
                    omega=scale * x ** 2 * (1 - x) ** 2, history=hist)


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
    rep, lengths = _assert_run_matches_oracle(
        s0, 0.8, cfg, p, dly, ops,
        patch=lambda: (monkeypatch.undo(), _nan_solve(monkeypatch, 301)))
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
        solves = _count_solves(monkeypatch)
        _step_by_step(s0, 1.0, cfg, p, dly, ops)
        line = next(x for x in lines if x.startswith("nonlinear run"))
        assert line.startswith(f"nonlinear run: {steps} steps, {solves[0]} solves, largest q ")
        assert float(line.rsplit(" ", 1)[1]) < 1
    else:
        # the block's 256 steps overflow
        with np.errstate(all="ignore"):
            end = Stepper(ops, cfg, p, dly).advance(s0, 256)
            assert not np.all(np.isfinite(end.u * end.u))


@pytest.mark.parametrize("law, max_tau", [
    (dict(tau0=0.5, M=0.5), 0.5), (dict(tau0=3e-3, M=3e-3), 3e-3),
    (LAWS["sinusoidal"], 0.7)], ids=["tau0=0.5", "tau0=M=3dt", "sinusoidal"])
def test_advance_keeps_the_history_within_the_delay_and_a_block(law, max_tau):
    # each block pushes at most _BLOCK samples, then drops the past before
    # the earliest point it read, at or after t - max tau: once the first
    # block has dropped most of the initial history (65 samples on
    # [-tau0, 0]), the line stays within max tau / dt + _BLOCK + 2 samples
    # over 11 more blocks, and still serves the next block's reads
    p, _, ops, cfg, s0 = _system("constant", False, n=16)
    dly = bl.DelaySpec(**law, history=np.cos(np.linspace(0, 1, 9)))
    state = bl.initial_state(p, dly, ops.grid, s0.eta, s0.omega)
    stepper, bound = Stepper(ops, cfg, p, dly), max_tau / cfg.dt + stepping._BLOCK + 2
    sizes = []
    for _ in range(12):
        state = stepper.advance(state, stepping._BLOCK)
        sizes.append(state.history.size)
        assert state.history.t_first <= state.t - bl.tau_at(dly, state.t)[0]
    assert sizes[0] <= 65 + stepping._BLOCK and max(sizes[1:]) <= bound, sizes
    assert sizes[-1] > stepping._BLOCK


@pytest.mark.parametrize("steps", [2.5, True, -2, "3", None])
def test_advance_refuses_a_step_count_that_is_not_a_nonnegative_integer(steps):
    p, dly, ops, cfg, s0 = _system("constant", False, n=16)
    line, size = s0.history, s0.history.size
    with pytest.raises(ConfigurationError, match="nonnegative integer step count"):
        Stepper(ops, cfg, p, dly).advance(s0, steps)
    assert line.t_last == 0.0 and line.size == size
    for count in (0, np.int64(2)):
        # the counts that go step a copy: s0's line stays, the end's holds the steps
        end = Stepper(ops, cfg, p, dly).advance(s0, count)
        assert end.t == count * cfg.dt and end.history.size == size + count
        assert end.history is not line and line.t_last == 0.0 and line.size == size


@pytest.mark.parametrize("steps", [2 ** 1024, 10 ** 400], ids=["2**1024", "10**400"])
def test_advance_refuses_a_step_count_whose_end_time_is_not_finite(steps):
    # once a raw OverflowError from t + steps * dt; only counts past the largest
    # float are tried here, since a huge finite count really runs
    p, dly, ops, cfg, s0 = _system("constant", False, n=16)
    state, line = s0, s0.history
    buf = line._buf.copy()
    with pytest.raises(ConfigurationError, match="end time of the step count is not finite"):
        Stepper(ops, cfg, p, dly).advance(state, steps)
    assert state.t == 0.0 and np.array_equal(state.u, s0.u)
    assert line.t_last == 0.0 and np.array_equal(line._buf, buf)


# laws whose slope reaches 1, each with a horizon: tau = 0.5 + 0.6 (1 - cos 2t),
# whose slope 1.2 sin 2t passes 1 at t = 0.49, and two affine laws faster
# than time
OUTRUN = {"sine": (dict(form="sinusoidal", tau0=0.5, amplitude=0.6, frequency=2.0,
                        phase=-np.pi / 2, M=1.7, d=1.2), 1.0),
          **{f"rate={rate}": (dict(form="affine", tau0=0.5, rate=rate, M=2.0, d=rate), 5e-3)
             for rate in (1.001, 1.5)}}


@pytest.mark.parametrize("entry, law", [
    *((entry, law) for entry in ("run", "advance") for law in OUTRUN),
    ("step", "rate=1.001"), ("step", "rate=1.5")])
def test_run_and_advance_refuse_a_law_whose_slope_reaches_one(entry, law, monkeypatch):
    # once tau' reaches 1, t - tau(t) stops moving forward and a row would
    # read before the past an earlier block dropped: the law's own slope
    # over [0, t + T] is refused before any step, s0 and its line untouched
    # ("step" is an advance of one step)
    p, _, ops, cfg, _ = _system("constant", False)
    dly = bl.DelaySpec(**OUTRUN[law][0])
    T = cfg.dt if entry == "step" else OUTRUN[law][1]
    s0 = _dense_state(p, dly, ops)
    u, line, size = _bits(s0.u).copy(), _bits(s0.history._buf).copy(), s0.history.size
    stepper = Stepper(ops, cfg, p, dly)
    take = {"run": lambda s, T: bl.run(s, T, cfg, p, dly, ops),
            "advance": lambda s, T: stepper.advance(s, round(T / cfg.dt)),
            "step": lambda s, T: stepper.advance(s, 1)}[entry]
    solves = _count_solves(monkeypatch)
    with pytest.raises(ConfigurationError, match=r"slope reaches max tau' = 1\.\d* >= 1 "
                                                 rf"on \[0, {T:g}\]"):
        take(s0, T)
    assert np.array_equal(_bits(s0.u), u) and np.array_equal(_bits(s0.history._buf), line)
    assert s0.t == 0.0 and s0.history.size == size and solves == [0]
    if law == "sine":
        # the slope is at most 1.2 sin 0.8 = 0.86 on [0, 0.4]: 400 steps go
        end = take(s0, 0.4)
        if entry == "run":
            assert end.termination == "completed" and end.n_rows == 401
        else:
            assert end.t == pytest.approx(0.4) and np.all(np.isfinite(end.u))


@pytest.mark.parametrize("entry", ["run", "advance", "step"])
def test_run_and_advance_refuse_a_law_whose_delay_falls_to_dt(entry, monkeypatch):
    # tau = 0.5 + 0.49 sin t falls to 0.01 at t = 3 pi / 2, below dt = 0.02,
    # where a step would read past the newest sample: the law's min tau over
    # [t, t + T] is refused before any step, the one rule for dt against
    # the delay (`_check_start`), s0 and its line untouched ("step" is an
    # advance of one step, from t = 4.7)
    p = bl.SystemParams(**ACC)
    dly = bl.DelaySpec(form="sinusoidal", tau0=0.5, amplitude=0.49, frequency=1.0, M=1.0, d=0.5)
    g = bl.Grid(n=32, L=p.L)
    ops = bl.build_operators(p, g)
    cfg = bl.StepConfig(dt=0.02, theta=bl.suggested_theta(0.02))
    x = g.nodes
    s0 = bl.initial_state(p, dly, g, x ** 3 * (1 - x) ** 2, x ** 2 * (1 - x) ** 2)
    stepper = Stepper(ops, cfg, p, dly)
    take = {"run": lambda s, T: bl.run(s, T, cfg, p, dly, ops),
            "advance": lambda s, T: stepper.advance(s, round(T / cfg.dt)),
            "step": lambda s, T: stepper.advance(s, 1)}[entry]
    t_hist = np.linspace(3.7, 4.7, 51)
    late = SimState(t=4.7, eta=s0.eta, omega=s0.omega,
                    history=bl.HistoryLine(t_hist, np.cos(3 * t_hist)))
    s, t_end = (late, 4.72) if entry == "step" else (s0, 6.0)
    u, line, size = _bits(s.u).copy(), _bits(s.history._buf).copy(), s.history.size
    solves = _count_solves(monkeypatch)
    with pytest.raises(ConfigurationError, match=r"delay falls to min tau = 0\.01 <= dt = 0\.02 "
                                                 rf"on \[{s.t:g}, {t_end:g}\]"):
        take(s, 6.0)
    assert np.array_equal(_bits(s.u), u) and np.array_equal(_bits(s.history._buf), line)
    assert s.history.size == size and solves == [0]
    if entry != "step":
        # min tau = 0.5 + 0.49 sin 4 = 0.129 on [0, 4]: 200 steps go
        end = take(s0, 4.0)
        if entry == "run":
            assert end.termination == "completed" and end.n_rows == 201
        else:
            assert end.t == pytest.approx(4.0) and np.all(np.isfinite(end.u))
    # from t = 5 the law is read over [5, 5.5] alone, where min tau =
    # 0.5 + 0.49 sin 5 = 0.030 > dt: the steps go
    t_hist = np.linspace(4.0, 5.0, 51)
    end = take(SimState(t=5.0, eta=s0.eta, omega=s0.omega,
                        history=bl.HistoryLine(t_hist, np.cos(3 * t_hist))), 0.5)
    if entry == "run":
        assert end.termination == "completed" and end.n_rows == 26
    else:
        assert end.t == pytest.approx(5.02 if entry == "step" else 5.5)
        assert np.all(np.isfinite(end.u))


def test_a_rising_delay_is_read_over_the_stepped_interval_not_at_tau0():
    # tau = 0.1 + 0.3 t is saturated at M = 0.7 on [5, 6], so dt = 0.2 reads
    # the stored past there although it is above tau0 = 0.1: `run` takes its
    # five steps, and `advance` the same five to the same bits
    p = bl.SystemParams(**ACC)
    dly = bl.DelaySpec(form="affine", tau0=0.1, rate=0.3, M=0.7, d=0.3)
    g = bl.Grid(n=32, L=p.L)
    ops = bl.build_operators(p, g)
    cfg = bl.StepConfig(dt=0.2, theta=bl.suggested_theta(0.2))
    x, t_hist = g.nodes, np.linspace(4.0, 5.0, 51)
    s = SimState(t=5.0, eta=x ** 3 * (1 - x) ** 2, omega=x ** 2 * (1 - x) ** 2,
                 history=bl.HistoryLine(t_hist, np.cos(3 * t_hist)))
    rep = bl.run(s, 1.0, cfg, p, dly, ops, store_fields=True)
    assert rep.termination == "completed" and rep.n_rows == 6
    end = Stepper(ops, cfg, p, dly).advance(s, 5)
    assert end.t == rep.t[-1] == pytest.approx(6.0)
    assert np.array_equal(_bits(end.eta), _bits(rep.fields_eta[-1]))
    assert np.array_equal(_bits(end.omega), _bits(rep.fields_omega[-1]))


@pytest.mark.parametrize("failure", ["nonlinear_divergence", "numerical_error"])
def test_a_stepper_steps_on_after_an_advance_that_failed(failure, monkeypatch):
    # a stepper keeps nothing from one call to the next: after an advance
    # that raised in its second block, the same stepper takes a fresh state
    # to the bits a new stepper gives
    p, dly, ops, cfg, s0 = _system("constant", True, n=16)
    stepper = Stepper(ops, cfg, p, dly)
    if failure == "numerical_error":
        failing_solve(monkeypatch, after=850)
    else:
        _nan_solve(monkeypatch, 851)   # that step's iterate is not finite
    error = {v: k for k, v in STOPS.items()}[failure]
    with pytest.raises(error):
        stepper.advance(s0, 300)
    monkeypatch.undo()
    again, new = (st.advance(s0, 300) for st in (stepper, Stepper(ops, cfg, p, dly)))
    assert again.t == new.t and np.array_equal(_bits(again.u), _bits(new.u))
    a, b = again.history, new.history
    assert np.array_equal(_bits(a._buf[:, a._lo:a._hi]), _bits(b._buf[:, b._lo:b._hi]))


def test_advance_refuses_a_state_whose_history_has_moved_on(monkeypatch):
    # no step moves a state's line on, but a state built by hand on a later
    # state's line, which ends at 2 dt, is at 1 dt: a step from it would push
    # before the newest sample, so it is refused before any step, with no
    # banded solve and the line unchanged
    p, dly, ops, cfg, s0 = _system("constant", True, n=16)
    stepper = Stepper(ops, cfg, p, dly)
    s1 = stepper.advance(s0, 1)
    line = stepper.advance(s1, 1).history
    assert s1.history.t_last == 0.002 and line.t_last == 0.004
    moved = SimState(s1.t, s1.eta, s1.omega, line)
    size, buf = line.size, _bits(line._buf[:, line._lo:line._hi]).copy()
    solves = _count_solves(monkeypatch)
    for take in (lambda: stepper.advance(moved, 3), lambda: stepper.advance(moved, 1)):
        with pytest.raises(ConfigurationError,
                           match=r"history ends at t=0\.004, not at its time t=0\.002"):
            take()
        assert solves == [0]
        assert line.size == size
        assert np.array_equal(_bits(line._buf[:, line._lo:line._hi]), buf)


def test_run_refuses_a_history_that_starts_after_the_first_delayed_time():
    p, dly, ops, cfg, s0 = _system("constant", False)
    hist = bl.HistoryLine([-0.1, 0.0], [0.0, 0.0])
    s = SimState(t=0.0, eta=s0.eta, omega=s0.omega, history=hist)
    with pytest.raises(ConfigurationError, match=r"starts at t=-0\.1, after the delayed "
                                                 r"time t - tau\(t\) = -0\.5"):
        bl.run(s, 0.01, cfg, p, dly, ops)
    assert hist.t_last == 0.0 and hist.size == 2   # no step was taken


def test_advance_and_step_refuse_a_history_that_starts_after_the_first_delayed_time(
        monkeypatch):
    # the check and message `run` gives, before any step: no banded solve
    # and the line unchanged
    p, dly, ops, cfg, s0 = _system("constant", False)
    hist = bl.HistoryLine([-0.1, 0.0], [0.0, 0.0])
    s = SimState(t=0.0, eta=s0.eta, omega=s0.omega, history=hist)
    stepper = Stepper(ops, cfg, p, dly)
    buf = _bits(hist._buf[:, hist._lo:hist._hi]).copy()
    solves = _count_solves(monkeypatch)
    for take in (lambda: stepper.advance(s, 3), lambda: stepper.advance(s, 1)):
        with pytest.raises(ConfigurationError, match=r"starts at t=-0\.1, after the delayed "
                                                     r"time t - tau\(t\) = -0\.5"):
            take()
        assert solves == [0]
        assert hist.size == 2 and np.array_equal(_bits(hist._buf[:, hist._lo:hist._hi]), buf)


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
