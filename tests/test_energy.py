import dataclasses
import math

import numpy as np
import pytest

import bousslab as bl
from bousslab import energy
from bousslab.energy import energy_sample, kato_constant
from bousslab.errors import ConfigurationError, HistoryUnderrunError
from bousslab.operators import trace_weights
from bousslab.report import CSV_COLUMNS
from bousslab.stepping import SimState
from conftest import failing_solve


def _state(eta, omega, hist_times, hist_vals, t=0.0):
    h = bl.HistoryLine(hist_times, hist_vals)
    return SimState(t=t, eta=np.asarray(eta, float),
                    omega=np.asarray(omega, float), history=h)


def _row(s, p, dly, mu1=0.0, mu2=0.0):
    """The monitor row as a dict of its CSV_COLUMNS."""
    g = bl.Grid(n=s.eta.shape[0], L=p.L)
    return dict(zip(CSV_COLUMNS, energy_sample(s, p, dly, g, mu1, mu2)))


def test_energy_zero_state():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(beta=1.0)
    s = _state(np.zeros(16), np.zeros(16), [-0.5, 0.0], [0.0, 0.0])
    assert _row(s, p, dly)["E"] == 0.0


def test_energy_beta_zero_is_field_only():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, beta=0.0)
    g = bl.Grid(n=32, L=1.0)
    eta = g.nodes * (1 - g.nodes)
    om = 2 * eta
    s = _state(eta, om, [-0.5, 0.0], [9.9, 9.9])
    expected = 0.5 * g.h * np.sum(eta ** 2 + om ** 2)
    assert abs(_row(s, p, dly)["E"] - expected) < 1e-15


def test_energy_constant_history_example():
    # constant history c, tau = 0.5, beta = -2, zero field: E = 0.5 c^2
    c = 1.7
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(beta=-2.0)
    s = _state(np.zeros(16), np.zeros(16),
               np.linspace(-0.5, 0.0, 33), np.full(33, c))
    assert abs(_row(s, p, dly)["E"] - 0.5 * c ** 2) < 1e-13


def test_lyapunov_v1_zero_and_v2_hand_value():
    c = 0.9
    tau = 0.4
    dly = bl.DelaySpec(tau0=tau, M=tau, d=0.0)
    p = bl.SystemParams(beta=1.5, L=1.0)
    s = _state(np.zeros(16), np.ones(16),
               np.linspace(-tau, 0.0, 33), np.full(33, c))
    row = _row(s, p, dly, mu1=0.1, mu2=0.5)
    assert row["V1"] == 0.0
    assert abs(row["V2"] - abs(p.beta) / 4.0 * tau * c ** 2) < 1e-12
    assert row["V"] == row["E"] + 0.5 * row["V2"]
    # the closed lower ends of the multiplier range: V degenerates to E
    g = bl.Grid(n=16, L=2.0)
    s = _state(g.nodes * (1 - g.nodes), np.sin(g.nodes),
               np.linspace(-tau, 0.0, 9), np.linspace(1.0, 2.0, 9))
    row = _row(s, bl.SystemParams(L=2.0), dly)
    assert row["V1"] != 0.0 and row["V"] == row["E"]


def test_sandwich_inequality_random_states():
    # algebraic identity on the quadratures: holds exactly up to roundoff
    rng = np.random.default_rng(5)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    for _ in range(50):
        eta = rng.standard_normal(24)
        om = rng.standard_normal(24)
        hv = rng.standard_normal(33)
        s = _state(eta, om, np.linspace(-0.5, 0.0, 33), hv)
        mu1 = float(rng.uniform(1e-4, 0.99))
        mu2 = float(rng.uniform(1e-4, 0.99))
        row = _row(s, p, dly, mu1=mu1, mu2=mu2)
        E, V = row["E"], row["V"]
        mx = max(mu1 * p.L, mu2)
        assert (1 - mx) * E <= V + 1e-12 * E
        assert V <= (1 + mx) * E + 1e-12 * E


def test_energy_sample_of_a_moved_on_state_gives_its_row_or_refuses():
    # a state stepped by hand shares its history line with the steps after
    # it; no stored interval changes once pushed, so its monitor row read
    # after the line moves on is the row read before, bit for bit, until a
    # later block drops the start of its window: then it raises, never
    # giving another row
    p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4)
    dly = bl.DelaySpec(tau0=0.5, M=2.0)
    g = bl.Grid(n=16, L=p.L)
    ops = bl.build_operators(p, g)
    stepper = bl.Stepper(ops, bl.StepConfig(dt=1e-3), p, dly)
    s1 = stepper.step(bl.initial_state(p, dly, g, g.nodes ** 3 * (1 - g.nodes) ** 2,
                                       np.zeros(16)))
    row = energy_sample(s1, p, dly, g, mu1=0.3, mu2=0.5)
    assert row[0] == 0.001 and row[2] != row[1]
    # advance one step at a time, past the block that drops the window's start
    start, s, outcomes = s1.t - 0.5, s1, []
    for _ in range(20):
        s = stepper.advance(s, 1)
        assert s.history is s1.history
        if s1.history.t_first <= start:
            again = energy_sample(s1, p, dly, g, mu1=0.3, mu2=0.5)
            assert np.array_equal(np.array(again).view(np.uint64), np.array(row).view(np.uint64))
            outcomes.append("same")
        else:
            with pytest.raises(HistoryUnderrunError):
                energy_sample(s1, p, dly, g, mu1=0.3, mu2=0.5)
            outcomes.append("refused")
    assert outcomes[0] == "same" and outcomes[-1] == "refused"


def test_dissipation_residual_needs_three_samples():
    rep = bl.RunReport(t=np.array([0.0, 1.0]), E=np.zeros(2), V=np.zeros(2),
                       V1=np.zeros(2), V2=np.zeros(2), trace_now=np.zeros(2),
                       trace_delayed=np.zeros(2), dissipation_rhs=np.zeros(2))
    with pytest.raises(ConfigurationError):
        bl.dissipation_residual(rep, bl.SystemParams())


def test_dissipation_residual_zero_run():
    n = 11
    rep = bl.RunReport(t=np.linspace(0, 1, n), E=np.zeros(n), V=np.zeros(n),
                       V1=np.zeros(n), V2=np.zeros(n), trace_now=np.zeros(n),
                       trace_delayed=np.zeros(n), dissipation_rhs=np.zeros(n))
    assert bl.dissipation_residual(rep, bl.SystemParams()) == 0.0


def test_kato_constant_value():
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0)
    exact = 0.5 * (5 * math.pi ** 2 - 3)
    assert abs(kato_constant(p) - exact) < 1e-12
    assert abs(kato_constant(p) - 23.1740) < 1e-4


def test_kato_zero_run():
    n, nt = 16, 5
    rep = bl.RunReport(
        t=np.linspace(0, 1, nt), E=np.zeros(nt), V=np.zeros(nt),
        V1=np.zeros(nt), V2=np.zeros(nt), trace_now=np.zeros(nt),
        trace_delayed=np.zeros(nt), dissipation_rhs=np.zeros(nt),
        fields_eta=np.zeros((nt, n)), fields_omega=np.zeros((nt, n)))
    res, CL = bl.kato_identity_residual(rep, bl.SystemParams())
    assert res == 0.0 and CL > 0


def test_kato_refuses_another_systems_params():
    # the identity of another system would read as a large residual, not an error
    rep, p = _kato_run(n=20, rows=5)
    for key, value in (("a", 0.2), ("a1", 0.007), ("L", 0.9), ("alpha", 0.06), ("beta", 1e-3)):
        with pytest.raises(ConfigurationError, match=rf"config has {key} = {rep.config[key]}, "
                                                     rf"p has {key} = {value}$"):
            bl.kato_identity_residual(rep, dataclasses.replace(p, **{key: value}))
    rep.config["n"] = 21
    with pytest.raises(ConfigurationError, match="config has n = 21, its fields have n = 20$"):
        bl.kato_identity_residual(rep, p)


def test_kato_requires_fields():
    rep = bl.RunReport(t=np.zeros(3), E=np.zeros(3), V=np.zeros(3),
                       V1=np.zeros(3), V2=np.zeros(3), trace_now=np.zeros(3),
                       trace_delayed=np.zeros(3), dissipation_rhs=np.zeros(3))
    with pytest.raises(ConfigurationError):
        bl.kato_identity_residual(rep, bl.SystemParams())


# the sinusoidal delay law of the nonlinear ladder: tau = tau0 + A (1 - cos wt),
# tau_dot = A w sin(wt) <= d
SINE_DELAY = dict(form="sinusoidal", tau0=0.5, amplitude=0.1, frequency=2.0,
                  phase=-np.pi / 2, M=0.7, d=0.2)


def _pushed_line(rng, f, dly, pushes=300):
    """A line of samples of f at seeded random times, grown by `pushes`
    pushes, each followed by a drop of the past before t - 1.25 M, so that
    samples are dropped and the buffer grows."""
    t = np.cumsum(rng.uniform(0.005, 0.03, 30)) - 0.8
    h = bl.HistoryLine(t, f(t))
    buf = h._buf
    for _ in range(pushes):
        t_new = h.t_last + float(rng.uniform(0.002, 0.02))
        h.extend(t_new, float(f(t_new)))
        h.drop_before(t_new - 1.25 * dly.M)
    assert h.t_first > t[-1] and h._buf is not buf   # dropped and grown
    return h


def _smooth_trace(rng, modes=4):
    """A seeded random trig sum, frequencies 0.5 to 4 rad per unit time."""
    a, w, phase = (rng.standard_normal(modes), rng.uniform(0.5, 4.0, modes),
                   rng.uniform(0.0, 2 * np.pi, modes))
    return lambda t: np.sum(a * np.sin(np.multiply.outer(t, w) + phase), axis=-1)


def test_energy_sample_consistency(acc_params, acc_delay):
    # the trapezoid oracle in rho closes on the row's exact delay integrals at
    # order >= 1.9 in m, on smooth seeded histories with pushes, overwrites,
    # evictions and buffer growth, under a constant and a sinusoidal delay
    g = bl.Grid(n=32, L=acc_params.L)
    ms = (64, 256, 1024, 4096)
    for seed, dly in enumerate([acc_delay, bl.DelaySpec(**SINE_DELAY)] * 3):
        rng = np.random.default_rng(seed)
        h = _pushed_line(rng, _smooth_trace(rng), dly)
        s = SimState(t=h.t_last, eta=rng.standard_normal(32),
                     omega=rng.standard_normal(32), history=h)
        row = energy_sample(s, acc_params, dly, g, mu1=0.01, mu2=0.1)
        assert len(row) == len(CSV_COLUMNS)
        E, V = row[CSV_COLUMNS.index("E")], row[CSV_COLUMNS.index("V")]
        gaps = []
        for m in ms:
            E_ref, V1_ref, V2_ref = _trapezoid_row(s, acc_params, dly, g, m)
            gaps.append((abs(E - E_ref), abs(V - (E_ref - 0.01 * V1_ref + 0.1 * V2_ref))))
        gaps = np.array(gaps)
        orders = np.log(gaps[:-1] / gaps[1:]) / np.log(4.0)
        assert np.all(orders >= 1.9), (seed, gaps, orders)
        assert np.all(gaps[-1] <= 1e-9 * E), (seed, gaps)
    # the run computes dE/dt = 1/2 q^T Phi q for all rows at once
    s = _state(rng.standard_normal(32), rng.standard_normal(32),
               np.linspace(-0.5, 0.0, 17), rng.standard_normal(17))
    ops = bl.build_operators(acc_params, g)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(s, 0.02, cfg, acc_params, acc_delay, ops)
    Phi = bl.phi_matrix(acc_params, acc_delay)
    for k in range(rep.n_rows):
        q = np.array([rep.trace_now[k], rep.trace_delayed[k]])
        ref = 0.5 * q @ Phi @ q
        assert abs(rep.dissipation_rhs[k] - ref) <= 1e-14 * abs(ref)


def test_lyapunov_per_step_decay(acc_runs, acc_cert):
    # discrete shadow of V' + lambda V <= 0 at the certified constants
    rep = acc_runs["coarse"]
    lam = acc_cert.lam
    dt = rep.t[1] - rep.t[0]
    ratio = rep.V[1:] / rep.V[:-1]
    assert np.all(ratio <= np.exp(-lam * dt) * (1.0 + 1e-6))


def _trapezoid_row(s, p, dly, g, m):
    """(E, V1, V2) as the monitor row computed them before its delay terms
    were exact: np.trapezoid in x over eta^2 + omega^2 and x eta omega, with
    the zero boundary values, and in rho over `z_profile` at m + 1 nodes.
    The oracle of the exact delay integrals."""
    def pad(f):
        return np.concatenate(([0.0], f, [0.0]))
    E = 0.5 * np.trapezoid(pad(s.eta ** 2 + s.omega ** 2), dx=g.h)
    V1 = np.trapezoid(pad(g.nodes * s.eta * s.omega), dx=g.h)
    if p.beta == 0.0:
        return E, V1, 0.0
    tau, _ = bl.tau_at(dly, s.t)
    z2 = bl.z_profile(s.history, dly, s.t, m) ** 2
    w = 0.5 * abs(p.beta) * tau
    rho = np.linspace(0.0, 1.0, m + 1)
    return (E + w * np.trapezoid(z2, dx=1.0 / m), V1,
            w * np.trapezoid((1.0 - rho) * z2, dx=1.0 / m))


def _trapezoid_error(f, m):
    """T_m - int_0^1 f for a polynomial f of degree <= 5: the two
    Euler-Maclaurin terms, which are exact there."""
    d1, d3 = f.deriv(1), f.deriv(3)
    return (d1(1.0) - d1(0.0)) / (12.0 * m ** 2) - (d3(1.0) - d3(0.0)) / (720.0 * m ** 4)


@pytest.mark.parametrize("m", [1, 64, 2048])
@pytest.mark.parametrize("form", ["constant", "sinusoidal"])
@pytest.mark.parametrize("beta", [5e-4, 0.0])
def test_monitor_row_matches_trapezoid_oracle(m, form, beta):
    # on a quadratic trace, which the history's cubics reproduce through
    # pushes, overwrites and evictions, z is quadratic in rho: the trapezoid
    # oracle at m nodes is the exact row plus its Euler-Maclaurin error, to
    # roundoff at every m.  The x parts agree with the oracle's to 8 ulp
    # (relative to h sum |x eta omega| for V1, whose terms cancel), and both
    # traces are z_profile's ends, bit for bit
    p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=beta)
    dly = bl.DelaySpec(tau0=0.5, M=0.5) if form == "constant" else bl.DelaySpec(**SINE_DELAY)
    g = bl.Grid(n=101, L=1.0)
    ulp = 8 * np.finfo(float).eps
    rng = np.random.default_rng(m)
    for _ in range(5):
        trace = np.polynomial.Polynomial(rng.standard_normal(3))
        h = _pushed_line(rng, trace, dly, pushes=int(rng.integers(100, 300)))
        t = h.t_last
        s = SimState(t=t, eta=0.01 * rng.standard_normal(g.n),
                     omega=0.01 * rng.standard_normal(g.n), history=h)
        _, E, _, V1, V2, now, delayed = energy_sample(s, p, dly, g)
        E_ref, V1_ref, V2_ref = _trapezoid_row(s, p, dly, g, m)
        tau, _ = bl.tau_at(dly, t)
        z = trace(np.polynomial.Polynomial([t, -tau]))   # z(rho) = trace(t - tau rho)
        c = 0.5 * abs(beta) * tau
        rho = np.polynomial.Polynomial([1.0, -1.0])
        E_err, V2_err = c * _trapezoid_error(z ** 2, m), c * _trapezoid_error(rho * z ** 2, m)
        assert abs(E - (E_ref - E_err)) <= 1e-13 * E
        assert abs(V2 - (V2_ref - V2_err)) <= 1e-13 * max(V2, c * float(z(1.0)) ** 2)
        assert abs(V1 - V1_ref) <= ulp * g.h * np.sum(np.abs(g.nodes * s.eta * s.omega))
        zp = bl.z_profile(s.history, dly, t, m)
        assert (now, delayed) == (zp[0], zp[-1])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _row_field_derivatives(eta, omega, g, trace_now, trace_delayed, p):
    """One stored row's derivatives on the full grid, as the Kato residual
    computed them one row at a time, before its row dot products."""
    h = g.h
    ef = np.concatenate(([0.0], eta, [0.0]))
    wf = np.concatenate(([0.0], omega, [0.0]))
    n = g.n
    ex = np.zeros(n + 2)
    wx = np.zeros(n + 2)
    ex[1:-1] = (ef[2:] - ef[:-2]) / (2 * h)
    wx[1:-1] = (wf[2:] - wf[:-2]) / (2 * h)
    exx = np.zeros(n + 2)
    wxx = np.zeros(n + 2)
    exx[1:-1] = (ef[2:] - 2 * ef[1:-1] + ef[:-2]) / h ** 2
    wxx[1:-1] = (wf[2:] - 2 * wf[1:-1] + wf[:-2]) / h ** 2
    exx[-1] = trace_now
    wxx[0] = float(trace_weights(h)[::-1] @ omega[:3])
    wxx[-1] = p.alpha * trace_now + p.beta * trace_delayed
    return ex, wx, exx, wxx


def _row_kato_residual(report, p):
    """The Kato residual as computed one stored row at a time, before the
    row blocks: an independent oracle for `kato_identity_residual`."""
    n = report.fields_eta.shape[1]
    g = bl.Grid(n=n, L=p.L)
    t = report.t
    nt = t.size
    I_l2 = np.empty(nt)
    I_h1 = np.empty(nt)
    I_h2 = np.empty(nt)
    bdry = np.empty(nt)
    for k in range(nt):
        e = report.fields_eta[k]
        w = report.fields_omega[k]
        I_l2[k] = g.h * float((e ** 2 + w ** 2).sum())
        ex, wx, exx, wxx = _row_field_derivatives(
            e, w, g, report.trace_now[k], report.trace_delayed[k], p)
        I_h1[k] = float(np.trapezoid(ex ** 2 + wx ** 2, dx=g.h))
        I_h2[k] = float(np.trapezoid(exx ** 2 + wxx ** 2, dx=g.h))
        bdry[k] = exx[-1] ** 2 + wxx[-1] ** 2

    def tint(v):
        return float(np.trapezoid(v, x=t))

    x = g.nodes

    def xmoment(e, w):
        return g.h * float(np.sum(x * e * w))

    residual = (0.5 * tint(I_l2)
                - 1.5 * p.a * tint(I_h1)
                + 2.5 * p.a1 * tint(I_h2)
                - 0.5 * p.a1 * p.L * tint(bdry)
                - (xmoment(report.fields_eta[-1], report.fields_omega[-1])
                   - xmoment(report.fields_eta[0], report.fields_omega[0])))
    return residual, kato_constant(p)


def _kato_run(n, rows, beta=5e-4, seed=0):
    p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=beta)
    dly = bl.DelaySpec(tau0=0.5, M=2.0, d=0.0)
    g = bl.Grid(n=n, L=p.L)
    x = g.nodes
    rng = np.random.default_rng(seed)
    s = _state(x ** 3 * (1 - x) ** 2 * (1 + rng.uniform(-0.3, 0.3)),
               x ** 2 * (1 - x) ** 2 * (1 + rng.uniform(-0.3, 0.3)),
               np.linspace(-dly.tau0, 0.0, 41), 0.1 * rng.standard_normal(41))
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rep = bl.run(s, (rows - 1) * 1e-3, cfg, p, dly, bl.build_operators(p, g),
                 store_fields=True)
    return rep, p


def _assert_kato_matches_rows(rep, p, monkeypatch):
    got = bl.kato_identity_residual(rep, p)
    # the row-at-a-time oracle sums in another order
    ref = _row_kato_residual(rep, p)
    assert got[1] == ref[1]
    assert abs(got[0] - ref[0]) <= 1e-9 * abs(ref[0]), (got, ref)
    # the block pass gives each row the bits it has alone
    h = bl.Grid(n=rep.fields_eta.shape[1], L=p.L).h
    stacked = energy._kato_block(rep.fields_eta, rep.fields_omega, h)
    for k in range(rep.n_rows):
        alone = energy._kato_block(rep.fields_eta[k:k + 1], rep.fields_omega[k:k + 1], h)
        assert np.array_equal(_bits(stacked[:, k]), _bits(alone[:, 0]))
    monkeypatch.setattr(energy, "_KATO_BLOCK", 1)
    assert _bits(bl.kato_identity_residual(rep, p)).tolist() == _bits(got).tolist()


@pytest.mark.parametrize("rows", [2, 31, 32, 33])
def test_kato_row_blocks_match_row_loop(rows, monkeypatch):
    # one block short of, at and just past the 32-row block size: the block
    # pass and the residual equal the row-at-a-time ones bit for bit, and the
    # row-loop oracle to 1e-9
    rep, p = _kato_run(n=40, rows=rows, seed=rows)
    assert rep.n_rows == rows and rep.termination == "completed"
    _assert_kato_matches_rows(rep, p, monkeypatch)


def test_kato_row_blocks_match_row_loop_without_feedback(monkeypatch):
    rep, p = _kato_run(n=33, rows=70, beta=0.0)
    assert rep.n_rows == 70
    _assert_kato_matches_rows(rep, p, monkeypatch)


def test_kato_row_blocks_match_row_loop_on_an_early_stop(monkeypatch):
    failing_solve(monkeypatch, after=45)
    rep, p = _kato_run(n=40, rows=101, seed=5)
    assert rep.termination != "completed" and 32 < rep.n_rows < 101
    _assert_kato_matches_rows(rep, p, monkeypatch)


@pytest.fixture(scope="module")
def sine_ladder(acc_params, acc_delay):
    """(report, centered dE/dt, its rows) at three dyadic levels: slow-mode
    data of the constant-delay system, run under the sinusoidal law; the rows
    are the interior ones with t >= 0.5, past the start-up."""
    dly = bl.DelaySpec(**SINE_DELAY)
    out = []
    for n, dt in ((100, 2e-3), (201, 1e-3), (403, 5e-4)):
        ops = bl.build_operators(acc_params, bl.Grid(n=n, L=acc_params.L))
        state, _ = bl.slow_mode_state(ops, acc_params, acc_delay, dt=dt)
        cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt))
        rep = bl.run(state, 1.5, cfg, acc_params, dly, ops)
        assert rep.termination == "completed"
        dE = (rep.E[2:] - rep.E[:-2]) / (2.0 * dt)
        late = 1 + np.flatnonzero(rep.t[1:-1] >= 0.5)
        out.append((rep, dE[late - 1], late))
    return out


def test_dissipation_identity_refines_under_a_time_varying_delay(sine_ladder):
    # dissipation_rhs takes tau_dot(t) in Phi's (2,2) entry, so the residual is
    # the discretization error and falls by about 4 per level (with d in
    # place of tau_dot it stays near 1.75e-2)
    res = [np.max(np.abs(dE - rep.dissipation_rhs[rows])) for rep, dE, rows in sine_ladder]
    assert res[0] >= 3.0 * res[1] and res[1] >= 3.0 * res[2], res


def test_energy_rate_obeys_the_certified_bound(sine_ladder, acc_params):
    # tau_dot <= d: dE/dt <= 1/2 q^T Phi(d) q at every row past the start-up
    Phi = bl.phi_matrix(acc_params, bl.DelaySpec(**SINE_DELAY))
    for rep, dE, rows in sine_ladder:
        q = np.array([rep.trace_now[rows], rep.trace_delayed[rows]])
        assert np.all(dE <= 0.5 * np.sum(q * (Phi @ q), axis=0))


@pytest.mark.parametrize("law", [
    SINE_DELAY, dict(form="affine", tau0=0.5, rate=0.3, M=0.7, d=0.3)],
    ids=["sinusoidal", "affine"])
def test_certified_decay_under_a_time_varying_delay(acc_params, acc_delay, law):
    # the decay theorem with each law's own certificate: the bound, monotone
    # energy and dV/dt + lam V <= 0 (bound ratio about 0.63, and the largest
    # (dV/dt + lam V) / V about -0.09, on both laws)
    dly = bl.DelaySpec(**law)
    cert = bl.build_certificate(acc_params, dly)
    dt = 2e-3
    ops = bl.build_operators(acc_params, bl.Grid(n=100, L=acc_params.L))
    state, _ = bl.slow_mode_state(ops, acc_params, acc_delay, dt=dt)
    rep = bl.run(state, 3.0, bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt)),
                 acc_params, dly, ops, mu1=cert.mu1, mu2=cert.mu2)
    assert rep.termination == "completed"
    ok, ratio = bl.bound_check(rep.t, rep.E, cert.lam, cert.zeta)
    assert ok, ratio
    assert np.all(np.diff(rep.E) <= 0.0)
    dV = (rep.V[2:] - rep.V[:-2]) / (2.0 * dt)
    assert np.all(dV + cert.lam * rep.V[1:-1] <= 0.0)
