import math

import numpy as np
import pytest

import bousslab as bl
from bousslab.energy import energy_sample, kato_constant
from bousslab.errors import ConfigurationError
from bousslab.report import CSV_COLUMNS
from bousslab.stepping import SimState


def _state(eta, omega, hist_times, hist_vals, M, t=0.0):
    h = bl.HistoryLine(hist_times, hist_vals, M=M)
    return SimState(t=t, eta=np.asarray(eta, float),
                    omega=np.asarray(omega, float), history=h)


def test_energy_zero_state():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(beta=1.0)
    s = _state(np.zeros(16), np.zeros(16), [-0.5, 0.0], [0.0, 0.0], 0.5)
    assert bl.energy(s, p, dly) == 0.0


def test_energy_beta_zero_is_field_only():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, beta=0.0)
    g = bl.Grid(n=32, L=1.0)
    eta = g.nodes * (1 - g.nodes)
    om = 2 * eta
    s = _state(eta, om, [-0.5, 0.0], [9.9, 9.9], 0.5)
    expected = 0.5 * g.h * np.sum(eta ** 2 + om ** 2)
    assert abs(bl.energy(s, p, dly, grid=g) - expected) < 1e-15


def test_energy_constant_history_example():
    # constant history c, tau = 0.5, beta = -2, zero field: E = 0.5 c^2
    c = 1.7
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(beta=-2.0)
    s = _state(np.zeros(16), np.zeros(16),
               np.linspace(-0.5, 0.0, 33), np.full(33, c), 0.5)
    assert abs(bl.energy(s, p, dly) - 0.5 * c ** 2) < 1e-13


def test_lyapunov_v1_zero_and_v2_hand_value():
    c = 0.9
    tau = 0.4
    dly = bl.DelaySpec(tau0=tau, M=tau, d=0.0)
    p = bl.SystemParams(beta=1.5, L=1.0)
    s = _state(np.zeros(16), np.ones(16),
               np.linspace(-tau, 0.0, 33), np.full(33, c), tau)
    V1, V2, V = bl.lyapunov(s, p, dly, mu1=0.1, mu2=0.5)
    assert V1 == 0.0
    assert abs(V2 - abs(p.beta) / 4.0 * tau * c ** 2) < 1e-12


def test_lyapunov_mu_range_errors():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    p = bl.SystemParams(L=2.0)
    s = _state(np.zeros(16), np.zeros(16), [-0.5, 0.0], [0.0, 0.0], 0.5)
    with pytest.raises(ConfigurationError):
        bl.lyapunov(s, p, dly, mu1=0.6, mu2=0.5)   # mu1 >= 1/L
    with pytest.raises(ConfigurationError):
        bl.lyapunov(s, p, dly, mu1=0.1, mu2=1.0)
    # the closed lower ends are in range, as for `run`: V degenerates to E
    g = bl.Grid(n=16, L=p.L)
    s = _state(g.nodes * (1 - g.nodes), np.sin(g.nodes),
               np.linspace(-0.5, 0.0, 9), np.linspace(1.0, 2.0, 9), 0.5)
    assert bl.lyapunov(s, p, dly, mu1=0.0, mu2=0.0, grid=g)[2] == bl.energy(s, p, dly, grid=g)


def test_sandwich_inequality_random_states():
    # algebraic identity on the quadratures: holds exactly up to roundoff
    rng = np.random.default_rng(5)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    for _ in range(50):
        eta = rng.standard_normal(24)
        om = rng.standard_normal(24)
        hv = rng.standard_normal(33)
        s = _state(eta, om, np.linspace(-0.5, 0.0, 33), hv, 0.5)
        mu1 = float(rng.uniform(1e-4, 0.99))
        mu2 = float(rng.uniform(1e-4, 0.99))
        E = bl.energy(s, p, dly)
        V1, V2, V = bl.lyapunov(s, p, dly, mu1, mu2)
        mx = max(mu1 * p.L, mu2)
        assert (1 - mx) * E <= V + 1e-12 * E
        assert V <= (1 + mx) * E + 1e-12 * E


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


def test_kato_requires_fields():
    rep = bl.RunReport(t=np.zeros(3), E=np.zeros(3), V=np.zeros(3),
                       V1=np.zeros(3), V2=np.zeros(3), trace_now=np.zeros(3),
                       trace_delayed=np.zeros(3), dissipation_rhs=np.zeros(3))
    with pytest.raises(ConfigurationError):
        bl.kato_identity_residual(rep, bl.SystemParams())


def test_energy_sample_consistency(acc_params, acc_delay):
    g = bl.Grid(n=32, L=acc_params.L)
    rng = np.random.default_rng(0)
    s = _state(rng.standard_normal(32), rng.standard_normal(32),
               np.linspace(-0.5, 0.0, 17), rng.standard_normal(17), 2.0)
    row = energy_sample(s, acc_params, acc_delay, g, m=64, mu1=0.01, mu2=0.1)
    assert len(row) == len(CSV_COLUMNS)
    E, V = row[CSV_COLUMNS.index("E")], row[CSV_COLUMNS.index("V")]
    assert abs(E - bl.energy(s, acc_params, acc_delay, 64, g)) < 1e-14
    V1, V2, V_ref = bl.lyapunov(s, acc_params, acc_delay, 0.01, 0.1, 64, g)
    assert abs(V - V_ref) < 1e-14
    # the run computes dE/dt = 1/2 q^T Phi q for all rows at once
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
