"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The simulation criteria (4-6, 8) share one pair of runs at
n=200/dt=1e-3 and the dyadic refinement n=401/dt=5e-4 on the admissible
configuration defined in conftest.ACC.
"""

import math

import numpy as np

import bousslab as bl
from bousslab.energy import dissipation_residual, kato_constant, kato_identity_residual
from bousslab.mms import convergence_study
from bousslab.stepping import SimState, Stepper

from conftest import ACC, ACC_DELAY


def _report(k, text):
    print(f"\n[criterion {k:2d}] PASS - {text}")


def test_criterion_01_gain_admissibility():
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=1.0, d=0.0)
    ok, Phi, thr = bl.check_gains(p, dly)
    assert ok
    assert abs(thr - 1.0) <= 1e-12
    assert np.max(np.abs(Phi - np.array([[-3.0, -1.0], [-1.0, -1.0]]))) <= 1e-12
    assert abs(np.linalg.det(Phi) - 2.0) <= 1e-12
    assert np.all(np.linalg.eigvalsh(Phi) < 0)
    # equality case alpha = 1: det Phi = 0, rejected
    p_eq = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=1.0)
    ok_eq, Phi_eq, _ = bl.check_gains(p_eq, dly)
    assert not ok_eq
    assert abs(np.linalg.det(Phi_eq)) <= 1e-12
    _report(1, "threshold=1, Phi=[[-3,-1],[-1,-1]], det=2; equality case rejected")


def test_criterion_02_decay_constants():
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=1.0, d=0.0)
    lam, zeta, info = bl.decay_constants(p, dly, 0.1, 0.5)
    assert abs(lam - 1.0 / 3.0) <= 1e-10
    assert abs(zeta - 3.0) <= 1e-10
    first_exact = 0.1 * math.pi ** 2 * (5 * math.pi ** 2 - 3) / (1.0 * 1.1)
    assert abs(info["bracket_first"] - first_exact) <= 1e-10
    assert abs(info["bracket_first"] - 41.584) <= 5e-3
    _report(2, f"lambda=1/3, zeta=3, first bracket={info['bracket_first']:.6f}")


def test_criterion_03_optimal_mu1():
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=1.0, d=0.0)
    from bousslab.certificate import mu1_interval_right
    right = mu1_interval_right(p, dly)
    assert abs(right - 0.4) <= 1e-14
    assert bl.f_of_mu1(p, 0.0) == 0.0
    assert abs(bl.g_of_mu1(p, dly, 0.0) - 2.0 / 3.0) <= 1e-14
    assert abs(bl.g_of_mu1(p, dly, 0.4)) <= 1e-12
    mu1s, lam_star = bl.optimal_mu1(p, dly)
    # dense-scan oracle: vectorized re-statement of f and g on 1e6 points
    mus = np.linspace(0.0, 0.4, 1_000_000)
    f = mus * np.pi ** 2 * (5 * np.pi ** 2 - 3) / (1.0 + mus)
    num = (2 * 2 - 1) - 1 - 1.0 * (1 + 4) * mus
    den = 1.0 * (2 * 2 - 1 * 1 - 1.0 * (1 + 4) * mus)
    g = num / den
    scan_root = mus[np.argmin(np.abs(f - g))]
    assert abs(mu1s - scan_root) <= 1e-6
    # optimality at 1e3 sampled interior points
    sample = np.linspace(1e-6, 0.4 * (1 - 1e-9), 1000)
    vals = [min(bl.f_of_mu1(p, float(m)), bl.g_of_mu1(p, dly, float(m)))
            for m in sample]
    assert lam_star >= max(vals) - 1e-9
    _report(3, f"interval [0, 0.4], g(0)=2/3, mu1*={mu1s:.8f} matches 1e6 scan")


def test_criterion_04_dissipation_identity_refinement(acc_runs, acc_params):
    r1 = dissipation_residual(acc_runs["coarse"], acc_params)
    r2 = dissipation_residual(acc_runs["fine"], acc_params)
    assert np.isfinite(r1) and np.isfinite(r2)
    factor = r1 / r2
    assert factor >= 3.0, (r1, r2, factor)
    _report(4, f"residual {r1:.3e} -> {r2:.3e}, factor {factor:.2f} >= 3")


def test_criterion_05_monotone_energy(acc_runs):
    for tag in ("coarse", "fine"):
        rep = acc_runs[tag]
        up = np.diff(rep.E).max()
        assert up <= 1e-10 * rep.E[0], (tag, up, rep.E[0])
    up = np.diff(acc_runs["coarse"].E).max()
    _report(5, f"max energy upstep {up:.2e} <= 1e-10*E0")


def test_criterion_06_exponential_decay_bound(acc_runs, acc_cert):
    rep = acc_runs["coarse"]
    ok, ratio = bl.bound_check(rep.t, rep.E, acc_cert.lam, acc_cert.zeta)
    assert ok, ratio
    lam_obs, r2 = bl.fit_decay(rep.t, rep.E)
    assert lam_obs >= 0.98 * acc_cert.lam, (lam_obs, acc_cert.lam)
    _report(6, f"bound ratio {ratio:.3f} <= 1.02; lambda_obs {lam_obs:.4f} "
               f">= 0.98*{acc_cert.lam:.5f}")


def test_criterion_07_kato_identity(kato_runs, acc_params):
    p_ref = bl.SystemParams(a=1.0, a1=1.0, L=1.0)
    exact = 0.5 * (5 * math.pi ** 2 - 3)
    assert abs(kato_constant(p_ref) - exact) <= 1e-10
    residuals = []
    hs = []
    for n, rep in kato_runs:
        r, CL = kato_identity_residual(rep, acc_params)
        assert CL > 0
        residuals.append(abs(r))
        hs.append(acc_params.L / (n + 1))
    orders = [np.log(residuals[i] / residuals[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(len(residuals) - 1)]
    assert min(orders) >= 1.9, (residuals, orders)
    _report(7, f"C_L(1,1,1)={kato_constant(p_ref):.4f}; residual orders "
               f"{['%.2f' % o for o in orders]}")


def test_criterion_08_lyapunov_equivalence(acc_runs, acc_params):
    rep = acc_runs["coarse"]
    rng = np.random.default_rng(2024)
    L = acc_params.L
    for _ in range(100):
        mu1 = float(rng.uniform(1e-6, 1.0 / L * 0.999))
        mu2 = float(rng.uniform(1e-6, 0.999))
        V = rep.E - mu1 * rep.V1 + mu2 * rep.V2
        mx = max(mu1 * L, mu2)
        tol = 1e-12 * rep.E
        assert np.all((1 - mx) * rep.E <= V + tol)
        assert np.all(V <= (1 + mx) * rep.E + tol)
    _report(8, "sandwich inequality holds at every sample for 100 draws")


def test_criterion_09_transport_consistency():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    res = []
    ms = (8, 16, 32)
    for m in ms:
        dt_samp = 0.5 / (8 * m)
        t = np.arange(-0.5, 1.5 + 1e-12, dt_samp)
        h = bl.HistoryLine(t, np.sin(t), M=0.5)
        res.append(bl.transport_residual(h, dly, 0.8, m, dt_fd=0.7 * 0.5 / m))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    assert min(orders) >= 1.9, (res, orders)
    _report(9, f"transport residual orders {['%.2f' % o for o in orders]}")


def test_criterion_10_spatial_convergence():
    # the spec's quartic pair lies in the discretization's exact space: it
    # verifies the inhomogeneous-curvature channel at near-roundoff level
    from bousslab.mms import quartic_exactness_error
    assert quartic_exactness_error() < 1e-7
    # spatial order measured on the boundary-compatible modulated-sine pair
    rows, orders = convergence_study(levels=3)
    assert min(orders) >= 1.9, (rows, orders)
    _report(10, f"quartic pair exact to {quartic_exactness_error():.1e}; "
                f"manufactured-solution orders {['%.2f' % o for o in orders]}")


def test_criterion_11_superposition():
    p = bl.SystemParams(**ACC)
    dly = bl.DelaySpec(**ACC_DELAY)
    g = bl.Grid(n=64, L=p.L)
    ops = bl.build_operators(p, g)
    cfg = bl.StepConfig(dt=1e-3, theta=bl.suggested_theta(1e-3))
    rng = np.random.default_rng(77)

    def rand_state():
        th = np.linspace(-dly.tau0, 0.0, 61)
        return SimState(t=0.0, eta=rng.standard_normal(g.n),
                        omega=rng.standard_normal(g.n),
                        history=bl.HistoryLine(th, rng.standard_normal(61),
                                               M=dly.M))

    for _ in range(3):
        sx, sy = rand_state(), rand_state()
        tx, vx = np.array(sx.history._t), np.array(sx.history._v)
        vy = np.array(sy.history._v)
        ex, ox = sx.eta.copy(), sx.omega.copy()
        s_sum = SimState(t=0.0, eta=sx.eta + sy.eta, omega=sx.omega + sy.omega,
                         history=bl.HistoryLine(tx, vx + vy, M=dly.M))
        rx = Stepper(ops, cfg, p, dly).step(sx)
        ry = Stepper(ops, cfg, p, dly).step(sy)
        rs = Stepper(ops, cfg, p, dly).step(s_sum)
        scale = max(np.max(np.abs(rs.eta)), np.max(np.abs(rs.omega)))
        assert np.max(np.abs(rs.eta - rx.eta - ry.eta)) <= 1e-10 * scale
        assert np.max(np.abs(rs.omega - rx.omega - ry.omega)) <= 1e-10 * scale
        c = 3.7
        sc = SimState(t=0.0, eta=c * ex, omega=c * ox,
                      history=bl.HistoryLine(tx, c * vx, M=dly.M))
        rc = Stepper(ops, cfg, p, dly).step(sc)
        assert np.max(np.abs(rc.eta - c * rx.eta)) <= 1e-10 * scale * c
    _report(11, "step is additive and homogeneous to 1e-10 relative")


def _nonlinear_run(p, dly, n, dt, amp, T=1.0):
    g = bl.Grid(n=n, L=p.L)
    ops = bl.build_operators(p, g)
    x = g.nodes
    eta0 = amp * x ** 3 * (p.L - x) ** 2 / p.L ** 5
    om0 = amp * x ** 2 * (p.L - x) ** 2 / p.L ** 4
    state = bl.initial_state(p, dly, g, eta0, om0)
    cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt), nonlinear=True)
    return bl.run(state, T, cfg, p, dly, ops, rho_res=64, store_fields=True)


def test_criterion_12_nonlinear_small_data():
    p = bl.SystemParams(**ACC, alpha_p=0.5, beta_p=0.5, rho_nl=0.5)
    dly = bl.DelaySpec(**ACC_DELAY)
    reps = [_nonlinear_run(p, dly, 50, 4e-3, 1e-3),
            _nonlinear_run(p, dly, 101, 2e-3, 1e-3),
            _nonlinear_run(p, dly, 203, 1e-3, 1e-3)]
    for rep in reps:
        assert rep.termination == "completed"
        assert np.all(np.isfinite(rep.E))
        assert rep.E.max() <= 2.0 * rep.E[0]
    u0 = reps[0].fields_eta[-1]
    u1 = reps[1].fields_eta[-1][1::2]
    u2 = reps[2].fields_eta[-1][1::2][1::2]
    d01 = np.sqrt(np.mean((u0 - u1) ** 2))
    d12 = np.sqrt(np.mean((u1 - u2) ** 2))
    order = np.log2(d01 / d12)
    assert order >= 1.5, (d01, d12, order)
    # amplitude 10 leaves the small-data regime: divergence diagnostic fires
    rep10 = _nonlinear_run(p, dly, 101, 2e-3, 10.0)
    assert rep10.termination in ("nonlinear_divergence", "unstable")
    _report(12, f"small-data self-convergence order {order:.2f}; "
                f"amplitude 10 -> {rep10.termination}")
