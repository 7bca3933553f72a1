import math

import numpy as np
import pytest

import bousslab as bl
from bousslab.errors import ConfigurationError


def test_length_bound_example():
    # a = a1 = 1, L = 1: bound is pi*sqrt(5/3) ~ 4.0552
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0)
    assert abs(p.length_bound - math.pi * math.sqrt(5.0 / 3.0)) < 1e-14
    assert abs(p.length_bound - 4.0552) < 1e-3
    rep = bl.validate_params(p, bl.DelaySpec(tau0=0.5, M=0.5, d=0.0))
    check = {c.name: c for c in rep.checks}
    assert check["L_restriction"].passed


def test_slope_bound_d_equal_one_fails():
    p = bl.SystemParams()
    rep = bl.validate_params(p, bl.DelaySpec(tau0=0.5, M=0.5, d=1.0))
    check = {c.name: c for c in rep.checks}
    assert not check["slope_bound_range"].passed
    assert not rep.ok


def test_sinusoidal_slope_sampling_fails():
    # amplitude * frequency exceeds d -> slope check must fail
    tau0 = 0.4
    dly = bl.DelaySpec(tau0=tau0, M=2.0, d=0.1, form="sinusoidal",
                       amplitude=0.5 * tau0, frequency=2.0)
    rep = bl.validate_params(bl.SystemParams(), dly)
    check = {c.name: c for c in rep.checks}
    assert not check["slope_bound"].passed


def test_paper_compatible_sinusoid_passes():
    # tau = tau0 + A(1 - cos nu t): floor at tau0, slope A*nu
    dly = bl.DelaySpec(tau0=0.5, M=0.8, d=0.2, form="sinusoidal",
                       amplitude=0.1, frequency=1.0, phase=-math.pi / 2)
    rep = bl.validate_params(bl.SystemParams(), dly)
    assert rep.ok, str(rep)


def test_tau_at_constant():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0, form="constant")
    assert bl.tau_at(dly, 3.0) == (0.5, 0.0)


def test_tau_at_affine():
    dly = bl.DelaySpec(tau0=0.3, M=1.0, d=0.2, form="affine", rate=0.1)
    tau, dot = bl.tau_at(dly, 2.0)
    assert abs(tau - 0.5) < 1e-15
    assert abs(dot - 0.1) < 1e-15
    # saturation at M
    tau, dot = bl.tau_at(dly, 100.0)
    assert tau == 1.0 and dot == 0.0


def test_tau_at_sinusoidal_example():
    dly = bl.DelaySpec(tau0=0.5, M=0.7, d=0.2, form="sinusoidal",
                       amplitude=0.1, frequency=1.0)
    tau, dot = bl.tau_at(dly, math.pi / 2)
    assert abs(tau - 0.6) < 1e-15
    assert abs(dot) < 1e-15


def test_tau_at_negative_time_rejected():
    with pytest.raises(ConfigurationError):
        bl.tau_at(bl.DelaySpec(), -1.0)
    with pytest.raises(ConfigurationError):
        bl.validate_params(bl.SystemParams(), bl.DelaySpec(), horizon=-1.0)


@pytest.mark.parametrize("form,kwargs", [
    ("constant", {}),
    ("affine", dict(rate=0.05, M=1.0, d=0.1)),
    ("sinusoidal", dict(amplitude=0.05, frequency=0.7, phase=-math.pi / 2,
                        M=0.7, d=0.1)),
])
def test_accepted_delay_sampled_bounds(form, kwargs):
    base = dict(tau0=0.5, M=0.5, d=0.0)
    base.update(kwargs)
    dly = bl.DelaySpec(form=form, **base)
    rep = bl.validate_params(bl.SystemParams(), dly)
    assert rep.ok, str(rep)
    ts = np.linspace(0.0, 100.0, 10_000)
    taus = np.array([bl.tau_at(dly, float(t))[0] for t in ts])
    assert taus.min() >= dly.tau0 * (1 - 1e-12)
    assert taus.max() <= dly.M * (1 + 1e-12)


def _looped_report(dly, horizon=100.0):
    """validate_params' delay-law checks from the scalar tau_at, one sample
    at a time, as they were computed before the sampling was vectorized."""
    ts = np.linspace(0.0, horizon, 10_000)
    taus, dots = np.array([bl.tau_at(dly, float(t)) for t in ts]).T
    tmin, tmax, dotmax = taus.min(), taus.max(), dots.max()
    return {"tau_floor": (tmin >= dly.tau0 * (1 - 1e-12), tmin),
            "tau_ceiling": (tmax <= dly.M * (1 + 1e-12), tmax),
            "slope_bound": (dotmax <= dly.d + 1e-12, dotmax)}


@pytest.mark.parametrize("kwargs", [
    dict(form="constant", tau0=0.5, M=0.5),
    # saturates at t = 10: samples before and after
    dict(form="affine", tau0=0.5, M=1.0, d=0.1, rate=0.05),
    # saturates beyond the horizon
    dict(form="affine", tau0=0.5, M=10.0, d=0.1, rate=0.05),
    # rate above d and M below the ramp's end: both checks fail
    dict(form="affine", tau0=0.5, M=0.8, d=0.01, rate=0.05),
    dict(form="sinusoidal", tau0=0.5, M=0.7, d=0.2, amplitude=0.1,
         frequency=2.0, phase=-math.pi / 2),
    # slope and floor violated
    dict(form="sinusoidal", tau0=0.4, M=2.0, d=0.1, amplitude=0.2,
         frequency=2.0, phase=0.3),
])
def test_vectorized_delay_sampling_matches_loop(kwargs):
    dly = bl.DelaySpec(**kwargs)
    checks = {c.name: c for c in bl.validate_params(bl.SystemParams(), dly).checks}
    for name, (passed, value) in _looped_report(dly).items():
        assert checks[name].passed == passed, name
        assert abs(checks[name].value - value) <= 1e-15 * abs(value), name


def test_tau_dot_consistent_with_finite_difference():
    dly = bl.DelaySpec(tau0=0.5, M=0.8, d=0.3, form="sinusoidal",
                       amplitude=0.1, frequency=2.0, phase=-math.pi / 2)
    errs = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        t = 1.3
        _, dot = bl.tau_at(dly, t)
        fd = (bl.tau_at(dly, t + eps)[0] - bl.tau_at(dly, t - eps)[0]) / (2 * eps)
        errs.append(abs(dot - fd))
    # O(eps^2): quartering eps quarters the error
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_grid_invariants():
    g = bl.Grid(n=32, L=2.0)
    assert abs(g.h * (g.n + 1) - g.L) < 1e-14
    assert g.nodes.shape == (32,)
    assert abs(g.nodes[0] - g.h) < 1e-15
    with pytest.raises(ConfigurationError):
        bl.Grid(n=7, L=1.0)


def test_positivity_errors():
    with pytest.raises(ConfigurationError):
        bl.SystemParams(a=-1.0)
    with pytest.raises(ConfigurationError):
        bl.SystemParams(a1=0.0)
    with pytest.raises(ConfigurationError):
        bl.DelaySpec(tau0=0.0)


def test_c_nl_defaults_to_a():
    p = bl.SystemParams(a=0.25)
    assert p.c_nl == 0.25
