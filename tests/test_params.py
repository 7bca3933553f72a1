import ast
import math

import numpy as np
import pytest

import bousslab as bl
from bousslab.errors import ConfigurationError
from bousslab.params import _tau_extremes
from test_library_errors import PACKAGE


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


@pytest.mark.parametrize("form", ["constant", "affine", "sinusoidal"])
def test_tau_at_nan_time_rejected(form):
    with pytest.raises(ConfigurationError):
        bl.tau_at(bl.DelaySpec(form=form), float("nan"))


_LAWS = {
    "constant": dict(form="constant", tau0=0.5, M=0.5),
    # saturates at t = (M - tau0) / rate = 10, a sampled time
    "affine": dict(form="affine", tau0=0.3, M=0.8, d=0.1, rate=0.05),
    "sinusoidal": dict(form="sinusoidal", tau0=0.5, M=0.7, d=0.2, amplitude=0.1,
                       frequency=2.0, phase=-math.pi / 2),
}


@pytest.mark.parametrize("form", list(_LAWS))
def test_tau_at_on_arrays_is_the_scalar_calls_bit_for_bit(form):
    # numbers and arrays take one array path, so every entry is its own
    # number's call's, bit for bit, for every shape; a number gives shape ()
    dly = bl.DelaySpec(**_LAWS[form])
    ts = np.concatenate(([0.0, 10.0], np.random.default_rng(3).uniform(0.0, 30.0, 255)))
    for t in (ts[:1], ts[:3], ts, ts[1:].reshape(16, -1)):
        tau, dot = bl.tau_at(dly, t)
        assert tau.shape == dot.shape == t.shape
        scalar = np.array([bl.tau_at(dly, x) for x in t.ravel().tolist()]).T
        assert np.array_equal(tau.ravel(), scalar[0])
        assert np.array_equal(dot.ravel(), scalar[1])
    assert bl.tau_at(dly, 0.0)[0] == dly.tau0
    assert all(np.shape(x) == () for x in bl.tau_at(dly, 2.5))


@pytest.mark.parametrize("form", list(_LAWS))
@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_tau_at_refuses_an_array_with_a_negative_or_nan_time(form, bad):
    with pytest.raises(ConfigurationError, match=r"requires t >= 0, got (-|nan)"):
        bl.tau_at(bl.DelaySpec(**_LAWS[form]), np.array([0.0, 1.0, bad, 2.0]))


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
    taus = bl.tau_at(dly, ts)[0]
    assert taus.min() >= dly.tau0 * (1 - 1e-12)
    assert taus.max() <= dly.M * (1 + 1e-12)


@pytest.mark.parametrize("kwargs, horizon, failing", [
    pytest.param(dict(form="constant", tau0=0.5, M=0.5), 100.0, set(), id="constant"),
    pytest.param(dict(form="affine", tau0=0.5, M=1.0, d=0.1, rate=0.05), 100.0, set(),
                 id="affine-saturating"),
    pytest.param(dict(form="affine", tau0=0.5, M=10.0, d=0.1, rate=0.05), 100.0, set(),
                 id="affine-unsaturated"),
    # the ramp ends at M, but its rate exceeds d
    pytest.param(dict(form="affine", tau0=0.5, M=0.8, d=0.01, rate=0.05), 100.0,
                 {"slope_bound"}, id="affine-steep"),
    pytest.param(dict(form="sinusoidal", tau0=0.5, M=0.7, d=0.2, amplitude=0.1,
                      frequency=2.0, phase=-math.pi / 2), 100.0, set(), id="sinusoid"),
    pytest.param(dict(form="sinusoidal", tau0=0.4, M=2.0, d=0.1, amplitude=0.2,
                      frequency=2.0, phase=0.3), 100.0, {"tau_floor", "slope_bound"},
                 id="sinusoid-below-floor-steep"),
    # 10,000 uniform samples of [0, 1] land on the troughs of this law, so a
    # sampled check sees tau = tau0 and tau' = 0 throughout
    pytest.param(dict(form="sinusoidal", tau0=0.5, amplitude=0.01,
                      frequency=6 * math.pi * 9999, phase=-math.pi / 2, M=0.5, d=0.5),
                 1.0, {"tau_ceiling", "slope_bound"}, id="sinusoid-aliased"),
])
def test_delay_law_verdicts(kwargs, horizon, failing):
    rep = bl.validate_params(bl.SystemParams(), bl.DelaySpec(**kwargs), horizon=horizon)
    assert {c.name for c in rep.checks if not c.passed} == failing, str(rep)


def _random_law(rng):
    tau0 = float(rng.uniform(0.1, 1.0))
    if rng.random() < 0.5:
        return bl.DelaySpec(form="affine", tau0=tau0, M=float(rng.uniform(0.05, 2.0)),
                            rate=float(rng.uniform(0.0, 0.5)))
    return bl.DelaySpec(form="sinusoidal", tau0=tau0, M=5.0,
                        amplitude=float(rng.uniform(-0.3, 0.3)),
                        frequency=float(rng.uniform(-8.0, 8.0)),
                        phase=float(rng.uniform(-4.0, 4.0)))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_extremes_bound_dense_sampling(seed):
    # the exact extremes over [t0, horizon] hold every sample (to roundoff)
    # and exceed the sampled ones by no more than the sampling can miss
    rng = np.random.default_rng(seed)
    for _ in range(50):
        dly = _random_law(rng)
        horizon = float(rng.uniform(0.0, 20.0))
        t0 = float(rng.uniform(0.0, horizon))
        tmin, tmax, dotmax = _tau_extremes(dly, t0, horizon)
        ts = np.linspace(t0, horizon, 10_001)
        taus, dots = bl.tau_at(dly, ts)
        step = (horizon - t0) / 10_000
        if dly.form == "affine":
            # monotone, with a slope that only steps down: the end samples
            # hold the extremes
            miss_tau = miss_dot = 0.0
        else:
            # a crest lies within step/2 of a sample
            miss_tau = abs(dly.amplitude) * (dly.frequency * step) ** 2 / 8
            miss_dot = abs(dly.frequency) * miss_tau
        tol = 1e-14
        assert tmin <= taus.min() + tol and taus.min() - tmin <= miss_tau + tol
        assert tmax >= taus.max() - tol and tmax - taus.max() <= miss_tau + tol
        assert dotmax >= dots.max() - tol and dotmax - dots.max() <= miss_dot + tol


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
    for n, L in ((7, 1.0), (16, 0.0), (16, np.nan)):
        with pytest.raises(ConfigurationError):
            bl.Grid(n=n, L=L)


@pytest.mark.parametrize("n, L", [(10.5, 1.0), (10.0, 1.0), (True, 1.0), ("10", 1.0),
                                  (np.float64(10.0), 1.0), (10, np.inf), (10, -np.inf)])
def test_grid_rejects_non_integer_n_and_infinite_L(n, L):
    with pytest.raises(ConfigurationError):
        bl.Grid(n=n, L=L)


def test_grid_accepts_numpy_integers():
    g = bl.Grid(n=np.int64(10), L=1.0)
    assert np.array_equal(g.nodes, bl.Grid(n=10, L=1.0).nodes)


def test_positivity_errors():
    with pytest.raises(ConfigurationError):
        bl.SystemParams(a=-1.0)
    with pytest.raises(ConfigurationError):
        bl.SystemParams(a1=0.0)
    with pytest.raises(ConfigurationError):
        bl.DelaySpec(tau0=0.0)
    # NaN fails them too, so validate_params need not check positivity; the
    # gains and nonlinear coefficients must be finite, and the error names them
    for name in ("a", "a1", "L", "alpha", "beta", "alpha_p", "beta_p", "rho_nl", "c_nl"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=name):
                bl.SystemParams(**{name: bad})
    with pytest.raises(ConfigurationError):
        bl.DelaySpec(tau0=math.nan)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("name", ["tau0", "M", "d", "amplitude", "frequency", "phase",
                                  "history"])
def test_delay_spec_refuses_non_finite_inputs(name, bad):
    # a NaN d once ran to completion with every dissipation_rhs NaN, and a
    # NaN history sample ended the run as unstable after one step
    kwargs = dict(tau0=0.5, M=0.7, d=0.2, form="sinusoidal", amplitude=0.1,
                  frequency=1.0, phase=-math.pi / 2)
    kwargs[name] = [bad, 0.0] if name == "history" else bad
    with pytest.raises(ConfigurationError, match=name):
        bl.DelaySpec(**kwargs)


@pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf])
def test_affine_rate_must_be_finite_and_nonnegative(rate):
    # each would run as another law: a negative rate as tau = tau0
    # throughout, a NaN or infinite one with tau(0) = M
    with pytest.raises(ConfigurationError, match="rate"):
        bl.DelaySpec(form="affine", tau0=0.5, M=1.0, d=0.1, rate=rate)


def test_c_nl_defaults_to_a():
    p = bl.SystemParams(a=0.25)
    assert p.c_nl == 0.25


# the fields that give a delay law its shape; `tau_at` and `_tau_extremes`
# read them, and every other module takes tau from those two
SHAPE_FIELDS = {"rate", "amplitude", "frequency", "phase"}


def _shape_field_reads(tree):
    """(line, field) of each attribute named by SHAPE_FIELDS, and of each
    getattr of one by a literal name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SHAPE_FIELDS:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in SHAPE_FIELDS):
            yield node.lineno, node.args[1].value


def test_only_params_reads_the_delay_law_shape():
    found = [f"{path.name}:{line}: {field}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "params.py"
             for line, field in _shape_field_reads(ast.parse(path.read_text()))]
    assert found == []
    assert list(_shape_field_reads(ast.parse((PACKAGE / "params.py").read_text())))


def test_shape_field_reads_are_found():
    source = ("tau = dly.tau0 + dly.amplitude * np.sin(dly.frequency * t + dly.phase)\n"
              "x = spec.delay.rate\n"
              "y = getattr(dly, 'phase')\n"
              "z = getattr(dly, name)\n"
              "amplitude = frequency = 1.0\n"
              "s = slow_mode_state(ops, p, dly, dt, amplitude=amplitude)\n"
              "dly = replace(dly, rate=0.1)\n")
    assert sorted(_shape_field_reads(ast.parse(source))) == [
        (1, "amplitude"), (1, "frequency"), (1, "phase"), (2, "rate"), (3, "phase")]
