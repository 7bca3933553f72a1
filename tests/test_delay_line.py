import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline

import bousslab as bl
from bousslab.config import parse_config
from bousslab.delay_line import (_cubic_coeffs, _end_slope, _interior_slope, _rho_nodes,
                                 _secants, _square_moments)
from bousslab.errors import ConfigurationError, HistoryUnderrunError


def _line(times, values):
    return bl.HistoryLine(times, values)


def _push(h, t, v, keep):
    """Push a sample, then drop the line's past before t - keep."""
    h.extend(t, v)
    h.drop_before(t - keep)


def test_linear_interpolation_midpoint():
    h = _line([0.0, 0.1], [0.0, 1.0])
    assert abs(h.query(0.05) - 0.5) < 1e-15


def test_push_non_monotone_rejected():
    h = _line([0.0, 0.1], [0.0, 1.0])
    with pytest.raises(ConfigurationError):
        h.extend(0.1, 2.0)


def test_drop_before_keeps_the_last_sample_at_or_before_its_time():
    # only the line's start moves: the buffer, every column in it and the
    # pushes after a drop are those of a line that never dropped; the
    # newest two samples stay, as a push reads them
    t = np.arange(11) / 10
    h = _line(t, np.cos(3 * t))
    whole, buf, cols = h.copy(), h._buf, _bits(h._buf).copy()
    for when, first in ((-1.0, 0.0), (float("nan"), 0.0), (0.0, 0.0), (0.35, 0.3),
                        (0.4, 0.4), (0.4, 0.4), (0.2, 0.4), (0.95, 0.9), (5.0, 0.9)):
        h.drop_before(when)
        assert h.t_first == first and h.t_last == 1.0
    assert h.size == 2 and h._buf is buf and np.array_equal(_bits(h._buf), cols)
    for line in (h, whole):
        line.extend(1.1, 0.7)
        line.extend(1.2, -0.2)
        line.extend(1.3, 0.1)
    assert np.array_equal(_bits(h._buf[:, h._lo:h._hi]),
                          _bits(whole._buf[:, whole._hi - 5:whole._hi]))


def test_stored_samples_exact():
    t = np.linspace(-0.5, 0.7, 41)
    v = np.sin(3 * t)
    h = _line(t, v)
    for tk, vk in zip(t[::7], v[::7]):
        assert abs(h.query(tk) - vk) < 1e-14


def test_delayed_trace_constant_history():
    dly = bl.DelaySpec(tau0=0.3, M=0.3, d=0.0)
    h = _line(np.linspace(-0.3, 1.0, 50), np.full(50, 2.5))
    assert abs(h.query(0.9 - bl.tau_at(dly, 0.9)[0]) - 2.5) < 1e-14


def test_delayed_trace_affine_data_exact():
    # Bessel-slope cubics are exact on affine (indeed quadratic) data
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    t = np.linspace(-0.5, 2.0, 26)
    h = _line(t, t)
    assert abs(h.query(2.0 - bl.tau_at(dly, 2.0)[0]) - 1.5) < 1e-14


def test_delayed_trace_sin_accuracy():
    dly = bl.DelaySpec(tau0=0.3, M=0.3, d=0.0)
    t = np.arange(-0.3, 1.0 + 1e-12, 1e-3)
    h = _line(t, np.sin(t))
    assert abs(h.query(1.0 - bl.tau_at(dly, 1.0)[0]) - np.sin(0.7)) < 1e-6


def test_underrun_raises():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    h = _line([-0.1, 0.0], [0.0, 0.0])
    with pytest.raises(HistoryUnderrunError):
        h.query(0.0 - bl.tau_at(dly, 0.0)[0])   # needs t = -0.5


def test_z_profile_zero():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    h = _line(np.linspace(-0.5, 0.5, 21), np.zeros(21))
    zp = bl.z_profile(h, dly, 0.5, 8)
    assert np.all(zp == 0.0)


def test_z_profile_affine_example():
    dly = bl.DelaySpec(tau0=1.0, M=1.0, d=0.0)
    t = np.linspace(-1.0, 1.0, 81)
    h = _line(t, t)
    zp = bl.z_profile(h, dly, 1.0, 4)
    assert np.allclose(zp, [1.0, 0.75, 0.5, 0.25, 0.0], atol=1e-14)


def test_z_profile_endpoint_identities():
    dly = bl.DelaySpec(tau0=0.4, M=0.4, d=0.0)
    t = np.arange(-0.4, 1.2 + 1e-12, 5e-3)
    h = _line(t, np.cos(2 * t))
    zp = bl.z_profile(h, dly, 1.2, 16)
    assert abs(zp[0] - h.query(1.2)) < 1e-14
    assert abs(zp[-1] - h.query(1.2 - bl.tau_at(dly, 1.2)[0])) < 1e-14


def test_transport_residual_trivial_cases():
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    t = np.linspace(-0.5, 1.0, 61)
    assert bl.transport_residual(_line(t, np.zeros(61)), dly, 0.4, 8) == 0.0
    assert bl.transport_residual(_line(t, np.full(61, 3.0)), dly, 0.4, 8) < 1e-12


def test_transport_residual_convergence():
    # analytic trace sin t, constant tau: z = sin(t - tau rho) solves the
    # transport equation exactly; residual is pure discretization error
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    res = []
    ms = (8, 16, 32)
    for m in ms:
        dt_samp = 0.5 / (8 * m)
        t = np.arange(-0.5, 1.5 + 1e-12, dt_samp)
        h = _line(t, np.sin(t))
        res.append(bl.transport_residual(h, dly, 0.8, m, dt_fd=0.7 * 0.5 / m))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (res, orders)


def _parabola_slope(t, v, x):
    """Derivative at x of the parabola through three samples (Lagrange)."""
    (t0, t1, t2), (v0, v1, v2) = t, v
    return (v0 * ((x - t1) + (x - t2)) / ((t0 - t1) * (t0 - t2))
            + v1 * ((x - t0) + (x - t2)) / ((t1 - t0) * (t1 - t2))
            + v2 * ((x - t0) + (x - t1)) / ((t2 - t0) * (t2 - t1)))


def _causal_reference(t, v, n0):
    """Global scipy Hermite spline through every sample a causal line was
    built with (the first n0) or pushed, oldest first: the first two slopes
    from the parabola through the first three samples (the secant for
    n0 = 2), every later one from the parabola through its sample and the
    two before it.  An independent construction of the line's slopes."""
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    m = np.empty_like(t)
    if n0 == 2:
        m[:2] = (v[1] - v[0]) / (t[1] - t[0])
    else:
        m[:2] = [_parabola_slope(t[:3], v[:3], x) for x in t[:2]]
    m[2:] = [_parabola_slope(t[j - 2:j + 1], v[j - 2:j + 1], t[j]) for j in range(2, t.size)]
    return CubicHermiteSpline(t, v, m, extrapolate=False)


class _Record:
    """A line that drops its past before t - keep at each push, and every
    sample it was built with or pushed, for `_causal_reference`."""

    def __init__(self, t, v, keep):
        self.line, self.n0, self.keep = _line(t, v), len(t), keep
        self.t, self.v = list(t), list(v)

    def push(self, t, v):
        _push(self.line, t, v, self.keep)
        self.t.append(t)
        self.v.append(v)

    def check(self, rng):
        h = self.line
        lo, hi = h.t_first, h.t_last
        q = np.concatenate([rng.uniform(lo, hi, 200), np.array(h._t), [lo, hi]])
        got = h.query(q)
        want = _causal_reference(self.t, self.v, self.n0)(q)
        scale = np.max(np.abs(h._v)) + 1e-300
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        k = rng.integers(q.size)
        assert h.query(q[k]) == got[k]


@pytest.mark.parametrize("seed", range(6))
def test_query_matches_global_hermite_spline(seed):
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    rec = _Record(t, rng.standard_normal(n0), keep=float(rng.uniform(0.2, 1.0)))
    rec.check(rng)
    for step in range(300):
        rec.push(rec.line.t_last + rng.uniform(0.005, 0.05), rng.standard_normal())
        if step % 25 == 0:
            rec.check(rng)
    assert rec.line.t_first > t[-1]          # every initial sample was dropped
    rec.check(rng)


def test_fresh_line_takes_the_parabola_through_its_first_three_samples():
    # exact on a quadratic from the first interval on; a line of two
    # samples is the secant line until pushes reach it
    t = np.array([0.0, 0.1, 0.25, 0.3])
    h = _line(t, (t - 0.2) ** 2)
    q = np.linspace(0.0, 0.3, 31)
    assert np.allclose(h.query(q), (q - 0.2) ** 2, rtol=0, atol=1e-15)
    two = _line([0.0, 0.5], [1.0, 3.0])
    assert np.array_equal(two._m, [4.0, 4.0])
    two.extend(1.0, 5.0)
    assert np.array_equal(two._m[:2], [4.0, 4.0])
    # samples whose secants overflow build without a warning, as they push
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = _line([0.0, 1.0, 2.0], [-1e308, 1e308, -1e308])
    assert huge.size == 3 and not np.isfinite(huge._m).any()


def test_slopes_after_eviction_to_few_samples():
    # drops down to two samples; the slopes stay those each sample got
    # when it was pushed, the head's included
    rng = np.random.default_rng(7)
    rec = _Record(np.linspace(0.0, 1.0, 11), rng.standard_normal(11), keep=1e-3)
    sizes, firsts = [], []
    for t_new in (1.01, 1.02, 1.03, 1.2, 1.25, 1.3):
        head = _bits(rec.line._m[-2:]).copy()
        rec.push(t_new, rng.standard_normal())
        sizes.append(rec.line.size)
        firsts.append(rec.line.t_first)
        hi = rec.line._hi   # the drop may have moved the older of them out of the line
        assert np.array_equal(_bits(rec.line._buf[2, hi - 3:hi - 1]), head)
        rec.check(rng)
    assert sizes[0] == 2 and firsts[4] > firsts[3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
       st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
       st.floats(-10.0, 10.0))
def test_query_linear_in_values(x, y, c):
    t = np.linspace(-1.0, 0.0, 8)
    x, y = np.array(x), np.array(y)
    hx, hy, hz = (_line(t, v[:8]) for v in (x, y, c * x + y))
    for k in range(4):
        for h, v in ((hx, x), (hy, y), (hz, c * x + y)):
            h.extend(0.1 * (k + 1), v[8 + k])
    q = np.linspace(hz.t_first, hz.t_last, 37)
    scale = 1.0 + abs(c) * np.max(np.abs(x)) + np.max(np.abs(y))
    assert np.allclose(hz.query(q), c * hx.query(q) + hy.query(q),
                       rtol=0.0, atol=1e-12 * scale)


def test_interpolation_key_rejected():
    with pytest.raises(ConfigurationError, match="interpolation"):
        parse_config("[run]\ninterpolation = pchip\n")


class _ParentLine:
    """The causal line without cached interval coefficients: the slope of
    each pushed sample from it and the two before it, a fresh line's first
    two from its first three samples, and every query rebuilding the cubic
    of each point's interval from the two end slopes.  It keeps every
    sample.  Oracle for HistoryLine."""

    def __init__(self, times, values):
        times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
        n = times.size
        self._buf = np.empty((3, max(2 * n, 64)))
        self._buf[:2, :n] = times, values
        self._lo, self._hi = 0, n
        h, d = np.diff(times), np.diff(values) / np.diff(times)
        if n == 2:
            self._m[:] = d[0]
        else:
            self._m[:2] = (_end_slope(h[0], h[1], d[0], d[1]),
                           _interior_slope(h[0], h[1], d[0], d[1]))
            for j in range(2, n):
                self._newest_slope(j)

    _t = property(lambda self: self._buf[0, self._lo:self._hi])
    _v = property(lambda self: self._buf[1, self._lo:self._hi])
    _m = property(lambda self: self._buf[2, self._lo:self._hi])

    def _newest_slope(self, j):
        (t0, t1, t2), (v0, v1, v2) = self._buf[:2, j - 2:j + 1].tolist()
        self._buf[2, j] = _end_slope(t2 - t1, t1 - t0, (v2 - v1) / (t2 - t1), (v1 - v0) / (t1 - t0))

    def push(self, t, v):
        if self._hi == self._buf.shape[1]:
            n = self._hi - self._lo
            buf = np.empty((3, max(self._buf.shape[1], 4 * n)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        self._buf[:2, self._hi] = t, v
        self._hi += 1
        self._newest_slope(self._hi - 1)

    def query(self, t):
        t_arr = np.asarray(t, dtype=float)
        ts, vs, ms = self._t, self._v, self._m
        q = np.minimum(np.maximum(t_arr, ts[0]), ts[-1])
        i = np.minimum(np.searchsorted(ts, q, side="right") - 1, ts.size - 2)
        t0, v0, m0, m1 = ts[i], vs[i], ms[i], ms[i + 1]
        h = ts[i + 1] - t0
        slope = (vs[i + 1] - v0) / h
        c = (m0 + m1 - 2 * slope) / h
        s = q - t0
        s2 = s * s
        return v0 + m0 * s + ((slope - m0) / h - c) * s2 + (c / h) * (s2 * s)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _check_against_parent(h, old, rng):
    # h's samples are the parent's newest
    n = h.size
    assert np.array_equal(_bits(h._t), _bits(old._t[-n:]))
    assert np.array_equal(_bits(h._v), _bits(old._v[-n:]))
    assert np.array_equal(_bits(h._m), _bits(old._m[-n:]))
    lo, hi = h.t_first, h.t_last
    q = np.concatenate([rng.uniform(lo, hi, 50), np.array(h._t),
                        [lo, hi, lo - 5e-15, hi + 5e-15]])
    got = h.query(q)
    # at and above t_last (the newest knot, hi, hi + 5e-15) the newest stored
    # value itself; the parent line evaluated the last interval's cubic at its
    # right end there, off by roundoff
    top = q >= hi
    assert np.count_nonzero(top) == 3
    assert np.all(_bits(got[top]) == _bits(h._v[-1]))
    # below t_first, h clamps to t_first
    assert np.array_equal(_bits(got[~top]), _bits(old.query(np.maximum(q[~top], lo))))
    for k in rng.choice(q.size, 8):
        one = h.query(float(q[k]))
        assert type(one) is np.float64
        assert _bits(one) == _bits(h.query(q[k:k + 1])[0]) == _bits(got[k])


@pytest.mark.parametrize("seed, n0", [*((seed, None) for seed in range(8)),
                                      (8, 2), (9, 3), (10, 4)],
                         ids=[*map(str, range(8)), "n0=2", "n0=3", "n0=4"])
def test_cached_coefficients_match_parent_line(seed, n0):
    # pushes, drops and buffer growth, each checked bit for bit against the
    # line that rebuilt the coefficients on every query; the lines of two to
    # four samples read their seeded slopes next to the first pushed sample
    rng = np.random.default_rng(100 + seed)
    n0 = n0 or int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    v = rng.standard_normal(n0)
    keep = float(rng.uniform(0.05, 1.0))
    h, old = _line(t, v), _ParentLine(t, v)
    _check_against_parent(h, old, rng)
    reallocations = 0
    for step in range(400):
        # a run of equal gaps lets a small keep drop down to two samples
        gap = 0.02 if step % 100 < 50 else float(rng.uniform(0.005, 0.05))
        t_new, v_new = h.t_last + gap, float(rng.standard_normal())
        buf = h._buf
        _push(h, t_new, v_new, keep)
        old.push(t_new, v_new)
        reallocations += h._buf is not buf
        _check_against_parent(h, old, rng)
    assert reallocations >= 2


def test_query_at_newest_sample_is_exact():
    # pushes and drops: a query at t_last returns the value just pushed,
    # bit for bit, on the float and the array path
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(0.01, 0.2, 20))
    h = _line(t, rng.standard_normal(20))
    first = h.t_first
    for _ in range(300):
        _push(h, h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()), 0.3)
        v = _bits(h._v[-1])
        assert _bits(h.query(h.t_last)) == v
        assert _bits(h.query(np.array([h.t_last]))[0]) == v
        assert _bits(h.query(np.array(h.t_last))) == v
    assert h.t_first > first   # samples were dropped


def test_cached_coefficients_after_evictions_to_two_samples():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 11)
    v = rng.standard_normal(11)
    h, old = _line(t, v), _ParentLine(t, v)
    sizes = []
    for k in range(1, 200):
        t_new, v_new = 1.0 + 0.1 * k + (0.05 if k == 120 else 0.0), float(rng.standard_normal())
        _push(h, t_new, v_new, 1e-3)
        old.push(t_new, v_new)
        sizes.append(h.size)
        _check_against_parent(h, old, rng)
    assert min(sizes) == 2


def test_query_rejects_nan_times():
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    for bad in (float("nan"), np.array([0.5, np.nan]), np.array(np.nan)):
        with pytest.raises(HistoryUnderrunError):
            h.query(bad)


def test_non_finite_times_rejected():
    for times in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ConfigurationError, match="finite"):
            bl.HistoryLine(times, [0.0, 1.0, 4.0])
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    before = h.query(np.linspace(0.0, 2.0, 9))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="finite"):
            h.extend(bad, 1.0)
    assert h.size == 3 and h.t_last == 2.0
    assert np.array_equal(h.query(np.linspace(0.0, 2.0, 9)), before)


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: bl.HistoryLine([0.0, 1.0, 2.0], [0.0, np.nan, 4.0]),
                 "non-finite history sample value nan at index 1", id="nan value"),
    pytest.param(lambda: bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf]),
                 "non-finite history sample value -inf at index 2", id="-inf value"),
    pytest.param(lambda: bl.HistoryLine([0.0, 1.0, 2.0], [np.inf, np.nan, 4.0]),
                 "at index 0", id="first bad index"),
    # numpy would fail on filling the buffer, or broadcast
    pytest.param(lambda: bl.HistoryLine(np.array([[-1, -.5], [-.2, 0.]]), np.ones((2, 2))),
                 r"1-D .* shapes \(2, 2\) and \(2, 2\)", id="2-D history"),
    pytest.param(lambda: bl.HistoryLine(np.array([[-1, -.5], [-.2, 0.]]), np.ones(4)),
                 r"shapes \(2, 2\) and \(4,\)", id="2-D times, 1-D values"),
    # the delay bound lives only in the delay law
    pytest.param(lambda: bl.DelaySpec(tau0=0.5, M=np.inf), "M must be finite, got inf",
                 id="inf M"),
    pytest.param(lambda: bl.DelaySpec(tau0=0.5, M=np.nan), "M must be finite, got nan",
                 id="nan M"),
])
def test_non_finite_values_and_bound_rejected(make, match):
    # a NaN sample would otherwise run a simulation to `unstable` with E = nan
    with pytest.raises(ConfigurationError, match=match):
        make()


def test_push_keeps_a_non_finite_value():
    # a blow-up still reaches the history, so the run ends as `unstable`
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    h.extend(3.0, np.inf)
    assert h.size == 4 and h.t_last == 3.0 and h._v[-1] == np.inf


def test_empty_query_returns_empty_array():
    # and integrals over no windows four empty arrays
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    for empty in (np.array([]), [], np.empty((0, 3))):
        out = h.query(empty)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(empty) and out.dtype == float
    for empty in (np.array([]), []):
        out = h.square_integrals(empty, empty)
        assert len(out) == 4
        assert all(isinstance(x, np.ndarray) and x.shape == (0,) and x.dtype == float for x in out)


def test_rho_nodes_checked():
    assert np.array_equal(_rho_nodes(8), np.linspace(0.0, 1.0, 9))
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    h = _line(np.linspace(-0.5, 0.5, 21), np.zeros(21))
    for call, match in ((lambda: bl.z_profile(h, dly, 0.5, 0), "m >= 1"),
                        (lambda: bl.transport_residual(h, dly, 0.4, 0), "m >= 1"),
                        (lambda: bl.transport_residual(h, dly, 0.4, 8, dt_fd=0.0), "dt_fd"),
                        (lambda: bl.transport_residual(h, dly, 0.4, 8, dt_fd=np.nan), "dt_fd")):
        with pytest.raises(ConfigurationError, match=match):
            call()


def _snapshot(h, q):
    """Samples, slopes, span and queries at q of a line, to compare bit for bit."""
    return (_bits(h._t).copy(), _bits(h._v).copy(), _bits(h._m).copy(),
            h.size, h.t_first, h.t_last, _bits(h.query(q)).copy())


def _assert_same(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", range(6))
def test_copy_is_independent(seed):
    # pushes, drops and buffer growth on one of a line and its copy leave
    # the other's samples and queries bit-unchanged, whichever of the two is
    # changed
    rng = np.random.default_rng(200 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h, keep = _line(t, rng.standard_normal(n0)), float(rng.uniform(0.05, 1.0))
    for change_copy in (True, False):
        twin = h.copy()
        changed, kept = (twin, h) if change_copy else (h, twin)
        q = np.concatenate([rng.uniform(kept.t_first, kept.t_last, 50), np.array(kept._t)])
        before = _snapshot(kept, q)
        _assert_same(_snapshot(changed, q), before)
        first, buf = changed.t_first, changed._buf
        for _ in range(300):
            _push(changed, changed.t_last + float(rng.uniform(0.005, 0.05)),
                  float(rng.standard_normal()), keep)
            _assert_same(_snapshot(kept, q), before)
        assert changed.t_first > first and changed._buf is not buf


def _one_point_queries(h, q):
    return np.array([h.query(float(x)) for x in np.ravel(q)]).reshape(np.shape(q))


@pytest.mark.parametrize("seed", range(4))
def test_array_query_matches_one_point_query(seed):
    # the array path searches all points at once and gathers the
    # coefficient rows with one take; in any order of the query points it
    # returns the one-point float path's bits, on the knots and at both span
    # ends within the 1e-14 clip, after pushes and drops
    rng = np.random.default_rng(300 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h, keep = _line(t, rng.standard_normal(n0)), float(rng.uniform(0.05, 1.0))
    dly = bl.DelaySpec(tau0=0.5 * keep, M=keep, d=0.0)
    first, profiles = h.t_first, 0
    for step in range(150):
        _push(h, h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()), keep)
        if step % 10:
            continue
        lo, hi = h.t_first, h.t_last
        asc = np.sort(np.concatenate([rng.uniform(lo, hi, 40), h._t,
                                      [lo - 1e-14, lo - 5e-15, hi + 5e-15, hi + 1e-14]]))
        for q in (asc, asc[::-1], asc[::-1].copy(), rng.permutation(asc),
                  np.repeat(asc, 3), np.repeat(asc, 3)[::-1], np.full(7, asc[5]),
                  asc[:2][::-1], asc[-1:], asc[:asc.size // 2 * 2].reshape(-1, 2)[::-1]):
            assert np.array_equal(_bits(h.query(q)), _bits(_one_point_queries(h, q)))
        for x in asc[::9]:
            assert _bits(h.query(np.array(x))) == _bits(h.query(float(x)))
        if hi - lo >= dly.tau0:
            profiles += 1
            z = bl.z_profile(h, dly, hi, 64)
            ref = _one_point_queries(h, hi - dly.tau0 * _rho_nodes(64))
            assert np.array_equal(_bits(z), _bits(ref))
    assert h.t_first > first and profiles >= 10   # samples were dropped


def _assert_cache_is_fresh(h):
    # the coefficients an incremental refresh left equal a rebuild from the
    # stored slopes, bit for bit (the same operations, on floats or on
    # arrays), and are zero at the newest sample
    t, v, m = h._buf[:3, h._lo:h._hi]
    rebuilt = np.array(_cubic_coeffs(*_secants(t, v), m[:-1], m[1:]))
    assert np.array_equal(_bits(h._buf[3:5, h._lo:h._hi - 1]), _bits(rebuilt))
    assert np.all(h._buf[3:5, h._hi - 1] == 0)


def _assert_intervals_integrate_alone(h):
    # every interval's square integrals, served for all intervals at once,
    # equal those served for it alone, bit for bit
    t = h._t
    together = h.square_integrals(t[:-1], t[1:])
    for j in range(t.size - 1):
        alone = h.square_integrals(float(t[j]), float(t[j + 1]))
        assert np.array_equal(_bits(alone), _bits([x[j] for x in together]))


@pytest.mark.parametrize("seed", range(6))
def test_cached_square_integrals_match_refresh_all(seed):
    # random pushes, drops (down to two samples for a small keep) and buffer
    # growth, on a line and then on its copy
    rng = np.random.default_rng(400 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h, keep = _line(t, rng.standard_normal(n0)), float(rng.uniform(1e-3, 1.0))
    _assert_cache_is_fresh(h)
    for line in (h, h.copy()):
        buf = line._buf
        for step in range(300):
            gap = 0.02 if step % 100 < 50 else float(rng.uniform(0.005, 0.05))
            _push(line, line.t_last + gap, float(rng.standard_normal()), keep)
            _assert_cache_is_fresh(line)
        assert line._buf is not buf
        _assert_intervals_integrate_alone(line)
    assert h.t_first > t[-1]


def test_square_moments_do_not_depend_on_the_number_of_elements():
    # element i of a one-element call equals element i of a many-element
    # call, bit for bit: the 16 terms go in one order whatever the size
    rng = np.random.default_rng(11)
    args = [rng.uniform(1e-4, 0.1, 37)] + [rng.standard_normal(37) * 10.0 ** rng.integers(-3, 4, 37)
                                           for _ in range(4)]
    many = _square_moments(*args)
    for i in range(37):
        one = _square_moments(*(x[i:i + 1] for x in args))
        assert np.array_equal(_bits(one[:, 0]), _bits(many[:, i]))
    pair = _square_moments(*(x[3:5] for x in args))
    assert np.array_equal(_bits(pair), _bits(many[:, 3:5]))


def test_no_stored_interval_changes_after_its_end_sample_is_pushed_past():
    # pushes, extends and drops leave every stored sample and slope, the
    # newest included, and every stored interval's coefficients bit for bit
    # as they were; a drop before t leaves queries and integrals at or after
    # t bit for bit as they were
    rng = np.random.default_rng(13)
    t = np.cumsum(rng.uniform(0.01, 0.05, 30))
    h = _line(t, rng.standard_normal(30))
    first, buf = h.t_first, h._buf
    for step in range(200):
        lo, hi = h._lo, h._hi
        t_old = h._buf[0, lo:hi].copy()
        samples = _bits(h._buf[:3, lo:hi]).copy()
        coeffs = _bits(h._buf[3:5, lo:hi - 1]).copy()
        times = h.t_last + np.cumsum(rng.uniform(0.005, 0.05, int(rng.integers(1, 6))))
        action = step % 3
        if action == 0:
            h.extend(float(times[0]), float(rng.standard_normal()))
        elif action == 1:
            h.extend(times, rng.standard_normal(times.size))
        else:
            when = float(rng.uniform(h.t_first, h.t_last))
            q = rng.uniform(when, h.t_last, 20)
            a = np.append(when, q[:9])
            b = np.append(q[10:19], h.t_last)
            a, b = np.minimum(a, b), np.maximum(a, b)
            read = _bits(np.concatenate((h.query(q), *h.square_integrals(a, b)))).copy()
            h.drop_before(when)
            assert np.array_equal(
                _bits(np.concatenate((h.query(q), *h.square_integrals(a, b)))), read)
        # the snapshot's columns still live, e of them dropped, in the same
        # buffer or moved to a new one
        e = int(np.searchsorted(t_old, h.t_first))
        j = h._lo
        assert np.array_equal(_bits(h._buf[:3, j:j + t_old.size - e]), samples[:, e:])
        assert np.array_equal(_bits(h._buf[3:5, j:j + t_old.size - 1 - e]), coeffs[:, e:])
    assert h.t_first > first and h._buf is not buf   # drops and buffer growth


def _gauss_legendre(h, a, b, weight):
    """int_a^b weight(s) q(s)^2 ds by 5-point Gauss-Legendre on each knot
    interval piece of [a, b]: exact up to roundoff for a weight of degree
    <= 3, q being cubic on each piece."""
    x, w = np.polynomial.legendre.leggauss(5)
    cuts = np.concatenate([[a], h._t[(h._t > a) & (h._t < b)], [b]])
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        total += 0.5 * (hi - lo) * float(np.sum(w * weight(s) * h.query(s) ** 2))
    return total


@pytest.mark.parametrize("seed", range(4))
def test_square_integrals_match_gauss_legendre(seed):
    # windows across many intervals, inside one, on knots, at both span ends
    # (within the 1e-14 clip) and of zero width; the ends are `query`'s bits
    rng = np.random.default_rng(500 + seed)
    t = np.cumsum(rng.uniform(0.01, 0.1, 60))
    h = _line(t, rng.standard_normal(60))
    for _ in range(40):
        h.extend(h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()))
    lo, hi = h.t_first, h.t_last
    k = int(rng.integers(1, h.size - 2))
    mid = float(rng.uniform(h._t[k], h._t[k + 1]))
    windows = [sorted(rng.uniform(lo, hi, 2)) for _ in range(10)] + [
        (lo, hi), (lo - 5e-15, hi + 5e-15), (float(h._t[3]), float(h._t[-4])),
        (float(h._t[k]), mid), (mid, float(rng.uniform(mid, h._t[k + 1]))),
        (mid, mid), (hi, hi), (hi - 0.5, hi)]
    for a, b in windows:
        qa, qb, i0, i1 = h.square_integrals(float(a), float(b))
        assert _bits(qa) == _bits(h.query(float(a)))
        assert _bits(qb) == _bits(h.query(float(b)))
        a_in, b_in = max(a, lo), min(b, hi)
        ref0 = _gauss_legendre(h, a_in, b_in, lambda s: np.ones_like(s))
        ref1 = _gauss_legendre(h, a_in, b_in, lambda s: s - a_in)
        scale = (b_in - a_in) * float(np.max(h._v ** 2))
        assert abs(i0 - ref0) <= 1e-13 * scale
        assert abs(i1 - ref1) <= 1e-13 * scale * (b_in - a_in)
        if a == b:
            assert i0 == i1 == 0.0
    # a (2, 2) array of windows gives the flattened call's bits in its shape
    a, b = np.array(windows[:4]).T
    flat = h.square_integrals(a, b)
    for x, y in zip(h.square_integrals(a.reshape(2, 2), b.reshape(2, 2)), flat):
        assert x.shape == (2, 2) and np.array_equal(_bits(x), _bits(y.reshape(2, 2)))


def test_square_integrals_refuse_a_window_outside_the_span():
    h = _line([-0.1, 0.0, 0.1], [0.0, 1.0, 0.5])
    for a, b in ((-0.5, 0.0), (-0.1, 0.2), (float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(HistoryUnderrunError):
            h.square_integrals(a, b)
    with pytest.raises(ConfigurationError, match="a > b"):
        h.square_integrals(0.05, 0.0)


@pytest.mark.parametrize("a, b", [([.1, .2], [.3]), ([.1], [.3, .5]), ([.1, .2, .3], [.5, .6]),
                                  ([[.1, .2], [.3, .4]], [.5, .6, .7, .8])])
def test_square_integrals_refuse_window_starts_and_ends_of_different_lengths(a, b):
    # numpy would broadcast one start against two ends, or fail mid-way; the
    # message names both shapes, which may hold as many elements
    h = _line(np.linspace(0.0, 1.0, 11), np.cos(np.linspace(0.0, 1.0, 11)))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"over window starts of shape {np.shape(a)} and ends of shape {np.shape(b)}")):
        h.square_integrals(np.array(a), np.array(b))


@pytest.mark.parametrize("seed", range(6))
def test_extend_equals_pushes_one_at_a_time(seed):
    # extends of random lengths, with drops (down to two samples for a
    # small keep), jumps in the gap and buffer growth, leave the samples,
    # slopes and coefficients K pushes leave, bit for bit
    rng = np.random.default_rng(600 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h, keep = _line(t, rng.standard_normal(n0)), float(rng.uniform(1e-3, 1.0))
    pushed = h.copy()
    for _ in range(60):
        k = int(rng.integers(1, 40))
        gaps = np.full(k, 0.02) if rng.uniform() < 0.5 else rng.uniform(0.005, 0.1, k)
        times = h.t_last + np.cumsum(gaps)
        values = rng.standard_normal(k)
        h.extend(times, values)
        for tk, vk in zip(times, values):
            pushed.extend(tk, vk)
        for line in (h, pushed):
            line.drop_before(times[-1] - keep)
        assert np.array_equal(_bits(h._buf[:, h._lo:h._hi]),
                              _bits(pushed._buf[:, pushed._lo:pushed._hi]))
        _assert_cache_is_fresh(h)
    assert h.t_first > t[-1]


def test_extend_refuses_bad_times_and_keeps_the_line():
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    before = _bits(h._buf[:, h._lo:h._hi]).copy()
    for times, values, match in (
            ([3.0, np.nan], [0.0, 0.0], "finite, got nan"),
            ([3.0, 3.0], [0.0, 0.0], "t=3.0 after t_last=3.0"),
            ([2.0], [0.0], "t=2.0 after t_last=2.0"),
            ([3.0, np.inf], [0.0, 0.0], "finite, got inf"),
            # one value per time: neither broadcast nor cut
            ([3.0, 4.0, 5.0], [7.0], r"times of shape \(3,\) and values of shape \(1,\)"),
            ([3.0, 4.0], [7.0, 8.0, 9.0], r"times of shape \(2,\) and values of shape \(3,\)"),
            # 1-D arrays only: numpy would fail on filling the buffer
            ([[3.0, 4.0], [5.0, 6.0]], np.ones((2, 2)),
             r"times of shape \(2, 2\) and values of shape \(2, 2\): need 1-D"),
            ([[3.0, 4.0], [5.0, 6.0]], [7.0, 8.0, 9.0, 10.0],
             r"times of shape \(2, 2\) and values of shape \(4,\)")):
        with pytest.raises(ConfigurationError, match=match):
            h.extend(np.array(times), np.array(values))
    h.extend(np.array([]), np.array([]))
    assert h.size == 3 and np.array_equal(_bits(h._buf[:, h._lo:h._hi]), before)


@pytest.mark.parametrize("seed", range(4))
def test_trailing_integrals_read_each_sample_as_it_was_newest(seed):
    # square_integrals over the trailing windows of the newest K samples,
    # from the line after all K pushes, against those on a copy taken right
    # after each sample's push: bit for bit, as no stored interval changes
    rng = np.random.default_rng(700 + seed)
    t = np.cumsum(rng.uniform(0.005, 0.02, 200))
    h = _line(t, rng.standard_normal(200))
    K, tau = int(rng.integers(2, 60)), float(rng.uniform(0.3, 1.0))
    times = h.t_last + np.cumsum(rng.uniform(0.005, 0.02, K))
    as_pushed = []
    for tk in times:
        h.extend(tk, float(rng.standard_normal()))
        as_pushed.append(h.square_integrals(tk - tau, tk))
    got = h.square_integrals(times - tau, times)
    assert np.array_equal(_bits(got), _bits(np.array(as_pushed).T))
    # a window that starts inside the newest sample's interval
    a = float(times[-1] - 0.3 * (times[-1] - times[-2]))
    got = h.square_integrals(np.array([a]), times[-1:])
    assert np.allclose(np.ravel(got), h.square_integrals(a, float(times[-1])), rtol=1e-14, atol=0)


def test_trailing_integrals_of_mass_at_the_windows_oldest_end():
    # q = exp(-600 s) on dt = 1e-3 samples: every trailing window's q^2 sits
    # at its start, so the s - a moment is small against |a| times the mass;
    # square_integrals over 256 windows whose starts spread over 256 dt,
    # against each window alone
    dt, tau, K = 1e-3, 0.2, 256
    f = lambda s: np.exp(-600.0 * (s + 0.022))
    t = dt * np.arange(-300, 1)
    h = _line(t, f(t))
    times = dt * np.arange(1, K + 1)
    one = h.copy()
    alone = []
    for tk in times:
        one.extend(tk, float(f(tk)))
        alone.append(np.ravel(one.square_integrals(np.array([tk - tau]), np.array([tk]))))
    h.extend(times, f(times))
    for got, want in zip(h.square_integrals(times - tau, times), np.array(alone).T):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
