import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline

import bousslab as bl
from bousslab.config import parse_config
from bousslab.delay_line import _bessel_slopes, _rho_nodes
from bousslab.errors import ConfigurationError, HistoryUnderrunError


def _line(times, values, M=0.5):
    return bl.HistoryLine(times, values, M=M)


def test_linear_interpolation_midpoint():
    h = _line([0.0, 0.1], [0.0, 1.0])
    assert abs(h.query(0.05) - 0.5) < 1e-15


def test_push_non_monotone_rejected():
    h = _line([0.0, 0.1], [0.0, 1.0])
    with pytest.raises(ConfigurationError):
        h.push(0.1, 2.0)


def test_eviction_policy():
    h = _line([0.0, 0.05], [0.0, 0.0], M=0.5)
    for k in range(1, 11):
        h.push(0.1 * k, float(k))
    # cutoff = 1.0 - M - max(M/4, 2*max_gap) = 1.0 - 0.5 - 0.2
    assert h.t_first >= 1.0 - 0.5 - 0.2 - 1e-12
    assert h.t_last == 1.0


def test_stored_samples_exact():
    t = np.linspace(-0.5, 0.7, 41)
    v = np.sin(3 * t)
    h = _line(t, v)
    for tk, vk in zip(t[::7], v[::7]):
        assert abs(h.query(tk) - vk) < 1e-14


def test_delayed_trace_constant_history():
    dly = bl.DelaySpec(tau0=0.3, M=0.3, d=0.0)
    h = _line(np.linspace(-0.3, 1.0, 50), np.full(50, 2.5), M=0.3)
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
    h = _line(t, np.sin(t), M=0.3)
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
    h = _line(t, t, M=1.0)
    zp = bl.z_profile(h, dly, 1.0, 4)
    assert np.allclose(zp, [1.0, 0.75, 0.5, 0.25, 0.0], atol=1e-14)


def test_z_profile_endpoint_identities():
    dly = bl.DelaySpec(tau0=0.4, M=0.4, d=0.0)
    t = np.arange(-0.4, 1.2 + 1e-12, 5e-3)
    h = _line(t, np.cos(2 * t), M=0.4)
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
        h = _line(t, np.sin(t), M=0.5)
        res.append(bl.transport_residual(h, dly, 0.8, m, dt_fd=0.7 * 0.5 / m))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (res, orders)


def _reference(h):
    """Global scipy Hermite spline with the same Bessel slopes, rebuilt from
    the live samples: the construction the local evaluator replaces."""
    t, v = np.array(h._t), np.array(h._v)
    return CubicHermiteSpline(t, v, _bessel_slopes(t, v), extrapolate=False)


def _check_against_reference(h, rng):
    lo, hi = h.t_first, h.t_last
    q = np.concatenate([rng.uniform(lo, hi, 200), np.array(h._t), [lo, hi]])
    got = h.query(q)
    want = _reference(h)(q)
    scale = np.max(np.abs(h._v)) + 1e-300
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    k = rng.integers(q.size)
    assert h.query(q[k]) == got[k]


@pytest.mark.parametrize("seed", range(6))
def test_query_matches_global_hermite_spline(seed):
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h = _line(t, rng.standard_normal(n0), M=float(rng.uniform(0.2, 1.0)))
    _check_against_reference(h, rng)
    for step in range(300):
        h.push(h.t_last + rng.uniform(0.005, 0.05), rng.standard_normal())
        if step % 7 == 0:
            h.replace_last(rng.standard_normal())
        if step % 25 == 0:
            _check_against_reference(h, rng)
    assert h.t_first > t[-1]          # every initial sample was evicted
    _check_against_reference(h, rng)


def test_slopes_after_eviction_to_few_samples():
    # a tiny M evicts down to three samples; every slope, the head's
    # included, must then follow the shortened buffer
    rng = np.random.default_rng(7)
    h = _line(np.linspace(0.0, 1.0, 11), rng.standard_normal(11), M=1e-3)
    sizes, firsts = [], []
    for t_new in (1.01, 1.02, 1.03, 1.2, 1.25, 1.3):
        h.push(t_new, rng.standard_normal())
        sizes.append(h.size)
        firsts.append(h.t_first)
        _check_against_reference(h, rng)
        h.replace_last(rng.standard_normal())
        _check_against_reference(h, rng)
    assert sizes[0] == 3 and firsts[4] > firsts[3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
       st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
       st.floats(-10.0, 10.0))
def test_query_linear_in_values(x, y, c):
    t = np.linspace(-1.0, 0.0, 8)
    x, y = np.array(x), np.array(y)
    hx, hy, hz = (_line(t, v[:8], M=0.5) for v in (x, y, c * x + y))
    for k in range(4):
        for h, v in ((hx, x), (hy, y), (hz, c * x + y)):
            h.push(0.1 * (k + 1), v[8 + k])
    q = np.linspace(hz.t_first, hz.t_last, 37)
    scale = 1.0 + abs(c) * np.max(np.abs(x)) + np.max(np.abs(y))
    assert np.allclose(hz.query(q), c * hx.query(q) + hy.query(q),
                       rtol=0.0, atol=1e-12 * scale)


def test_interpolation_key_rejected():
    with pytest.raises(ConfigurationError, match="interpolation"):
        parse_config("[run]\ninterpolation = pchip\n")


class _ParentLine:
    """The history line before it cached interval coefficients: slopes
    refreshed by `_refresh_slopes`, and every query rebuilding the cubic of
    each point's interval from the two end slopes.  Oracle for HistoryLine."""

    def __init__(self, times, values, M):
        times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
        n = times.size
        self._buf = np.empty((3, max(2 * n, 64)))
        self._buf[:, :n] = times, values, _bessel_slopes(times, values)
        self._lo, self._hi = 0, n
        self.M, self.slack = float(M), 0.25 * float(M)
        self._max_gap = float(np.max(np.diff(times)))

    _t = property(lambda self: self._buf[0, self._lo:self._hi])
    _v = property(lambda self: self._buf[1, self._lo:self._hi])
    _m = property(lambda self: self._buf[2, self._lo:self._hi])

    def _refresh_slopes(self, head):
        t, v, m = self._t, self._v, self._m
        if t.size <= 3:
            m[:] = _bessel_slopes(t, v)
        elif head:
            m[0] = _bessel_slopes(t[:3], v[:3])[0]
        else:
            m[-2:] = _bessel_slopes(t[-3:], v[-3:])[1:]

    def push(self, t, v):
        t_last = float(self._buf[0, self._hi - 1])
        self._max_gap = max(self._max_gap, t - t_last)
        if self._hi == self._buf.shape[1]:
            n = self._hi - self._lo
            buf = np.empty((3, max(self._buf.shape[1], 4 * n)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        self._buf[:2, self._hi] = t, v
        self._hi += 1
        self._refresh_slopes(head=False)
        cutoff = t - self.M - max(self.slack, 2.0 * self._max_gap)
        k = int(np.searchsorted(self._t, cutoff))
        if k > 0:
            self._lo += k
            self._refresh_slopes(head=True)

    def replace_last(self, v):
        self._buf[1, self._hi - 1] = v
        self._refresh_slopes(head=False)

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
    assert np.array_equal(_bits(h._t), _bits(old._t))
    assert np.array_equal(_bits(h._v), _bits(old._v))
    assert np.array_equal(_bits(h._m), _bits(old._m))
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
    assert np.array_equal(_bits(got[~top]), _bits(old.query(q[~top])))
    for k in rng.choice(q.size, 8):
        one = h.query(float(q[k]))
        assert type(one) is float
        assert _bits(one) == _bits(h.query(q[k:k + 1])[0]) == _bits(got[k])


@pytest.mark.parametrize("seed", range(8))
def test_cached_coefficients_match_parent_line(seed):
    # pushes, evictions, overwrites and buffer growth, each checked bit for
    # bit against the line that rebuilt the coefficients on every query
    rng = np.random.default_rng(100 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    v = rng.standard_normal(n0)
    M = float(rng.uniform(0.05, 1.0))
    h, old = _line(t, v, M=M), _ParentLine(t, v, M)
    _check_against_parent(h, old, rng)
    reallocations = 0
    for step in range(400):
        # a run of equal gaps lets a small M evict down to three samples
        gap = 0.02 if step % 100 < 50 else float(rng.uniform(0.005, 0.05))
        t_new, v_new = h.t_last + gap, float(rng.standard_normal())
        buf = h._buf
        h.push(t_new, v_new)
        old.push(t_new, v_new)
        reallocations += h._buf is not buf
        _check_against_parent(h, old, rng)
        if step % 5 == 0:
            v_new = float(rng.standard_normal())
            h.replace_last(v_new)
            old.replace_last(v_new)
            _check_against_parent(h, old, rng)
    assert reallocations >= 2


def test_query_at_newest_sample_is_exact():
    # pushes, overwrites and evictions: a query at t_last returns the value
    # just stored, bit for bit, on the float and the array path
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(0.01, 0.2, 20))
    h = _line(t, rng.standard_normal(20), M=0.3)
    first = h.t_first
    for step in range(300):
        h.push(h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()))
        if step % 7 == 0:
            h.replace_last(float(rng.standard_normal()))
        v = _bits(h._v[-1])
        assert _bits(h.query(h.t_last)) == v
        assert _bits(h.query(np.array([h.t_last]))[0]) == v
        assert _bits(h.query(np.array(h.t_last))) == v
    assert h.t_first > first   # samples were evicted


def test_cached_coefficients_after_evictions_to_three_samples():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 11)
    v = rng.standard_normal(11)
    h, old = _line(t, v, M=1e-3), _ParentLine(t, v, 1e-3)
    sizes = []
    for k in range(1, 200):
        t_new, v_new = 1.0 + 0.1 * k + (0.05 if k == 120 else 0.0), float(rng.standard_normal())
        h.push(t_new, v_new)
        old.push(t_new, v_new)
        sizes.append(h.size)
        _check_against_parent(h, old, rng)
        h.replace_last(-v_new)
        old.replace_last(-v_new)
        _check_against_parent(h, old, rng)
    assert min(sizes) == 3


def test_query_rejects_nan_times():
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], M=1.0)
    for bad in (float("nan"), np.array([0.5, np.nan]), np.array(np.nan)):
        with pytest.raises(HistoryUnderrunError):
            h.query(bad)


def test_non_finite_times_rejected():
    for times, M in (([0.0, np.nan, 2.0], 1.0), ([0.0, 1.0, np.inf], 1.0),
                     ([0.0, 1.0, 2.0], np.nan)):
        with pytest.raises(ConfigurationError, match="finite|positive"):
            bl.HistoryLine(times, [0.0, 1.0, 4.0], M=M)
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], M=1.0)
    before = h.query(np.linspace(0.0, 2.0, 9))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="finite"):
            h.push(bad, 1.0)
    assert h.size == 3 and h.t_last == 2.0
    assert np.array_equal(h.query(np.linspace(0.0, 2.0, 9)), before)


@pytest.mark.parametrize("values, M, match", [
    pytest.param([0.0, np.nan, 4.0], 1.0, "non-finite history sample value nan at index 1",
                 id="nan value"),
    pytest.param([0.0, 1.0, -np.inf], 1.0, "non-finite history sample value -inf at index 2",
                 id="-inf value"),
    pytest.param([np.inf, np.nan, 4.0], 1.0, "at index 0", id="first bad index"),
    pytest.param([0.0, 1.0, 4.0], np.inf, "M = inf is non-positive or non-finite", id="inf M"),
    pytest.param([0.0, 1.0, 4.0], np.nan, "M = nan is non-positive or non-finite", id="nan M"),
])
def test_non_finite_values_and_bound_rejected(values, M, match):
    # a NaN sample would otherwise run a simulation to `unstable` with E = nan
    with pytest.raises(ConfigurationError, match=match):
        bl.HistoryLine([0.0, 1.0, 2.0], values, M=M)


def test_push_keeps_a_non_finite_value():
    # a blow-up still reaches the history, so the run ends as `unstable`
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], M=1.0)
    h.push(3.0, np.inf)
    assert h.size == 4 and h.t_last == 3.0 and h._v[-1] == np.inf


def test_empty_query_returns_empty_array():
    h = bl.HistoryLine([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], M=1.0)
    for empty in (np.array([]), [], np.empty((0, 3))):
        out = h.query(empty)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(empty) and out.dtype == float


def test_rho_nodes_shared_and_checked():
    rho = _rho_nodes(8)
    assert rho is _rho_nodes(8) and not rho.flags.writeable
    assert np.array_equal(rho, np.linspace(0.0, 1.0, 9))
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    h = _line(np.linspace(-0.5, 0.5, 21), np.zeros(21))
    for call in (lambda: bl.z_profile(h, dly, 0.5, 0),
                 lambda: bl.transport_residual(h, dly, 0.4, 0)):
        with pytest.raises(ConfigurationError, match="m >= 1"):
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
    # pushes, evictions, overwrites and buffer growth on one of a line and
    # its copy leave the other's samples and queries bit-unchanged, whichever
    # of the two is changed
    rng = np.random.default_rng(200 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h = _line(t, rng.standard_normal(n0), M=float(rng.uniform(0.05, 1.0)))
    for change_copy in (True, False):
        twin = h.copy()
        changed, kept = (twin, h) if change_copy else (h, twin)
        q = np.concatenate([rng.uniform(kept.t_first, kept.t_last, 50), np.array(kept._t)])
        before = _snapshot(kept, q)
        _assert_same(_snapshot(changed, q), before)
        first, buf = changed.t_first, changed._buf
        for step in range(300):
            changed.push(changed.t_last + float(rng.uniform(0.005, 0.05)),
                         float(rng.standard_normal()))
            if step % 5 == 0:
                changed.replace_last(float(rng.standard_normal()))
            _assert_same(_snapshot(kept, q), before)
        assert changed.t_first > first and changed._buf is not buf


def _one_point_queries(h, q):
    return np.array([h.query(float(x)) for x in np.ravel(q)]).reshape(np.shape(q))


@pytest.mark.parametrize("seed", range(4))
def test_array_query_matches_one_point_query(seed):
    # the array path searches a descending query through its reversed view
    # and gathers the coefficient rows with one take; in any order of the
    # query points it returns the one-point float path's bits, on the knots
    # and at both span ends within the 1e-14 clip, after pushes and evictions
    rng = np.random.default_rng(300 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h = _line(t, rng.standard_normal(n0), M=float(rng.uniform(0.05, 1.0)))
    dly = bl.DelaySpec(tau0=0.5 * h.M, M=h.M, d=0.0)
    first, profiles = h.t_first, 0
    for step in range(150):
        h.push(h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()))
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
    assert h.t_first > first and profiles >= 10   # samples were evicted


def _cached_integrals(h):
    """Bits of the live columns' square integrals, which the newest one
    holds as zeros."""
    return _bits(h._buf[5:, h._lo:h._hi]).copy()


def _assert_cache_is_fresh(h):
    # the integrals an incremental refresh left equal a recomputation from
    # scratch bit for bit (the same operations, on floats or on arrays)
    cached = _cached_integrals(h)
    fresh = h.copy()
    fresh._refresh_all()
    assert np.array_equal(cached, _cached_integrals(fresh))
    assert np.all(cached[:, -1] == 0)


@pytest.mark.parametrize("seed", range(6))
def test_cached_square_integrals_match_refresh_all(seed):
    # random pushes, overwrites, evictions (down to three samples for a small
    # M) and buffer growth, on a line and then on its copy
    rng = np.random.default_rng(400 + seed)
    n0 = int(rng.integers(2, 40))
    t = np.cumsum(rng.uniform(0.01, 0.2, n0))
    h = _line(t, rng.standard_normal(n0), M=float(rng.uniform(1e-3, 1.0)))
    _assert_cache_is_fresh(h)
    for line in (h, h.copy()):
        buf = line._buf
        for step in range(300):
            gap = 0.02 if step % 100 < 50 else float(rng.uniform(0.005, 0.05))
            line.push(line.t_last + gap, float(rng.standard_normal()))
            if rng.uniform() < 0.3:
                line.replace_last(float(rng.standard_normal()))
            _assert_cache_is_fresh(line)
        assert line._buf is not buf
    assert h.t_first > t[-1]


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
    h = _line(t, rng.standard_normal(60), M=10.0)
    for _ in range(40):
        h.push(h.t_last + float(rng.uniform(0.005, 0.05)), float(rng.standard_normal()))
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


def test_square_integrals_refuse_a_window_outside_the_span():
    h = _line([-0.1, 0.0, 0.1], [0.0, 1.0, 0.5])
    for a, b in ((-0.5, 0.0), (-0.1, 0.2), (float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(HistoryUnderrunError):
            h.square_integrals(a, b)
    with pytest.raises(ConfigurationError, match="a > b"):
        h.square_integrals(0.05, 0.0)
