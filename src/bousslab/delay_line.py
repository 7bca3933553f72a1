"""Boundary-trace history and the transport-variable reconstruction.

The delayed feedback needs eta_xx(t - tau(t), L); instead of co-evolving the
transport equation for z(t, rho) = eta_xx(t - tau(t) rho, L) we keep a
buffer of (time, trace) samples and interpolate.  The substitution
s = t - tau rho turns the monitors' rho integrals of z^2 into exact integrals
of the interpolant's square over [t - tau, t] (`HistoryLine.square_integrals`,
and `trailing_integrals` for the rows of a block of steps).  The transport
equation is retained as a testable invariant through `transport_residual`.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import ConfigurationError, HistoryUnderrunError
from .params import DelaySpec, tau_at

# The slope, coefficient and evaluation formulas below run elementwise on
# numpy arrays: a block of samples, rows or query points gets, element by
# element, the operations one would get alone.


def _interior_slope(dt0, dt1, d0, d1):
    """Bessel slope at a sample from its two neighbouring secants d0, d1."""
    return (dt1 * d0 + dt0 * d1) / (dt0 + dt1)


def _end_slope(dt_near, dt_far, d_near, d_far):
    """End slope from the parabola through the three outermost samples."""
    return ((2 * dt_near + dt_far) * d_near - dt_near * d_far) / (dt_near + dt_far)


def _cubic_coeffs(h, v0, v1, m0, m1):
    """s^2 and s^3 coefficients of the Hermite cubic on an interval of width h."""
    slope = (v1 - v0) / h
    c = (m0 + m1 - 2 * slope) / h
    return (slope - m0) / h - c, c / h


# q^2 = sum_ij p_i p_j s^(i+j) for q = sum_i p_i s^i: int_0^x s^m q^2 ds has
# the terms p_i p_j x^(i+j+m+1) / (i+j+m+1); the row of x^(i+j+m+1) among the
# powers x^1 .. x^8, and the divisor, for moments m = 0, 1
_POWER = np.add.outer(np.arange(2), np.add.outer(np.arange(4), np.arange(4)))
_DIVISOR = (_POWER + 1.0)[..., None]
_EIGHT_ROWS = np.ones((8, 1))


def _square_moments(x, v0, m0, a2, a3):
    """(int_0^x q^2 ds, int_0^x s q^2 ds) of q = v0 + m0 s + a2 s^2 + a3 s^3,
    elementwise for 1-D arrays, as sums of the 16 terms of q^2 each
    integrated in closed form."""
    p = np.array([v0, m0, a2, a3])
    powers = np.multiply.accumulate(_EIGHT_ROWS * x)
    terms = powers[_POWER] / _DIVISOR * (p[:, None] * p[None])
    return terms.reshape(2, 16, -1).sum(axis=1)


def _hermite(s, v0, m0, a2, a3):
    """v0 + m0 s + a2 s^2 + a3 s^3 in ascending powers, as a
    piecewise-polynomial evaluator sums them."""
    s2 = s * s
    return v0 + m0 * s + a2 * s2 + a3 * (s2 * s)


def _bessel_slopes(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parabolic (Bessel) slope estimates; linear in the data, unlike the
    monotonicity-limited PCHIP slopes."""
    dt = t[1:] - t[:-1]
    delta = (v[1:] - v[:-1]) / dt
    m = np.empty_like(v)
    if t.size == 2:
        m[:] = delta[0]
        return m
    m[1:-1] = _interior_slope(dt[:-1], dt[1:], delta[:-1], delta[1:])
    m[0] = _end_slope(dt[0], dt[1], delta[0], delta[1])
    m[-1] = _end_slope(dt[-1], dt[-2], delta[-1], delta[-2])
    return m


# typed, so that True (equal to 1 and of equal hash) is checked, not served
# the cached nodes of m = 1
@functools.lru_cache(maxsize=16, typed=True)
def _rho_nodes(m: int) -> np.ndarray:
    """Read-only rho_j = j/m for j = 0..m."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ConfigurationError(f"need an integer m >= 1 of rho intervals, got {m!r}")
    try:
        rho = np.linspace(0.0, 1.0, m + 1)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot allocate {m + 1} rho nodes: {exc}") from exc
    rho.flags.writeable = False
    return rho


class HistoryLine:
    """Buffer of boundary-trace samples with cubic Hermite interpolation.

    Samples are finite and their times strictly increasing (`push` takes any
    value, so a blow-up still ends a run as unstable); the span must always
    cover [t - M - slack, t] with slack = M/4.  Each sample carries its
    parabolic (Bessel) slope, so the interpolant is C^1, exact on quadratics
    and linear in the data, which makes simulations superpose; it is not
    monotone.  A Bessel slope depends on a sample and its two neighbours only,
    so appending, overwriting or evicting a sample refreshes the slopes at
    that end alone, and the cached cubic coefficients and square integrals
    of the one or two intervals they touch.
    Queries at stored sample times return the stored values exactly.
    """

    def __init__(self, times, values, M: float):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if times.shape != values.shape:
            raise ConfigurationError("times and values must have equal length")
        if times.size < 2:
            raise ConfigurationError("need at least two history samples")
        for what, arr in (("time", times), ("value", values)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ConfigurationError(
                    f"non-finite history sample {what} {arr[bad[0]]} at index {bad[0]}")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("history sample times must be strictly increasing")
        if not 0 < M < np.inf:   # a NaN fails it too
            raise ConfigurationError(f"delay upper bound M = {M} is non-positive or non-finite")
        n = times.size
        # rows: time, value, slope, and of the interval that starts at the
        # sample the s^2 and s^3 coefficients and the integrals of q^2 and
        # (s - t_i) q^2 (all zero at the newest one, so a query at its time
        # evaluates to the stored value); live samples are columns [lo, hi)
        self._buf = np.zeros((7, max(2 * n, 64)))
        self._buf[:2, :n] = times, values
        self._lo, self._hi = 0, n
        self._refresh_all()
        self.M = float(M)
        self.slack = 0.25 * self.M
        self._max_gap = float(np.max(np.diff(times)))

    def copy(self) -> HistoryLine:
        """An independent line with the same samples (one buffer copy)."""
        new = object.__new__(HistoryLine)
        new.__dict__.update(self.__dict__, _buf=self._buf.copy())
        return new

    # -- buffer maintenance -------------------------------------------------

    @property
    def _t(self) -> np.ndarray:
        return self._buf[0, self._lo:self._hi]

    @property
    def _v(self) -> np.ndarray:
        return self._buf[1, self._lo:self._hi]

    @property
    def _m(self) -> np.ndarray:
        return self._buf[2, self._lo:self._hi]

    @property
    def t_last(self) -> float:
        return self._buf.item(0, self._hi - 1)

    @property
    def t_first(self) -> float:
        return self._buf.item(0, self._lo)

    @property
    def size(self) -> int:
        return self._hi - self._lo

    def _refresh_all(self) -> None:
        """Recompute every slope, interval coefficient and square integral."""
        self._refresh(self._lo, self._hi)

    def _refresh(self, j: int, k: int) -> None:
        """Recompute, from the live samples in columns [j, k), the Bessel
        slopes of the inner ones, plus the first one's at the head (j = lo)
        and the last one's at the tail (k = hi), and the coefficients and
        square integrals of the intervals those slopes touch; a line of at
        most three samples is recomputed whole.  A pushed inf or NaN spreads
        without a warning, as on floats."""
        buf, lo, hi = self._buf, self._lo, self._hi
        if hi - lo <= 3:
            j, k = lo, hi
        first, last = (j if j == lo else j + 1), (k if k == hi else k - 1)
        with np.errstate(all="ignore"):
            m = _bessel_slopes(buf[0, j:k], buf[1, j:k])
            buf[2, first:last] = m[first - j:last - j]
            i = max(first - 1, lo)
            t, v, m = buf[:3, i:min(last + 1, hi)]
            h = t[1:] - t[:-1]
            a2, a3 = _cubic_coeffs(h, v[:-1], v[1:], m[:-1], m[1:])
            buf[3:, i:i + h.size] = a2, a3, *_square_moments(h, v[:-1], m[:-1], a2, a3)

    def push(self, t: float, v: float) -> None:
        """Append a sample (an `extend` by one)."""
        self.extend(np.array([t], dtype=float), np.array([v], dtype=float))

    def extend(self, times, values) -> None:
        """Append samples at increasing finite times after t_last, evicting
        after each one those older than its t - M - slack: the line pushes
        one at a time leave, bit for bit, from one refresh of the tail and,
        after an eviction, one of the head."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if times.size == 0:
            return
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise ConfigurationError(
                f"history sample time must be finite, got {times[bad[0]]}")
        before, max_gap, cutoff = self._cutoffs(times)
        bad = np.flatnonzero(~(times > before))
        if bad.size:
            raise ConfigurationError(
                f"non-monotone push: t={times[bad[0]]} after t_last={before[bad[0]]}")
        n, K = self.size, times.size
        if self._hi + K > self._buf.shape[1]:
            buf = np.empty((7, max(self._buf.shape[1], 4 * n, n + K)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        h0 = self._hi
        self._buf[:2, h0:h0 + K] = times, values
        self._buf[2:, h0:h0 + K] = 0.0
        self._hi += K
        self._max_gap = float(max_gap[-1])
        self._refresh(h0 - 2, self._hi)
        # each push evicts the samples before its cutoff: after them all,
        # those before the largest
        k = int(self._t.searchsorted(cutoff.max()))
        if k > 0:
            self._lo += k
            self._refresh(self._lo, self._lo + 3)

    def _cutoffs(self, times):
        """(before, max_gap, cutoff) of samples appended at `times`: the
        time before each one, the largest gap once it is appended, and its
        eviction cutoff t - M - max(slack, 2 max_gap)."""
        before = np.concatenate(([self.t_last], times[:-1]))
        max_gap = np.maximum.accumulate(np.maximum(times - before, self._max_gap))
        return before, max_gap, times - self.M - np.maximum(self.slack, 2.0 * max_gap)

    def replace_last(self, v: float) -> None:
        """Overwrite the newest stored value."""
        self._buf[1, self._hi - 1] = v
        self._refresh(self._hi - 3, self._hi)

    def monitor_reach(self, start: float, gap: float) -> float:
        """The latest time a sample appended every `gap` after t_last can
        have while the samples before it evict none at or after `start`
        (`plan_block` cuts a block before a window start is evicted)."""
        return start + self.M + max(self.slack, 2.0 * max(self._max_gap, gap))

    def plan_block(self, times, queries, starts):
        """(K, after) for the coming samples at `times` (increasing, after
        t_last) of a caller that steps through them and reads the line as
        pushes one at a time would leave it, bit for bit: step j queries at
        queries[j] before sample j is appended, and row j reads the window
        [starts[j], times[j]] (`trailing_integrals`) once the first K are.

        K is how many samples one monitor pass after the K appends may
        serve, at least 1: with more than one row, every window must start
        at or before the sample before its own, and in the span that stays
        unchanged once all K are appended.  after[j] <= j is how few of the
        block's samples must be appended before step j's query: it reads
        the line after s appends once its query point is at or before the
        second-newest sample then (the intervals up to it keep their
        slopes), and in the span that stays unchanged once j samples are
        appended.  That span starts at the first live sample, or at the
        second live sample once an eviction (which moves the head interval's
        slopes) or, on a line of two samples, the third sample has
        refreshed the head."""
        live = self._t
        before, _, cutoff = self._cutoffs(times)
        # the start of the unchanged span after each append (inf past the
        # old samples)
        k = live.searchsorted(np.maximum.accumulate(cutoff))
        second = np.append(live, np.inf)[np.minimum(k + 1, live.size)]
        if live.size > 2:
            second = np.where(k > 0, second, live[0])
        ok = (starts <= before) & (np.minimum.accumulate(starts) >= second)
        K = max(1, int(np.logical_and.accumulate(ok).sum())) if times.size > 1 else 1
        # the second-newest sample after s appends is entry s
        steps = np.arange(K)
        after = np.minimum(np.concatenate((live[-2:], times)).searchsorted(queries[:K]), steps)
        after[1:] = np.where(queries[1:K] >= second[:K - 1], after[1:], steps[1:])
        return K, after

    # -- queries ------------------------------------------------------------

    def query(self, t) -> np.ndarray | float:
        """Interpolated trace at time(s) t, which must lie in the stored span."""
        buf, lo, hi = self._buf, self._lo, self._hi
        t_first, t_last = buf.item(0, lo), buf.item(0, hi - 1)
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size == 0:
            return np.empty(t_arr.shape)
        t_min, t_max = t_arr.min(), t_arr.max()
        # written so that a NaN fails it
        if not (t_min >= t_first - 1e-14 and t_max <= t_last + 1e-14):
            raise HistoryUnderrunError(
                f"query in [{t_min}, {t_max}] outside stored span [{t_first}, {t_last}]")
        # the column is the number of knots after the first at or before q:
        # q = t_last picks the newest sample itself, evaluated at s = 0
        knots = buf[0, lo + 1:hi]
        q = np.minimum(np.maximum(t_arr, t_first), t_last)
        # searchsorted runs fastest on ascending keys, and a key's column does
        # not depend on the order of the others: a descending query (every
        # z-profile) is searched through its reversed view
        if q.ndim == 1 and q[0] > q[-1]:
            idx = knots.searchsorted(q[::-1], "right")[::-1]
        else:
            idx = knots.searchsorted(q, "right")
        t0, v0, m0, a2, a3 = np.take(buf[:5], lo + idx, axis=1)
        out = _hermite(q - t0, v0, m0, a2, a3)
        return float(out) if t_arr.ndim == 0 else out

    def square_integrals(self, a, b):
        """(q(a), q(b), int_a^b q^2 ds, int_a^b (s - a) q^2 ds) of the
        interpolant q over windows a <= b in the stored span, elementwise for
        arrays a and b (floats for floats); q(a) and q(b) are the values
        `query` returns, bit for bit (`_window_integrals`)."""
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        a, b = self._clamped_windows(a, b)
        buf, lo, hi = self._buf, self._lo, self._hi
        # the column of the interval holding b, as in `query`
        k = lo + buf[0, lo + 1:hi].searchsorted(b, "right")
        tk, *cubic = buf[:5, k]
        with np.errstate(all="ignore"):
            qa, i0, i1 = self._window_integrals(a, b, k, cubic)
            qb = _hermite(b - tk, *cubic)
        if scalar:
            return float(qa[0]), float(qb[0]), float(i0[0]), float(i1[0])
        return qa, qb, i0, i1

    def trailing_integrals(self, a):
        """(q_j(a_j), q_j(t_j), int q_j^2 ds, int (s - a_j) q_j^2 ds) over
        [a_j, t_j] for the newest K = a.size samples t_j, oldest first, where
        q_j is the interpolant as it stood when t_j was the newest sample:
        this one's up to t_{j-1}, whose slopes pushes after t_j left final,
        and on [t_{j-1}, t_j] the cubic with the end slope t_j had then
        (rebuilt, except for the newest sample, which still has it).  Each
        a_j must lie in the span at or before t_j, and at or before t_{j-1}
        unless j is the newest (`plan_block`)."""
        buf, hi = self._buf, self._hi
        cols = np.arange(hi - a.size, hi)
        t0, v0, m0 = buf[:3, cols - 1]
        t1, v1, m1 = buf[:3, cols]
        a, _ = self._clamped_windows(a, t1)
        with np.errstate(all="ignore"):
            if a.size > 1:
                tm, vm = buf[:2, cols[:-1] - 2]
                h0, h1 = t0[:-1] - tm, t1[:-1] - t0[:-1]
                m1[:-1] = _end_slope(h1, h0, (v1[:-1] - v0[:-1]) / h1, (v0[:-1] - vm) / h0)
            a2, a3 = _cubic_coeffs(t1 - t0, v0, v1, m0, m1)
            qa, i0, i1 = self._window_integrals(a, t1, cols - 1, (v0, m0, a2, a3))
            return qa, _hermite(0.0, v1, m1, 0.0, 0.0), i0, i1

    def _clamped_windows(self, a, b):
        """Windows [a, b] checked against the stored span (to 1e-14) and
        clamped into it."""
        t_first, t_last = self.t_first, self.t_last
        # written so that a NaN fails it
        bad = np.flatnonzero(~((a >= t_first - 1e-14) & (b <= t_last + 1e-14)))
        if bad.size:
            j = bad[0]
            raise HistoryUnderrunError(
                f"integral over [{a[j]}, {b[j]}] outside stored span [{t_first}, {t_last}]")
        bad = np.flatnonzero(~(a <= b))
        if bad.size:
            raise ConfigurationError(f"integral over [{a[bad[0]]}, {b[bad[0]]}] has a > b")
        return (np.minimum(np.maximum(a, t_first), t_last),
                np.minimum(np.maximum(b, t_first), t_last))

    def _window_integrals(self, a, b, k, cubic):
        """(q(a), int_a^b q^2 ds, int_a^b (s - a) q^2 ds) over windows [a, b]
        in the span, where q is the line's interpolant before column k and the
        cubic (v0, m0, a2, a3) about t_k on [t_k, b]; a window that starts
        in interval k reads the line's own cubic there.

        The integrals are exact up to roundoff: the partial interval at a,
        re-expanded about a, and the one at b (one `_square_moments` for
        both), plus the cached integrals of the whole intervals between,
        summed afresh for every window (a running prefix sum would cancel as
        they decay), their s - a moments each formed about the window's own
        a (about one point shared by all windows they would cancel)."""
        buf, lo, hi = self._buf, self._lo, self._hi
        i = lo + buf[0, lo + 1:hi].searchsorted(a, "right")
        ti, v0, m0, a2, a3 = buf[:5, i]
        tk = buf[0, k]
        x = a - ti
        qa = _hermite(x, v0, m0, a2, a3)
        same, first = i == k, np.minimum(i + 1, k)
        # head [a, t_{i+1}] (all of [a, b] when i = k) about a, tail [t_k, b]
        i0, i1 = _square_moments(
            np.concatenate((np.where(same, b, buf[0, first]) - a, np.where(same, 0.0, b - tk))),
            *(np.concatenate(pair) for pair in zip(
                (qa, m0 + x * (2.0 * a2 + 3.0 * a3 * x), a2 + 3.0 * a3 * x, a3), cubic)))
        (h0, r0), (h1, r1) = i0.reshape(2, -1), i1.reshape(2, -1)
        if same.all():
            return qa, h0, h1
        # the whole intervals c = first .. k - 1 of each window
        c = int(first.min())
        s5, s6 = _window_sums(buf[5:7, c:hi], first - c, k - c)
        s0 = _moment_sums(buf[0, c:hi], buf[5, c:hi], a, first - c, k - c)
        return (qa, np.where(same, h0, h0 + s5 + r0),
                np.where(same, h1, h1 + (s6 + s0) + r1 + (tk - a) * r0))


# cells of one `_moment_sums` matrix: its temporaries stay near 256 KB
_MOMENT_CELLS = 1 << 15


def _window_sums(x: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """x[:, start[j]:stop[j]].sum(axis=1) for each j (0.0 where empty), each
    summed afresh by one reduceat; stop must be below x.shape[1]."""
    idx = np.empty(2 * start.size, dtype=np.intp)
    idx[0::2], idx[1::2] = np.minimum(start, stop), stop
    return np.where(start < stop, np.add.reduceat(x, idx, axis=1)[:, 0::2], 0.0)


def _moment_sums(t: np.ndarray, w: np.ndarray, a: np.ndarray, start: np.ndarray,
                 stop: np.ndarray) -> np.ndarray:
    """sum of (t[c] - a[j]) w[c] over c in [start[j], stop[j]) for each j
    (0.0 where empty), every term formed about its own a[j]: the terms of a
    chunk of rows over the chunk's columns as one matrix, summed by one
    reduceat over its rows; stop must be below t.size."""
    out = np.empty(a.size)
    rows = max(1, _MOMENT_CELLS // t.size)
    for j in range(0, a.size, rows):
        chunk = slice(j, j + rows)
        c0, c1 = start[chunk].min(), stop[chunk].max() + 1
        terms = t[c0:c1] - a[chunk, None]
        terms *= w[c0:c1]
        base = (c1 - c0) * np.arange(terms.shape[0]) - c0
        out[chunk] = _window_sums(terms.reshape(1, -1), base + start[chunk],
                                  base + stop[chunk])[0]
    return out


def z_profile(h: HistoryLine, dly: DelaySpec, t: float, m: int) -> np.ndarray:
    """z[j] = trace at t - tau(t) * j/m for j = 0..m (rho_j = j/m)."""
    rho = _rho_nodes(m)
    tau, _ = tau_at(dly, t)
    return h.query(t - tau * rho)


def transport_residual(h: HistoryLine, dly: DelaySpec, t: float, m: int,
                       dt_fd: float | None = None) -> float:
    """Finite-difference residual of tau z_t + (1 - tau_dot rho) z_rho = 0.

    Cross-check that the history reconstruction satisfies the transport
    reformulation of the delay; max over interior rho nodes.
    """
    rho = _rho_nodes(m)
    tau, tau_dot = tau_at(dly, t)
    if dt_fd is None:
        dt_fd = tau / m
    zp = z_profile(h, dly, t + dt_fd, m)
    zm = z_profile(h, dly, t - dt_fd, m)
    z0 = z_profile(h, dly, t, m)
    drho = 1.0 / m
    z_t = (zp - zm) / (2.0 * dt_fd)
    z_rho = (z0[2:] - z0[:-2]) / (2.0 * drho)
    res = tau * z_t[1:-1] + (1.0 - tau_dot * rho[1:-1]) * z_rho
    return float(np.max(np.abs(res))) if res.size else 0.0
