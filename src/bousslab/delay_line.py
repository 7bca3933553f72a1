"""Boundary-trace history and the transport-variable reconstruction.

The delayed feedback needs eta_xx(t - tau(t), L); instead of co-evolving the
transport equation for z(t, rho) = eta_xx(t - tau(t) rho, L) we keep a
buffer of (time, trace) samples and interpolate.  The line is causal, as a
method-of-steps solver keeps the continuous extension of each accepted step:
a sample's slope is fixed when it is pushed, so the interpolant over a
window does not change while the window stays in the span.  It keeps every
sample until its owner drops the past (`HistoryLine.drop_before`), takes
all but a fresh line's first two samples through `HistoryLine.extend`, and
finds the intervals of both reads by `HistoryLine._locate`.  The
substitution s = t - tau rho turns the monitors' rho integrals of z^2 into
exact integrals of the interpolant's square over [t - tau, t]
(`HistoryLine.square_integrals`).  The transport equation is retained as a
testable invariant through `transport_residual`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigurationError, HistoryUnderrunError
from .params import DelaySpec, tau_at

# The slope, coefficient and evaluation formulas below run elementwise on
# numpy arrays: a block of samples, rows or query points gets, element by
# element, the operations one would get alone.


def _interior_slope(dt0, dt1, d0, d1):
    """Slope at the middle of three samples, from the parabola through them
    (its two secants d0, d1)."""
    return (dt1 * d0 + dt0 * d1) / (dt0 + dt1)


def _end_slope(dt_near, dt_far, d_near, d_far):
    """End slope from the parabola through the three outermost samples."""
    return ((2 * dt_near + dt_far) * d_near - dt_near * d_far) / (dt_near + dt_far)


def _secants(t, v):
    """Widths and secant slopes of the intervals between samples t, v."""
    h = t[1:] - t[:-1]
    return h, (v[1:] - v[:-1]) / h


def _cubic_coeffs(h, d, m0, m1):
    """s^2 and s^3 coefficients of the Hermite cubic on an interval of width
    h and secant slope d."""
    c = (m0 + m1 - 2 * d) / h
    return (d - m0) / h - c, c / h


# q^2 = sum_ij p_i p_j s^(i+j) for q = sum_i p_i s^i: int_0^x s^m q^2 ds has
# the terms p_i p_j x^(i+j+m+1) / (i+j+m+1); the row of x^(i+j+m+1) among the
# powers x^1 .. x^8, and the divisor, for moments m = 0, 1
_POWER = np.add.outer(np.arange(2), np.add.outer(np.arange(4), np.arange(4))).reshape(2, 16)
_DIVISOR = (_POWER + 1.0)[..., None]
_EIGHT_ROWS = np.ones((8, 1))


def _square_moments(x, v0, m0, a2, a3):
    """(int_0^x q^2 ds, int_0^x s q^2 ds) of q = v0 + m0 s + a2 s^2 + a3 s^3,
    elementwise for 1-D arrays, as sums of the 16 terms of q^2 each
    integrated in closed form.  The terms are summed by halves, in one order
    whatever the number of elements (a reduction over them would sum one
    element pairwise and several in sequence)."""
    p = np.array([v0, m0, a2, a3])
    terms = np.multiply.accumulate(_EIGHT_ROWS * x)[_POWER]
    terms /= _DIVISOR
    terms *= (p[:, None] * p[None]).reshape(16, -1)
    for half in (8, 4, 2, 1):
        terms = terms[:, :half] + terms[:, half:]
    return terms[:, 0]


def _hermite(s, v0, m0, a2, a3):
    """v0 + m0 s + a2 s^2 + a3 s^3 in ascending powers, as a
    piecewise-polynomial evaluator sums them."""
    s2 = s * s
    return v0 + m0 * s + a2 * s2 + a3 * (s2 * s)


def _rho_nodes(m: int) -> np.ndarray:
    """rho_j = j/m for j = 0..m."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ConfigurationError(f"need an integer m >= 1 of rho intervals, got {m!r}")
    try:
        return np.linspace(0.0, 1.0, m + 1)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot allocate {m + 1} rho nodes: {exc}") from exc


class HistoryLine:
    """Buffer of boundary-trace samples with cubic Hermite interpolation.

    Samples are finite and their times strictly increasing (`push` takes any
    value, so a blow-up still ends a run as unstable).  The line is
    append-only: it grows by `push` and `extend`, and its owner shrinks it
    from the start by `drop_before`; no stored sample ever changes, and the
    line does not bound itself.  It is causal: each pushed sample gets the
    end slope of the parabola through it and its two predecessors, stored
    once, so no interval changes after a later push or a drop.  A fresh
    line's first two samples get the slopes of the parabola through its
    first three (the secant on a line of two), the others one `extend`.
    The interpolant is C^1, exact on quadratics and linear in the data,
    which makes simulations superpose; it is not monotone.  Each interval
    caches its cubic coefficients.  Queries at stored sample times return
    the stored values exactly.
    """

    def __init__(self, times, values):
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
        # rows: time, value, slope, and the s^2 and s^3 coefficients of the
        # interval that starts at the sample (zero at the newest one, so a
        # query at its time evaluates to the stored value); live samples are
        # columns [lo, hi)
        self._buf = buf = np.zeros((5, max(2 * times.size, 64)))
        self._lo, self._hi = 0, 2
        # the first two samples and interval 0; the rest as pushed samples
        buf[:2, :2] = times[:2], values[:2]
        with np.errstate(all="ignore"):
            h, d = _secants(times[:3], values[:3])
            m = (d[0], d[0]) if h.size == 1 else (_end_slope(*h, *d), _interior_slope(*h, *d))
            buf[2, :2] = m
            buf[3:, 0] = _cubic_coeffs(h[0], d[0], *m)
        self.extend(times[2:], values[2:])

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

    def push(self, t: float, v: float) -> None:
        """Append a sample (an `extend` by one)."""
        self.extend(np.array([t], dtype=float), np.array([v], dtype=float))

    def extend(self, times, values) -> None:
        """Append samples at increasing finite times after t_last, one value
        per time, each with the end slope of the parabola through it and its
        two predecessors; the stored samples keep theirs, so K pushes leave
        the same line, bit for bit.  A refused extend leaves the line as it was."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if times.shape != values.shape:
            raise ConfigurationError(f"extend by {times.size} times and {values.size} values")
        K = times.size
        if K == 0:
            return
        first, t_last = times.item(0), self.t_last
        gaps = times[1:] - times[:-1]
        # written so that a NaN fails it: the times are then finite
        if not (first > t_last and times.item(-1) < np.inf and (K == 1 or gaps.min() > 0)):
            bad = np.flatnonzero(~np.isfinite(times))
            if bad.size:
                raise ConfigurationError(
                    f"history sample time must be finite, got {times[bad[0]]}")
            before = np.concatenate(([t_last], times[:-1]))
            bad = np.flatnonzero(~(times > before))[0]
            raise ConfigurationError(
                f"non-monotone push: t={times[bad]} after t_last={before[bad]}")
        n = self.size
        if self._hi + K > self._buf.shape[1]:
            buf = np.empty((5, max(self._buf.shape[1], 4 * n, n + K)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        buf, j = self._buf, self._hi
        self._hi = k = j + K
        buf[0, j:k] = times
        buf[1, j:k] = values
        buf[3:, k - 1] = 0.0
        # the new slopes and the cubics of the intervals that end at them; a
        # pushed inf or NaN spreads without a warning, as on floats
        with np.errstate(all="ignore"):
            h, d = _secants(*buf[:2, j - 2:k])
            buf[2, j:k] = m = _end_slope(h[1:], h[:-1], d[1:], d[:-1])
            buf[3:, j - 1:k - 1] = _cubic_coeffs(h[1:], d[1:], buf[2, j - 1:k - 1], m)

    def drop_before(self, t: float) -> None:
        """Drop the samples before the last one at or before t (none for a
        NaN), but never the newest two, which a push reads.  Only the line's
        start moves, so a query or an integral at or after t reads the same
        bits."""
        if t >= self.t_first:   # written so that a NaN fails it
            dropped = int(self._t.searchsorted(t, "right")) - 1
            self._lo = max(self._lo, min(self._lo + dropped, self._hi - 2))

    # -- queries ------------------------------------------------------------

    def query(self, t) -> np.ndarray | float:
        """Interpolated trace at time(s) t, which must lie in the stored span
        (`_locate`); each point, in any order of the points, gets the bits it
        gets alone, and no points give an empty array."""
        t_arr = np.asarray(t, dtype=float)
        cols, q = self._locate(t_arr, "query")
        t0, v0, m0, a2, a3 = np.take(self._buf[:5], cols, axis=1)
        out = _hermite(q - t0, v0, m0, a2, a3)
        return float(out) if t_arr.ndim == 0 else out

    def _locate(self, points: np.ndarray, what: str):
        """(cols, clamped) of points checked against the stored span (to
        1e-14; a NaN fails, `what` names the read), clamped into it, and the
        buffer columns of the intervals that hold them."""
        buf, lo, hi = self._buf, self._lo, self._hi
        t_first, t_last = buf.item(0, lo), buf.item(0, hi - 1)
        p_min, p_max = points.min(initial=np.inf), points.max(initial=-np.inf)
        # written so that a NaN fails it
        if not (p_min >= t_first - 1e-14 and p_max <= t_last + 1e-14):
            raise HistoryUnderrunError(
                f"{what} in [{p_min}, {p_max}] outside stored span [{t_first}, {t_last}]")
        clamped = np.minimum(np.maximum(points, t_first), t_last)
        # the column is lo plus the number of knots after the first at or
        # before the point: t_last picks the newest sample itself, read at s = 0
        return lo + buf[0, lo + 1:hi].searchsorted(clamped, "right"), clamped

    def square_integrals(self, a, b):
        """(q(a), q(b), int_a^b q^2 ds, int_a^b (s - a) q^2 ds) of the
        interpolant q over windows a <= b in the stored span, elementwise for
        arrays a and b of one shape (floats for floats; four empty arrays for
        no windows); q(a) and q(b) are the values `query` returns, bit for
        bit.  An end outside the span, or NaN, is a HistoryUnderrunError
        (`_locate`), and then a window with a > b a ConfigurationError.

        The integrals are exact up to roundoff: the partial interval at a,
        re-expanded about a, the one at b and the whole intervals between
        are integrated in closed form by one `_square_moments` for all
        windows.  The whole intervals are summed afresh for every window (a
        running prefix sum would cancel as they decay), their s - a moments
        each formed about the window's own a (about one point shared by all
        windows they would cancel)."""
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise ConfigurationError(f"integrals over {a.size} window starts and {b.size} ends")
        n = a.size
        # the columns of the ends a then b, clamped into the span, and their cubics
        cols, ends = self._locate(np.concatenate((a, b)), "integral")
        if not (a <= b).all():
            j = np.flatnonzero(~(a <= b))[0]
            raise ConfigurationError(f"integral over [{a[j]}, {b[j]}] has a > b")
        if n == 0:
            return tuple(np.empty(a.shape) for _ in range(4))
        buf = self._buf
        ts, vs, ms, a2s, a3s = buf[:5, cols]
        x = ends - ts
        i, k = cols[:n], cols[n:]
        same, first = i == k, np.minimum(i + 1, k)
        # the whole intervals c .. e - 1 that some window covers, and column
        # e with width 0, which no window sums
        c, e = int(first.min()), int(k.max())
        t, *whole = buf[:5, c:e + 1]
        a, xa, a2, a3 = ends[:n], x[:n], a2s[:n], a3s[:n]
        with np.errstate(all="ignore"):
            q = _hermite(x, vs, ms, a2s, a3s)
            # head [a, t_{i+1}] (all of [a, b] when i = k) about a, tail
            # [t_k, b], then the whole intervals
            head = (q[:n], ms[:n] + xa * (2.0 * a2 + 3.0 * a3 * xa), a2 + 3.0 * a3 * xa, a3)
            moments = _square_moments(
                np.concatenate((np.where(same, ends[n:], buf[0, first]) - a,
                                np.where(same, 0.0, x[n:]), t[1:] - t[:-1], [0.0])),
                *(np.concatenate(parts) for parts in zip(
                    head, (vs[n:], ms[n:], a2s[n:], a3s[n:]), whole)))
            i0, i1 = moments[:, :n]
            if not same.all():
                (r0, r1), w = moments[:, n:2 * n], moments[:, 2 * n:]
                s5, s6 = _window_sums(w, first - c, k - c)
                s0 = _moment_sums(t, w[0], a, first - c, k - c)
                i1 = np.where(same, i1, i1 + (s6 + s0) + r1 + (ts[n:] - a) * r0)
                i0 = np.where(same, i0, i0 + s5 + r0)
        qa, qb = q[:n], q[n:]
        if scalar:
            return float(qa[0]), float(qb[0]), float(i0[0]), float(i1[0])
        return qa, qb, i0, i1


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
    """z[j] = trace at t - tau(t) * j/m for j = 0..m (rho_j = j/m), the
    transport variable that `transport_residual` differentiates."""
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
