"""Boundary-trace history and the transport-variable reconstruction.

The delayed feedback needs eta_xx(t - tau(t), L); instead of co-evolving the
transport equation for z(t, rho) = eta_xx(t - tau(t) rho, L) we keep a
buffer of (time, trace) samples and interpolate.  The substitution
s = t - tau rho turns the monitors' rho integrals of z^2 into exact integrals
of the interpolant's square over [t - tau, t] (`HistoryLine.square_integrals`).
The transport equation is retained as a testable invariant through
`transport_residual`.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import ConfigurationError, HistoryUnderrunError
from .params import DelaySpec, tau_at

# The slope, coefficient and evaluation formulas below take Python floats or
# numpy arrays alike: the per-step path runs them on floats, construction and
# multi-point queries on arrays, with the same operations in the same order.


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


def _square_moments(x, v0, m0, a2, a3):
    """(int_0^x q^2 ds, int_0^x s q^2 ds) of q = v0 + m0 s + a2 s^2 + a3 s^3:
    q^2 = sum c_k s^k integrated term by term, by Horner in x."""
    c1 = 2.0 * v0 * m0
    c2 = m0 * m0 + 2.0 * v0 * a2
    c3 = 2.0 * (v0 * a3 + m0 * a2)
    c4 = a2 * a2 + 2.0 * m0 * a3
    c5 = 2.0 * a2 * a3
    c6 = a3 * a3
    i0 = x * (v0 * v0 + x * (c1 / 2.0 + x * (c2 / 3.0 + x * (
        c3 / 4.0 + x * (c4 / 5.0 + x * (c5 / 6.0 + x * (c6 / 7.0)))))))
    i1 = x * x * (v0 * v0 / 2.0 + x * (c1 / 3.0 + x * (c2 / 4.0 + x * (
        c3 / 5.0 + x * (c4 / 6.0 + x * (c5 / 7.0 + x * (c6 / 8.0)))))))
    return i0, i1


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
        t, v, m = self._t, self._v, self._m
        m[:] = _bessel_slopes(t, v)
        h = t[1:] - t[:-1]
        a2, a3 = _cubic_coeffs(h, v[:-1], v[1:], m[:-1], m[1:])
        self._buf[3:, self._lo:self._hi - 1] = (
            a2, a3, *_square_moments(h, v[:-1], m[:-1], a2, a3))

    def _refresh(self, head: bool) -> None:
        """Recompute the slopes that depend on the first (head) or last
        sample after it was added, changed or uncovered by eviction, and
        the coefficients and square integrals of the intervals those slopes
        touch."""
        if self.size <= 3:
            self._refresh_all()
            return
        buf = self._buf
        j = self._lo if head else self._hi - 3
        (t0, t1, t2), (v0, v1, v2), (m0, m1, m2) = buf[:3, j:j + 3].tolist()
        dt0, dt1 = t1 - t0, t2 - t1
        d0, d1 = (v1 - v0) / dt0, (v2 - v1) / dt1
        if head:
            m0 = _end_slope(dt0, dt1, d0, d1)
            a2, a3 = _cubic_coeffs(dt0, v0, v1, m0, m1)
            buf[2:, j] = (m0, a2, a3, *_square_moments(dt0, v0, m0, a2, a3))
        else:
            m1 = _interior_slope(dt0, dt1, d0, d1)
            m2 = _end_slope(dt1, dt0, d1, d0)
            a2, a3 = _cubic_coeffs(dt0, v0, v1, m0, m1)
            b2, b3 = _cubic_coeffs(dt1, v1, v2, m1, m2)
            buf[2, j + 1:j + 3] = m1, m2
            buf[3:, j] = (a2, a3, *_square_moments(dt0, v0, m0, a2, a3))
            buf[3:, j + 1] = (b2, b3, *_square_moments(dt1, v1, m1, b2, b3))

    def push(self, t: float, v: float) -> None:
        """Append a sample; evict samples older than t - M - slack."""
        t = float(t)
        if not math.isfinite(t):
            raise ConfigurationError(f"history sample time must be finite, got {t}")
        t_last = self.t_last
        if t <= t_last:
            raise ConfigurationError(
                f"non-monotone push: t={t} after t_last={t_last}")
        self._max_gap = max(self._max_gap, t - t_last)
        if self._hi == self._buf.shape[1]:
            n = self.size
            buf = np.empty((7, max(self._buf.shape[1], 4 * n)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        self._buf[:, self._hi] = t, v, 0.0, 0.0, 0.0, 0.0, 0.0
        self._hi += 1
        self._refresh(head=False)
        cutoff = t - self.M - max(self.slack, 2.0 * self._max_gap)
        k = int(self._t.searchsorted(cutoff))
        if k > 0:
            self._lo += k
            self._refresh(head=True)

    def replace_last(self, v: float) -> None:
        """Overwrite the newest stored value."""
        self._buf[1, self._hi - 1] = v
        self._refresh(head=False)

    # -- queries ------------------------------------------------------------

    def query(self, t) -> np.ndarray | float:
        """Interpolated trace at time(s) t, which must lie in the stored span."""
        buf, lo, hi = self._buf, self._lo, self._hi
        t_first, t_last = buf.item(0, lo), buf.item(0, hi - 1)
        if isinstance(t, float):
            t_arr, t_min, t_max = None, t, t
        else:
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
        if t_arr is None:
            q = min(max(float(t), t_first), t_last)
            t0, v0, m0, a2, a3 = buf[:5, lo + int(knots.searchsorted(q, "right"))].tolist()
            return _hermite(q - t0, v0, m0, a2, a3)
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

    def square_integrals(self, a: float, b: float) -> tuple[float, float, float, float]:
        """(q(a), q(b), int_a^b q^2 ds, int_a^b (s - a) q^2 ds) of the
        interpolant q, for a <= b in the stored span; q(a) and q(b) are the
        values `query` returns, bit for bit.

        The integrals are exact up to roundoff: the cached integrals of the
        whole intervals inside [a, b], summed afresh on every call (a running
        prefix sum would cancel as they decay), plus the partial interval at
        each end, the one at a re-expanded about a."""
        buf, lo, hi = self._buf, self._lo, self._hi
        t_first, t_last = buf.item(0, lo), buf.item(0, hi - 1)
        # written so that a NaN fails it
        if not (a >= t_first - 1e-14 and b <= t_last + 1e-14):
            raise HistoryUnderrunError(
                f"integral over [{a}, {b}] outside stored span [{t_first}, {t_last}]")
        if not a <= b:
            raise ConfigurationError(f"integral over [{a}, {b}] has a > b")
        a = min(max(a, t_first), t_last)
        b = min(max(b, t_first), t_last)
        # the columns of the intervals holding a and b, as in `query`
        knots = buf[0, lo + 1:hi]
        i = lo + int(knots.searchsorted(a, "right"))
        k = lo + int(knots.searchsorted(b, "right"))
        ti, v0, m0, a2, a3 = buf[:5, i].tolist()
        tk, *cubic_k = buf[:5, k].tolist()
        x = a - ti
        qa, qb = _hermite(x, v0, m0, a2, a3), _hermite(b - tk, *cubic_k)
        about_a = (qa, m0 + x * (2.0 * a2 + 3.0 * a3 * x), a2 + 3.0 * a3 * x, a3)
        if i == k:
            return (qa, qb, *_square_moments(b - a, *about_a))
        i0, i1 = _square_moments(buf.item(0, i + 1) - a, *about_a)
        whole = slice(i + 1, k)
        i0 += float(buf[5, whole].sum())
        i1 += float(buf[6, whole].sum() + (buf[0, whole] - a) @ buf[5, whole])
        r0, r1 = _square_moments(b - tk, *cubic_k)
        return qa, qb, i0 + r0, i1 + r1 + (tk - a) * r0


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
