"""Boundary-trace history and the transport-variable reconstruction.

The delayed feedback needs eta_xx(t - tau(t), L); instead of co-evolving the
transport equation for z(t, rho) = eta_xx(t - tau(t) rho, L) we keep a
buffer of (time, trace) samples and interpolate.  The transport equation is
retained as a testable invariant through `transport_residual`.
"""

from __future__ import annotations

import functools
import math

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


@functools.lru_cache(maxsize=16)
def _rho_nodes(m: int) -> np.ndarray:
    """Read-only rho_j = j/m for j = 0..m."""
    if m < 1:
        raise ConfigurationError(f"need m >= 1 rho intervals, got {m}")
    rho = np.linspace(0.0, 1.0, m + 1)
    rho.flags.writeable = False
    return rho


class HistoryLine:
    """Buffer of boundary-trace samples with cubic Hermite interpolation.

    Sample times are strictly increasing; the span must always cover
    [t - M - slack, t] with slack = M/4.  Each sample carries its parabolic
    (Bessel) slope, so the interpolant is C^1, exact on quadratics and linear
    in the data, which makes simulations superpose; it is not monotone.  A
    Bessel slope depends on a sample and its two neighbours only, so
    appending, overwriting or evicting a sample refreshes the slopes at that
    end alone, and the cached cubic coefficients of the one or two intervals
    they touch.
    Queries at stored sample times return the stored values exactly.
    """

    def __init__(self, times, values, M: float):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if times.shape != values.shape:
            raise ConfigurationError("times and values must have equal length")
        if times.size < 2:
            raise ConfigurationError("need at least two history samples")
        if not np.all(np.isfinite(times)):
            raise ConfigurationError("history sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("history sample times must be strictly increasing")
        if not M > 0:
            raise ConfigurationError(f"delay upper bound M must be positive, got {M}")
        n = times.size
        # rows: time, value, slope, and the s^2 and s^3 coefficients of the
        # interval that starts at the sample (zero at the newest one, so a
        # query at its time evaluates to the stored value); live samples are
        # columns [lo, hi)
        self._buf = np.zeros((5, max(2 * n, 64)))
        self._buf[:2, :n] = times, values
        self._lo, self._hi = 0, n
        self._refresh_all()
        self.M = float(M)
        self.slack = 0.25 * self.M
        self._max_gap = float(np.max(np.diff(times)))

    @classmethod
    def from_delay_spec(cls, dly: DelaySpec) -> "HistoryLine":
        """Seed the line from the sampled initial history z0 on [-tau(0), 0]."""
        return cls(dly.history_times(), dly.history, M=dly.M)

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
        """Recompute every slope and interval coefficient."""
        t, v, m = self._t, self._v, self._m
        m[:] = _bessel_slopes(t, v)
        self._buf[3:, self._lo:self._hi - 1] = _cubic_coeffs(
            t[1:] - t[:-1], v[:-1], v[1:], m[:-1], m[1:])

    def _refresh(self, head: bool) -> None:
        """Recompute the slopes that depend on the first (head) or last
        sample after it was added, changed or uncovered by eviction, and
        the coefficients of the intervals those slopes touch."""
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
            buf[2:, j] = (m0, *_cubic_coeffs(dt0, v0, v1, m0, m1))
        else:
            m1 = _interior_slope(dt0, dt1, d0, d1)
            m2 = _end_slope(dt1, dt0, d1, d0)
            a0 = _cubic_coeffs(dt0, v0, v1, m0, m1)
            a1 = _cubic_coeffs(dt1, v1, v2, m1, m2)
            buf[2, j + 1:j + 3] = m1, m2
            buf[3:, j:j + 2] = (a0[0], a1[0]), (a0[1], a1[1])

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
            buf = np.empty((5, max(self._buf.shape[1], 4 * n)))
            buf[:, :n] = self._buf[:, self._lo:self._hi]
            self._buf, self._lo, self._hi = buf, 0, n
        self._buf[:, self._hi] = t, v, 0.0, 0.0, 0.0
        self._hi += 1
        self._refresh(head=False)
        cutoff = t - self.M - max(self.slack, 2.0 * self._max_gap)
        k = int(self._t.searchsorted(cutoff))
        if k > 0:
            self._lo += k
            self._refresh(head=True)

    def replace_last(self, v: float) -> None:
        """Overwrite the newest stored value (initial-state compatibility)."""
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
            t0, v0, m0, a2, a3 = buf[:, lo + int(knots.searchsorted(q, "right"))].tolist()
            return _hermite(q - t0, v0, m0, a2, a3)
        q = np.minimum(np.maximum(t_arr, t_first), t_last)
        t0, v0, m0, a2, a3 = buf[:, lo + knots.searchsorted(q, "right")]
        out = _hermite(q - t0, v0, m0, a2, a3)
        return float(out) if t_arr.ndim == 0 else out


def delayed_trace(h: HistoryLine, dly: DelaySpec, t: float) -> float:
    """Trace value at t - tau(t)."""
    tau, _ = tau_at(dly, t)
    return float(h.query(t - tau))


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
