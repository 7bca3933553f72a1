"""Boundary-trace history and the transport-variable reconstruction.

The delayed feedback needs eta_xx(t - tau(t), L); instead of co-evolving the
transport equation for z(t, rho) = eta_xx(t - tau(t) rho, L) we keep a
buffer of (time, trace) samples and interpolate.  The transport equation is
retained as a testable invariant through `transport_residual`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, HistoryUnderrunError
from .params import DelaySpec, tau_at


def _bessel_slopes(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parabolic (Bessel) slope estimates; linear in the data, unlike the
    monotonicity-limited PCHIP slopes."""
    dt = t[1:] - t[:-1]
    delta = (v[1:] - v[:-1]) / dt
    m = np.empty_like(v)
    if t.size == 2:
        m[:] = delta[0]
        return m
    m[1:-1] = (dt[1:] * delta[:-1] + dt[:-1] * delta[1:]) / (dt[:-1] + dt[1:])
    # end slopes from the parabola through the three outermost points
    m[0] = ((2 * dt[0] + dt[1]) * delta[0] - dt[0] * delta[1]) / (dt[0] + dt[1])
    m[-1] = ((2 * dt[-1] + dt[-2]) * delta[-1]
             - dt[-1] * delta[-2]) / (dt[-1] + dt[-2])
    return m


class HistoryLine:
    """Buffer of boundary-trace samples with cubic Hermite interpolation.

    Sample times are strictly increasing; the span must always cover
    [t - M - slack, t].  Each sample carries its parabolic (Bessel) slope,
    so the interpolant is C^1, exact on quadratics and linear in the data,
    which makes simulations superpose; it is not monotone.  A Bessel slope
    depends on a sample and its two neighbours only, so appending,
    overwriting or evicting a sample refreshes the slopes at that end alone.
    Queries at stored sample times return the stored values exactly.
    """

    def __init__(self, times, values, M: float, slack: float | None = None):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if times.shape != values.shape:
            raise ConfigurationError("times and values must have equal length")
        if times.size < 2:
            raise ConfigurationError("need at least two history samples")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("history sample times must be strictly increasing")
        if M <= 0:
            raise ConfigurationError(f"delay upper bound M must be positive, got {M}")
        n = times.size
        # rows: time, value, slope; live samples are columns [lo, hi)
        self._buf = np.empty((3, max(2 * n, 64)))
        self._buf[:, :n] = times, values, _bessel_slopes(times, values)
        self._lo, self._hi = 0, n
        self.M = float(M)
        self.slack = float(slack) if slack is not None else 0.25 * float(M)
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
        return float(self._buf[0, self._hi - 1])

    @property
    def t_first(self) -> float:
        return float(self._buf[0, self._lo])

    @property
    def size(self) -> int:
        return self._hi - self._lo

    def _refresh_slopes(self, head: bool) -> None:
        """Recompute the slopes that depend on the first (head) or last
        sample after it was added, changed or uncovered by eviction."""
        t, v, m = self._t, self._v, self._m
        if t.size <= 3:
            m[:] = _bessel_slopes(t, v)
        elif head:
            m[0] = _bessel_slopes(t[:3], v[:3])[0]
        else:
            m[-2:] = _bessel_slopes(t[-3:], v[-3:])[1:]

    def push(self, t: float, v: float) -> None:
        """Append a sample; evict samples older than t - M - slack."""
        t = float(t)
        t_last = self.t_last
        if t <= t_last:
            raise ConfigurationError(
                f"non-monotone push: t={t} after t_last={t_last}")
        self._max_gap = max(self._max_gap, t - t_last)
        if self._hi == self._buf.shape[1]:
            n = self.size
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

    def replace_last(self, v: float) -> None:
        """Overwrite the newest stored value (initial-state compatibility)."""
        self._buf[1, self._hi - 1] = v
        self._refresh_slopes(head=False)

    # -- queries ------------------------------------------------------------

    def query(self, t) -> np.ndarray | float:
        """Interpolated trace at time(s) t, which must lie in the stored span."""
        t_arr = np.asarray(t, dtype=float)
        ts, vs, ms = self._t, self._v, self._m
        lo, hi = t_arr.min(), t_arr.max()
        if lo < ts[0] - 1e-14 or hi > ts[-1] + 1e-14:
            raise HistoryUnderrunError(
                f"query in [{lo}, {hi}] outside stored span [{ts[0]}, {ts[-1]}]")
        q = np.minimum(np.maximum(t_arr, ts[0]), ts[-1])
        i = np.minimum(np.searchsorted(ts, q, side="right") - 1, ts.size - 2)
        t0, v0, m0, m1 = ts[i], vs[i], ms[i], ms[i + 1]
        h = ts[i + 1] - t0
        slope = (vs[i + 1] - v0) / h
        c = (m0 + m1 - 2 * slope) / h
        s = q - t0
        s2 = s * s
        # ascending powers, as a piecewise-polynomial evaluator sums them
        out = v0 + m0 * s + ((slope - m0) / h - c) * s2 + (c / h) * (s2 * s)
        return float(out) if t_arr.ndim == 0 else out


def delayed_trace(h: HistoryLine, dly: DelaySpec, t: float) -> float:
    """Trace value at t - tau(t)."""
    tau, _ = tau_at(dly, t)
    return float(h.query(t - tau))


def z_profile(h: HistoryLine, dly: DelaySpec, t: float, m: int) -> np.ndarray:
    """z[j] = trace at t - tau(t) * j/m for j = 0..m (rho_j = j/m)."""
    if m < 1:
        raise ConfigurationError(f"need m >= 1 rho intervals, got {m}")
    tau, _ = tau_at(dly, t)
    return h.query(t - tau * np.linspace(0.0, 1.0, m + 1))


def transport_residual(h: HistoryLine, dly: DelaySpec, t: float, m: int,
                       dt_fd: float | None = None) -> float:
    """Finite-difference residual of tau z_t + (1 - tau_dot rho) z_rho = 0.

    Cross-check that the history reconstruction satisfies the transport
    reformulation of the delay; max over interior rho nodes.
    """
    tau, tau_dot = tau_at(dly, t)
    if dt_fd is None:
        dt_fd = tau / m
    zp = z_profile(h, dly, t + dt_fd, m)
    zm = z_profile(h, dly, t - dt_fd, m)
    z0 = z_profile(h, dly, t, m)
    drho = 1.0 / m
    z_t = (zp - zm) / (2.0 * dt_fd)
    z_rho = (z0[2:] - z0[:-2]) / (2.0 * drho)
    rho_int = np.linspace(0.0, 1.0, m + 1)[1:-1]
    res = tau * z_t[1:-1] + (1.0 - tau_dot * rho_int) * z_rho
    return float(np.max(np.abs(res))) if res.size else 0.0
