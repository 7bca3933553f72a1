"""The energy and Lyapunov monitor row, and the identity residual monitors.

The field quadratures are trapezoid in x over the full grid (clamped
boundary values included as zeros); the delay terms are exact integrals of
the history's piecewise cubic (`HistoryLine.square_integrals`).  The
monitor takes a block of rows at once, each field quadrature a row-wise dot
product; the Kato residual takes the stored fields in row blocks, each row
with the arithmetic it has alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .operators import trace_omega_xx_0
from .params import DelaySpec, Grid, SystemParams, tau_at


# stored rows per block of the Kato residual: its temporaries stay near 1.4 MB
# at n = 403, where all rows at once would take about 80 MB
_KATO_BLOCK = 32


def _field_quad(values_sq: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid of a nonnegative integrand vanishing at both boundaries,
    one per row."""
    return h * values_sq.sum(axis=-1)


def energy_rows(U: np.ndarray, t: np.ndarray, tau: np.ndarray, history, p: SystemParams,
                g: Grid, mu1: float = 0.0, mu2: float = 0.0) -> np.ndarray:
    """Monitor rows (t, E, V, V1, V2, trace_now, trace_delayed), one column
    each in `report.CSV_COLUMNS` order, of the interleaved states U (one per
    row) at times t, samples of `history`, with tau = tau(t):

        E  = 1/2 int (eta^2 + omega^2) dx + |beta|/2 tau(t) int z^2 drho,
        V1 = int x eta omega dx,   V2 = |beta|/2 tau(t) int (1-rho) z^2 drho,
        V  = E - mu1 V1 + mu2 V2   (mu1 = mu2 = 0 degenerates V to E),

    z(rho) = q(t - tau rho), q the history's interpolant.  With s = t - tau
    rho the delay terms are exact integrals over [t - tau, t]: |beta|/2 int
    q^2 ds and |beta|/(2 tau) int (s - t + tau) q^2 ds
    (`HistoryLine.square_integrals`, which also gives the traces q(t) and
    q(t - tau) as `query` does).  The line is causal, so a row reads the
    same window however many samples came after t, until eviction takes
    its start (HistoryUnderrunError).  With beta = 0 the delay parts are 0.0.

    The x trapezoids are row-wise dot products over the interior nodes (the
    boundary values are zero)."""
    delayed, now, q2, q2_moment = history.square_integrals(t - tau, t)
    c = 0.5 * abs(p.beta)
    E = 0.5 * g.h * np.einsum("ij,ij->i", U, U) + c * q2
    V1 = g.h * np.einsum("ij,ij->i", U[:, 0::2], g.nodes * U[:, 1::2])
    V2 = c / tau * q2_moment
    return np.array([t, E, E - mu1 * V1 + mu2 * V2, V1, V2, now, delayed])


def energy_sample(s, p: SystemParams, dly: DelaySpec, g: Grid,
                  mu1: float = 0.0, mu2: float = 0.0) -> tuple[float, ...]:
    """The monitor row of the state s (`energy_rows` of one row, over the
    window [s.t - tau, s.t] of its history) as a tuple of floats.  A state
    whose history line has moved on (one `Stepper.step` returned, then
    stepped again) gives the row it gave before the move, bit for bit."""
    tau, _ = tau_at(dly, s.t)
    row = energy_rows(s.u[None], np.array([s.t]), np.array([tau]), s.history, p, g, mu1, mu2)
    return tuple(row[:, 0].tolist())


def dissipation_residual(report, p: SystemParams) -> float:
    """max | centered dE/dt - report.dissipation_rhs | over interior samples,
    the rate `run` records as 1/2 q^T Phi(tau_dot(t)) q."""
    t, E = report.t, report.E
    if t.size < 3:
        raise ConfigurationError("need at least 3 samples for the centered difference")
    dt = t[1] - t[0]
    dE = (E[2:] - E[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dE - report.dissipation_rhs[1:-1])))


def field_derivatives(eta: np.ndarray, omega: np.ndarray, g: Grid,
                      trace_now, trace_delayed, p: SystemParams):
    """First and second derivatives on the full grid for the space-time
    quadratures; boundary second derivatives come from the boundary
    conditions (eta_xx(0) = 0, and omega_xx(L) is reconstructed from the
    feedback law).

    The fields may be stacked rows along the last axis, with the traces
    one value per row: every row gets the same arithmetic as alone."""
    h = g.h
    shape = eta.shape[:-1] + (g.n + 2,)
    # with the zero boundary values
    ef = np.zeros(shape)
    wf = np.zeros(shape)
    ef[..., 1:-1] = eta
    wf[..., 1:-1] = omega
    ex = np.zeros(shape)
    wx = np.zeros(shape)
    ex[..., 1:-1] = (ef[..., 2:] - ef[..., :-2]) / (2 * h)
    wx[..., 1:-1] = (wf[..., 2:] - wf[..., :-2]) / (2 * h)   # clamped: boundary slopes are 0
    exx = np.zeros(shape)
    wxx = np.zeros(shape)
    exx[..., 1:-1] = (ef[..., 2:] - 2 * ef[..., 1:-1] + ef[..., :-2]) / h ** 2
    wxx[..., 1:-1] = (wf[..., 2:] - 2 * wf[..., 1:-1] + wf[..., :-2]) / h ** 2
    exx[..., -1] = trace_now
    wxx[..., 0] = trace_omega_xx_0(omega, g)
    wxx[..., -1] = p.alpha * trace_now + p.beta * trace_delayed
    return ex, wx, exx, wxx


def kato_constant(p: SystemParams) -> float:
    """C_L = (5 a1 pi^2 - 3 a L^2)/2; positive iff L is in the certification range."""
    return 0.5 * (5.0 * p.a1 * np.pi ** 2 - 3.0 * p.a * p.L ** 2)


def kato_identity_residual(report, p: SystemParams) -> tuple[float, float]:
    """Residual of the x-weighted multiplier identity over the stored run.

    residual = 1/2 iint (eta^2+omega^2) - 3a/2 iint (eta_x^2+omega_x^2)
               + 5a1/2 iint (eta_xx^2+omega_xx^2)
               - a1 L/2 int (eta_xx(t,L)^2 + omega_xx(t,L)^2) dt
               - int x (eta omega - eta0 omega0) dx            [at t = T]

    Returns (residual, C_L).  Requires stored fields at every step.
    """
    if report.fields_eta is None:
        raise ConfigurationError("kato identity needs store_fields=True in the run")
    n = report.fields_eta.shape[1]
    g = Grid(n=n, L=p.L)
    t = report.t
    nt = t.size
    I_l2 = np.empty(nt)
    I_h1 = np.empty(nt)
    I_h2 = np.empty(nt)
    bdry = np.empty(nt)
    for k in range(0, nt, _KATO_BLOCK):
        rows = slice(k, k + _KATO_BLOCK)
        e, w = report.fields_eta[rows], report.fields_omega[rows]
        I_l2[rows] = _field_quad(e ** 2 + w ** 2, g.h)
        ex, wx, exx, wxx = field_derivatives(
            e, w, g, report.trace_now[rows], report.trace_delayed[rows], p)
        I_h1[rows] = np.trapezoid(ex ** 2 + wx ** 2, dx=g.h)
        I_h2[rows] = np.trapezoid(exx ** 2 + wxx ** 2, dx=g.h)
        bdry[rows] = exx[:, -1] ** 2 + wxx[:, -1] ** 2

    def tint(v):
        return float(np.trapezoid(v, x=t))

    x = g.nodes

    def xmoment(e, w):
        return g.h * float(np.sum(x * e * w))

    residual = (0.5 * tint(I_l2)
                - 1.5 * p.a * tint(I_h1)
                + 2.5 * p.a1 * tint(I_h2)
                - 0.5 * p.a1 * p.L * tint(bdry)
                - (xmoment(report.fields_eta[-1], report.fields_omega[-1])
                   - xmoment(report.fields_eta[0], report.fields_omega[0])))
    return residual, kato_constant(p)
