"""Energy, Lyapunov functionals, and the identity residual monitors.

All quadratures are trapezoid: in x over the full grid (clamped boundary
values included as zeros) and in rho over the reconstructed z-profile.
"""

from __future__ import annotations

import numpy as np

from .certificate import check_multipliers
from .delay_line import _rho_nodes
from .errors import ConfigurationError
from .operators import trace_eta_xx_L, trace_omega_xx_0
from .params import DelaySpec, Grid, SystemParams, tau_at


def _field_quad(values_sq: np.ndarray, h: float) -> float:
    """Trapezoid of a nonnegative integrand vanishing at both boundaries."""
    return h * float(values_sq.sum())


def _delay_parts(z: np.ndarray, tau: float, beta: float) -> tuple[float, float]:
    """Delay parts of (E, V2) from the z-profile on rho_j = j/m:
    |beta|/2 tau int z^2 drho and |beta|/2 tau int (1-rho) z^2 drho."""
    m = z.size - 1
    dx = 1.0 / m
    w = 0.5 * abs(beta) * tau
    z2 = z ** 2
    wz2 = (1.0 - _rho_nodes(m)) * z2
    # np.trapezoid's own expression, without its per-call overhead
    return (w * float((dx * (z2[1:] + z2[:-1]) / 2.0).sum()),
            w * float((dx * (wz2[1:] + wz2[:-1]) / 2.0).sum()))


def _monitors(s, p: SystemParams, dly: DelaySpec, m: int, g: Grid
              ) -> tuple[float, float, float, np.ndarray | None]:
    """(E, V1, V2, z) from one z-profile; z is None when beta = 0."""
    E = 0.5 * _field_quad(s.eta ** 2 + s.omega ** 2, g.h)
    V1 = g.h * float((g.nodes * s.eta * s.omega).sum())
    if p.beta == 0.0:
        return E, V1, 0.0, None
    tau, _ = tau_at(dly, s.t)
    z = s.history.query(s.t - tau * _rho_nodes(m))   # the z-profile
    e_delay, V2 = _delay_parts(z, tau, p.beta)
    return E + e_delay, V1, V2, z


def energy(s, p: SystemParams, dly: DelaySpec, m: int = 64,
           grid: Grid | None = None) -> float:
    """E(t) = 1/2 int (eta^2 + omega^2) dx + |beta|/2 tau(t) int z^2 drho."""
    g = grid if grid is not None else Grid(n=s.eta.shape[0], L=p.L)
    return _monitors(s, p, dly, m, g)[0]


def lyapunov(s, p: SystemParams, dly: DelaySpec, mu1: float, mu2: float,
             m: int = 64, grid: Grid | None = None) -> tuple[float, float, float]:
    """(V1, V2, V) with V = E - mu1 V1 + mu2 V2.

    V1 = int x eta omega dx; V2 = |beta|/2 tau(t) int (1-rho) z^2 drho.
    Raises ConfigurationError unless 0 <= mu1 < 1/L and 0 <= mu2 < 1.
    """
    check_multipliers(p, mu1, mu2)
    g = grid if grid is not None else Grid(n=s.eta.shape[0], L=p.L)
    E, V1, V2, _ = _monitors(s, p, dly, m, g)
    return V1, V2, E - mu1 * V1 + mu2 * V2


def energy_sample(s, p: SystemParams, dly: DelaySpec, g: Grid, m: int,
                  mu1: float = 0.0, mu2: float = 0.0) -> tuple[float, ...]:
    """Per-step monitor row (t, E, V, V1, V2, trace_now, trace_delayed), in
    `report.CSV_COLUMNS` order; mu1 = mu2 = 0 degenerates V to E."""
    E, V1, V2, z = _monitors(s, p, dly, m, g)
    V = E - mu1 * V1 + mu2 * V2
    q1 = trace_eta_xx_L(s.eta, g)
    if z is None:
        tau, _ = tau_at(dly, s.t)
        q2 = float(s.history.query(s.t - tau))
    else:
        q2 = float(z[-1])   # rho = 1 is exactly t - tau
    return s.t, E, V, V1, V2, q1, q2


def dissipation_residual(report, p: SystemParams) -> float:
    """max | centered dE/dt - 1/2 q^T Phi q | over interior samples."""
    t, E = report.t, report.E
    if t.size < 3:
        raise ConfigurationError("need at least 3 samples for the centered difference")
    dt = t[1] - t[0]
    dE = (E[2:] - E[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dE - report.dissipation_rhs[1:-1])))


def field_derivatives(eta: np.ndarray, omega: np.ndarray, g: Grid,
                      trace_now: float, trace_delayed: float,
                      p: SystemParams):
    """First and second derivatives on the full grid for the space-time
    quadratures; boundary second derivatives come from the boundary
    conditions (eta_xx(0) = 0, and omega_xx(L) is reconstructed from the
    feedback law)."""
    h = g.h
    # with the zero boundary values; np.pad costs several times more per call
    ef = np.concatenate(([0.0], eta, [0.0]))
    wf = np.concatenate(([0.0], omega, [0.0]))
    n = g.n
    ex = np.zeros(n + 2)
    wx = np.zeros(n + 2)
    ex[1:-1] = (ef[2:] - ef[:-2]) / (2 * h)
    wx[1:-1] = (wf[2:] - wf[:-2]) / (2 * h)   # clamped: boundary slopes are 0
    exx = np.zeros(n + 2)
    wxx = np.zeros(n + 2)
    exx[1:-1] = (ef[2:] - 2 * ef[1:-1] + ef[:-2]) / h ** 2
    wxx[1:-1] = (wf[2:] - 2 * wf[1:-1] + wf[:-2]) / h ** 2
    exx[-1] = trace_now
    wxx[0] = trace_omega_xx_0(omega, g)
    wxx[-1] = p.alpha * trace_now + p.beta * trace_delayed
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
    for k in range(nt):
        e = report.fields_eta[k]
        w = report.fields_omega[k]
        I_l2[k] = _field_quad(e ** 2 + w ** 2, g.h)
        ex, wx, exx, wxx = field_derivatives(
            e, w, g, report.trace_now[k], report.trace_delayed[k], p)
        I_h1[k] = float(np.trapezoid(ex ** 2 + wx ** 2, dx=g.h))
        I_h2[k] = float(np.trapezoid(exx ** 2 + wxx ** 2, dx=g.h))
        bdry[k] = exx[-1] ** 2 + wxx[-1] ** 2

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
