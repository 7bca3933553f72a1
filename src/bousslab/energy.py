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


# stored rows per block of the Kato residual (`_kato_block`): its temporaries
# peak near 1.0 MB at n = 403, where all rows at once would take about 60 MB
_KATO_BLOCK = 32


def energy_rows(U: np.ndarray, t: np.ndarray, dly: DelaySpec, history, p: SystemParams,
                g: Grid, mu1: float = 0.0, mu2: float = 0.0) -> np.ndarray:
    """Monitor rows (t, E, V, V1, V2, trace_now, trace_delayed), one column
    each in `report.CSV_COLUMNS` order, of the interleaved states U (one per
    row) at times t, samples of `history`, with tau = tau(t) of dly's law
    (`tau_at`, which refuses a negative or NaN time):

        E  = 1/2 int (eta^2 + omega^2) dx + |beta|/2 tau(t) int z^2 drho,
        V1 = int x eta omega dx,   V2 = |beta|/2 tau(t) int (1-rho) z^2 drho,
        V  = E - mu1 V1 + mu2 V2   (mu1 = mu2 = 0 degenerates V to E),

    z(rho) = q(t - tau rho), q the history's interpolant.  With s = t - tau
    rho the delay terms are exact integrals over [t - tau, t]: |beta|/2 int
    q^2 ds and |beta|/(2 tau) int (s - t + tau) q^2 ds
    (`HistoryLine.square_integrals`, which also gives the traces q(t) and
    q(t - tau) as `query` does).  The line is causal, so a row reads the
    same window however many samples came after t, until a drop takes its
    start (HistoryUnderrunError).  With beta = 0 the delay parts are 0.0.

    The x trapezoids are row-wise dot products over the interior nodes (the
    boundary values are zero)."""
    tau = tau_at(dly, t)[0]
    delayed, now, q2, q2_moment = history.square_integrals(t - tau, t)
    c = 0.5 * abs(p.beta)
    E = 0.5 * g.h * np.einsum("ij,ij->i", U, U) + c * q2
    V1 = g.h * np.einsum("ij,ij->i", U[:, 0::2], g.nodes * U[:, 1::2])
    V2 = c / tau * q2_moment
    return np.array([t, E, E - mu1 * V1 + mu2 * V2, V1, V2, now, delayed])


def _check_state_size(u: np.ndarray, g: Grid) -> None:
    if u.shape != (2 * g.n,):
        raise ConfigurationError(f"state shape {u.shape} != ({2 * g.n},), (eta, omega) on n = {g.n}")


def energy_sample(s, p: SystemParams, dly: DelaySpec, g: Grid,
                  mu1: float = 0.0, mu2: float = 0.0) -> tuple[float, ...]:
    """The monitor row of the state s (`energy_rows` of one row, over the
    window [s.t - tau, s.t] of its history) as a tuple of floats.  A state
    whose history line has moved on (one `Stepper.step` returned, then
    stepped again) gives the row it gave before the move, bit for bit, or,
    once a later block has dropped the start of its window, raises
    HistoryUnderrunError.  A state not of g's size is a ConfigurationError."""
    _check_state_size(s.u, g)
    row = energy_rows(s.u[None], np.array([s.t]), dly, s.history, p, g, mu1, mu2)
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


def _kato_block(eta: np.ndarray, omega: np.ndarray, h: float) -> np.ndarray:
    """(int eta^2 + omega^2, int eta_x^2 + omega_x^2, the interior nodes' part
    of int eta_xx^2 + omega_xx^2) of each stored row, three row-wise dot
    products: of the interleaved state (eta_1, omega_1, ...) between two zero
    nodes, and of its central first and second differences, where a node's
    neighbours sit two columns away.  A row gets the bits it gets alone."""
    rows, n = eta.shape
    z = np.zeros((rows, 2 * n + 4))
    z[:, 2:-2:2] = eta
    z[:, 3:-2:2] = omega
    u = z[:, 2:-2]
    d1 = z[:, 4:] - z[:, :-4]
    d1 /= 2 * h
    d2 = z[:, 4:] - 2 * u
    d2 += z[:, :-4]
    d2 /= h ** 2
    return h * np.array([np.einsum("ij,ij->i", v, v) for v in (u, d1, d2)])


def kato_constant(p: SystemParams) -> float:
    """C_L = (5 a1 pi^2 - 3 a L^2)/2; positive iff L is in the certification range."""
    return 0.5 * (5.0 * p.a1 * np.pi ** 2 - 3.0 * p.a * p.L ** 2)


def kato_identity_residual(report, p: SystemParams) -> tuple[float, float]:
    """Residual of the x-weighted multiplier identity over the stored run.

    residual = 1/2 iint (eta^2+omega^2) - 3a/2 iint (eta_x^2+omega_x^2)
               + 5a1/2 iint (eta_xx^2+omega_xx^2)
               - a1 L/2 int (eta_xx(t,L)^2 + omega_xx(t,L)^2) dt
               - int x (eta omega - eta0 omega0) dx            [at t = T]

    Returns (residual, C_L).  Requires stored fields at every step.  The x
    integrals are trapezoids over the full grid (`_kato_block`, in row
    blocks), the boundary values zero but for the second derivatives from
    the boundary conditions: eta_xx(0) = 0, eta_xx(L) = trace_now,
    omega_xx(0) its one-sided trace and omega_xx(L) from the feedback law.
    Raises ConfigurationError when `report.config` holds an a, a1, L, alpha
    or beta other than p's, or an n other than the fields' width.
    """
    if report.fields_eta is None:
        raise ConfigurationError("kato identity needs store_fields=True in the run")
    eta, omega = report.fields_eta, report.fields_omega
    nt, n = eta.shape
    for key, value in (("a", p.a), ("a1", p.a1), ("L", p.L), ("alpha", p.alpha),
                       ("beta", p.beta), ("n", n)):
        if report.config.get(key, value) != value:
            whose = "its fields have" if key == "n" else "p has"
            raise ConfigurationError(f"the report's config has {key} = {report.config[key]}, "
                                     f"{whose} {key} = {value}")
    g = Grid(n=n, L=p.L)
    I_l2, I_h1, I_h2 = I = np.empty((3, nt))
    for k in range(0, nt, _KATO_BLOCK):
        rows = slice(k, k + _KATO_BLOCK)
        I[:, rows] = _kato_block(eta[rows], omega[rows], g.h)
    # eta_xx(L)^2 + omega_xx(L)^2, then the trapezoid's halves at both ends
    bdry = report.trace_now ** 2 + (p.alpha * report.trace_now + p.beta * report.trace_delayed) ** 2
    I_h2 += 0.5 * g.h * (trace_omega_xx_0(omega, g) ** 2 + bdry)

    def tint(v):
        return float(np.trapezoid(v, x=report.t))

    x = g.nodes

    def xmoment(e, w):
        return g.h * float(np.sum(x * e * w))

    residual = (0.5 * tint(I_l2)
                - 1.5 * p.a * tint(I_h1)
                + 2.5 * p.a1 * tint(I_h2)
                - 0.5 * p.a1 * p.L * tint(bdry)
                - (xmoment(eta[-1], omega[-1]) - xmoment(eta[0], omega[0])))
    return residual, kato_constant(p)
