"""Implicit theta-scheme time stepping for the coupled semi-discrete system.

The state is interleaved as (eta_1, omega_1, eta_2, omega_2, ...) so the
coupled 2n x 2n system stays banded; the stiff operator is factorized once
per run and the delayed boundary datum enters as an explicit source vector
evaluated at t + theta*dt.  Optional Picard iteration handles the quadratic
nonlinear terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .energy import energy_sample
from .delay_line import HistoryLine
from .errors import ConfigurationError, NonlinearDivergenceError, NumericalError
from .operators import BandedLU, OperatorSet, d1, d2, d3, padded, trace_eta_xx_L
from .params import DelaySpec, SystemParams, tau_at
from .report import RunReport

_BLOWUP_FACTOR = 1e6


@dataclass
class SimState:
    """Grid values of (eta, omega), the trace history, and the current time."""

    t: float
    eta: np.ndarray
    omega: np.ndarray
    history: HistoryLine

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.eta.shape != self.omega.shape:
            raise ConfigurationError("eta and omega must have equal length")


@dataclass(frozen=True)
class StepConfig:
    """Theta-scheme parameters.

    theta = 1/2 is Crank-Nicolson; production runs use theta = 1/2 + O(dt)
    to damp the stiff spurious closure modes (see `suggested_theta`).
    startup_steps > 0 runs that many backward-Euler steps first (Rannacher
    smoothing), useful for initial data that is rough for the discrete
    operator.
    """

    dt: float
    theta: float = 0.5
    startup_steps: int = 0
    nonlinear: bool = False
    picard_iters: int = 30
    picard_tol: float = 1e-12

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [1/2, 1], got {self.theta}")


def suggested_theta(dt: float, kappa: float = 2.0) -> float:
    """theta = 1/2 + kappa*dt: second-order consistent, damps modes with
    Re(lambda) > 1/(kappa dt^2)."""
    return min(1.0, 0.5 + kappa * dt)


def initial_state(p: SystemParams, dly: DelaySpec, grid, eta0, omega0) -> SimState:
    """Build the t=0 state; the history is seeded from dly.history with the
    t=0 sample replaced by the initial field's own trace (compatibility)."""
    eta0 = np.asarray(eta0, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    hist = HistoryLine.from_delay_spec(dly)
    tr0 = trace_eta_xx_L(eta0, grid)
    if abs(hist.t_last) < 1e-14:
        hist.replace_last(tr0)
    else:
        hist.push(0.0, tr0)
    return SimState(t=0.0, eta=eta0, omega=omega0, history=hist)


class Stepper:
    """Assembled theta-scheme integrator for one (operators, config) pair."""

    def __init__(self, ops: OperatorSet, cfg: StepConfig, p: SystemParams,
                 dly: DelaySpec, forcing=None, eta_xx0=None):
        if cfg.dt >= dly.tau0:
            raise ConfigurationError(
                f"explicit delay treatment requires dt < tau0: dt={cfg.dt}, tau0={dly.tau0}")
        self.ops = ops
        self.cfg = cfg
        self.p = p
        self.dly = dly
        self.forcing = forcing
        self.eta_xx0 = eta_xx0
        n = ops.grid.n
        self.n = n
        self._ie = 2 * np.arange(n)       # eta rows
        self._io = self._ie + 1           # omega rows
        self.A = self._assemble_system()
        I = np.eye(2 * n)
        self._lu = BandedLU(I - cfg.theta * cfg.dt * self.A)
        self._M2 = sp.csr_matrix(I + (1.0 - cfg.theta) * cfg.dt * self.A)
        self._lu_be = BandedLU(I - cfg.dt * self.A) if cfg.startup_steps > 0 else None
        self._g_s = ops.closure.omega_s_influence["total"]
        self._g_c = ops.closure.eta_c_influence["total"]
        self._steps_done = 0

    def _assemble_system(self) -> np.ndarray:
        """Interleaved 2n x 2n matrix: eta' rows couple to omega (and to eta
        through the instantaneous feedback alpha*trace), omega' rows to eta."""
        n = self.n
        Pe = self.ops.eta_combined
        Po = self.ops.omega_combined
        T = self.ops.trace_row
        gs = self.ops.closure.omega_s_influence["total"]
        A = np.zeros((2 * n, 2 * n))
        A[np.ix_(self._ie, self._io)] = -Po
        A[np.ix_(self._ie, self._ie)] = -self.p.alpha * np.outer(gs, T)
        A[np.ix_(self._io, self._ie)] = -Pe
        return A

    @property
    def system_matrix(self) -> np.ndarray:
        return self.A

    def interleave(self, eta, omega) -> np.ndarray:
        u = np.empty(2 * self.n)
        u[self._ie] = eta
        u[self._io] = omega
        return u

    def split(self, u) -> tuple[np.ndarray, np.ndarray]:
        return u[self._ie].copy(), u[self._io].copy()

    def _source(self, t_eval: float, state: SimState) -> np.ndarray:
        """dt-weighted explicit sources at the evaluation time."""
        b = np.zeros(2 * self.n)
        if self.p.beta != 0.0:
            tau, _ = tau_at(self.dly, t_eval)
            zd = state.history.query(t_eval - tau)
            b[self._ie] = -self.p.beta * self._g_s * zd
        if self.eta_xx0 is not None:
            b[self._io] = -self._g_c * float(self.eta_xx0(t_eval))
        if self.forcing is not None:
            f1, f2 = self.forcing(t_eval, self.ops.grid.nodes)
            b[self._ie] += f1
            b[self._io] += f2
        return b

    def _nonlinear_rhs(self, u: np.ndarray) -> np.ndarray:
        eta, omega = u[self._ie], u[self._io]
        p, h = self.p, self.ops.grid.h
        ef = padded(eta)
        wf = padded(omega)
        w_x = d1(wf, h)
        w_xx = d2(wf, h)
        w_xxx = d3(wf, h)
        e_xx = d2(ef, h)
        h1 = -d1(ef * wf, h) - p.alpha_p * d1(ef * w_xx, h)
        h2 = (-wf * w_x - p.c_nl * d2(wf * w_x, h) - d1(ef * e_xx, h)
              + p.beta_p * w_x * w_xx + p.rho_nl * wf * w_xxx)
        out = np.zeros(2 * self.n)
        out[self._ie] = h1[1:-1]
        out[self._io] = h2[1:-1]
        return out

    def step(self, state: SimState) -> SimState:
        cfg = self.cfg
        dt = cfg.dt
        startup = self._steps_done < cfg.startup_steps
        theta = 1.0 if startup else cfg.theta
        lu = self._lu_be if startup else self._lu
        t_eval = state.t + theta * dt
        u = self.interleave(state.eta, state.omega)
        b = self._source(t_eval, state)
        if startup:
            base = u + dt * b
        else:
            base = self._M2 @ u + dt * b
        if not cfg.nonlinear:
            u_new = lu.solve(base)
        else:
            if theta < 1.0:
                base = base + (1.0 - theta) * dt * self._nonlinear_rhs(u)
            u_new = u.copy()
            converged = False
            prev_delta = np.inf
            for _ in range(cfg.picard_iters):
                rhs = base + theta * dt * self._nonlinear_rhs(u_new)
                u_next = lu.solve(rhs)
                if not np.all(np.isfinite(u_next)):
                    raise NonlinearDivergenceError(
                        "nonlinear iterate is not finite", t=state.t,
                        step=self._steps_done)
                delta = np.linalg.norm(u_next - u_new)
                scale = np.linalg.norm(u_next) + 1e-300
                u_new = u_next
                if delta <= cfg.picard_tol * scale:
                    converged = True
                    break
                # stalled at the linear-solve roundoff floor: accept
                if delta >= 0.5 * prev_delta and delta <= 1e-9 * scale:
                    converged = True
                    break
                prev_delta = delta
            if not converged:
                raise NonlinearDivergenceError(
                    f"Picard iteration did not reach tol={cfg.picard_tol} "
                    f"within {cfg.picard_iters} iterations", t=state.t,
                    step=self._steps_done)
        self._steps_done += 1
        t_new = state.t + dt
        eta_new, omega_new = self.split(u_new)
        state.history.push(t_new, trace_eta_xx_L(eta_new, self.ops.grid))
        return SimState(t=t_new, eta=eta_new, omega=omega_new, history=state.history)


def step(s: SimState, ops: OperatorSet, cfg: StepConfig, p: SystemParams,
         dly: DelaySpec, forcing=None, eta_xx0=None) -> SimState:
    """One theta-scheme step (one-shot; builds and discards the factorization)."""
    return Stepper(ops, cfg, p, dly, forcing=forcing, eta_xx0=eta_xx0).step(s)


def run(s0: SimState, T: float, cfg: StepConfig, p: SystemParams, dly: DelaySpec,
        ops: OperatorSet, rho_res: int = 64, mu1: float = 0.0, mu2: float = 0.0,
        store_fields: bool = False, forcing=None, eta_xx0=None) -> RunReport:
    """Advance to T, recording the energy monitors at every step."""
    stepper = Stepper(ops, cfg, p, dly, forcing=forcing, eta_xx0=eta_xx0)
    n_steps = int(np.floor(T / cfg.dt + 1e-9))
    state = s0
    rows = {k: [] for k in ("t", "E", "V", "V1", "V2",
                            "trace_now", "trace_delayed", "diss_rhs")}
    fields_eta = [] if store_fields else None
    fields_omega = [] if store_fields else None

    def record(st: SimState):
        sample = energy_sample(st, p, dly, ops.grid, rho_res, mu1, mu2)
        for k in rows:
            rows[k].append(getattr(sample, k))
        if store_fields:
            fields_eta.append(st.eta.copy())
            fields_omega.append(st.omega.copy())

    record(state)
    E0 = rows["E"][0]
    termination = "completed"
    for _ in range(n_steps):
        try:
            state = stepper.step(state)
        except NonlinearDivergenceError:
            termination = "nonlinear_divergence"
            break
        record(state)
        E_now = rows["E"][-1]
        if not np.isfinite(E_now) or (E0 > 0 and E_now > _BLOWUP_FACTOR * E0):
            termination = "unstable"
            break

    return RunReport(
        t=np.asarray(rows["t"]),
        E=np.asarray(rows["E"]),
        V=np.asarray(rows["V"]),
        V1=np.asarray(rows["V1"]),
        V2=np.asarray(rows["V2"]),
        trace_now=np.asarray(rows["trace_now"]),
        trace_delayed=np.asarray(rows["trace_delayed"]),
        dissipation_rhs=np.asarray(rows["diss_rhs"]),
        fields_eta=None if fields_eta is None else np.asarray(fields_eta),
        fields_omega=None if fields_omega is None else np.asarray(fields_omega),
        termination=termination,
        config={
            "a": p.a, "a1": p.a1, "L": p.L, "alpha": p.alpha, "beta": p.beta,
            "tau0": dly.tau0, "M": dly.M, "d": dly.d, "form": dly.form,
            "n": ops.grid.n, "dt": cfg.dt, "theta": cfg.theta, "T": T,
            "nonlinear": cfg.nonlinear, "rho_res": rho_res,
            "mu1": mu1, "mu2": mu2,
        },
    )


def slow_mode_state(ops: OperatorSet, p: SystemParams, dly: DelaySpec, dt: float,
                    amplitude: float = 1.0, n_history: int = 513,
                    resolve_limit: float = 0.7):
    """Least-damped time-resolved eigenpair of the delayed system.

    Solves the delay eigenproblem lambda*u = A u + exp(-lambda*tau) B u by
    fixed-point iteration starting from the matching eigenmode of A, and
    seeds the trace history from the mode's own exponential past.  Returns
    (SimState, lambda).  Useful as transient-free benchmark data.  Raises
    NumericalError when the fixed point does not settle.
    """
    stepper = Stepper(ops, StepConfig(dt=dt), p, dly)
    A = stepper.system_matrix
    T = ops.trace_row
    gs = ops.closure.omega_s_influence["total"]
    B = np.zeros_like(A)
    if p.beta != 0.0:
        B[np.ix_(stepper._ie, stepper._ie)] = -p.beta * np.outer(gs, T)
    tau0 = dly.tau0

    ev, _ = np.linalg.eig(A)
    ok = (np.abs(ev) * dt <= resolve_limit) & (ev.real < 0)
    osc = ok & (np.abs(ev.imag) > 1e-9)
    cand = np.where(osc)[0]
    if cand.size == 0:
        cand = np.where(ok)[0]
    if cand.size == 0:
        raise ConfigurationError(
            "no time-resolved decaying mode at this (dt, parameters)")
    lam = ev[cand[np.argmin(np.abs(ev[cand].real))]]

    # the fixed point contracts fast, but its steps stall at eig's own
    # accuracy, eps * ||A + e^{-lambda tau} B||_1, which grows like h^-5
    for _ in range(12):
        K = A + np.exp(-lam * tau0) * B
        evk, Vk = np.linalg.eig(K)
        i0 = int(np.argmin(np.abs(evk - lam)))
        lam_step = abs(evk[i0] - lam)
        lam, v = evk[i0], Vk[:, i0]
        if lam_step <= np.finfo(float).eps * np.linalg.norm(K, 1):
            break
    else:
        raise NumericalError(
            f"slow-mode fixed point did not settle in 12 eigensolves: last "
            f"step {lam_step:.3g} at lambda = {complex(lam)}")
    v = v / np.max(np.abs(v)) * amplitude

    eta_c = v[stepper._ie]
    tr_c = complex(T @ eta_c)
    t_hist = np.linspace(-tau0, 0.0, n_history)
    hist_vals = np.real(tr_c * np.exp(lam * t_hist))
    hist = HistoryLine(t_hist, hist_vals, M=dly.M)
    eta0 = np.real(eta_c)
    omega0 = np.real(v[stepper._io])
    state = SimState(t=0.0, eta=eta0, omega=omega0, history=hist)
    return state, complex(lam)
