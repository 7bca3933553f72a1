"""Implicit theta-scheme time stepping for the coupled semi-discrete system.

The state is interleaved as (eta_1, omega_1, eta_2, omega_2, ...) so the
coupled 2n x 2n system stays banded; the stiff operator is factorized once
per run and the delayed boundary datum enters as an explicit source vector
evaluated at t + theta*dt.  Optional Picard iteration handles the quadratic
nonlinear terms.  `SimState` holds the interleaved vector itself, so a step is
one matvec, one banded solve (one per Picard iterate) and one trace push.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .certificate import check_multipliers, phi_matrix
from .energy import energy_sample
from .delay_line import HistoryLine, _rho_nodes
from .errors import (ConfigurationError, HistoryUnderrunError,
                     NonlinearDivergenceError, NumericalError)
from .operators import BandedLU, OperatorSet, derivative_matrix, trace_eta_xx_L
from .params import DelaySpec, SystemParams, tau_at
from .report import CSV_COLUMNS, RunReport

_BLOWUP_FACTOR = 1e6
# Picard iteration: at most this many solves per step, relative step tolerance
_PICARD_ITERS = 30
_PICARD_TOL = 1e-12
# slow mode: history samples on [-tau0, 0], and the time-resolved disk
# |lambda| dt <= _RESOLVE_LIMIT its candidates are drawn from
_N_HISTORY = 513
_RESOLVE_LIMIT = 0.7
# errors that end a run early, keeping the rows recorded so far
_TERMINATION = {NonlinearDivergenceError: "nonlinear_divergence",
                HistoryUnderrunError: "history_underrun",
                NumericalError: "numerical_error"}

log = logging.getLogger(__name__)


class SimState:
    """The interleaved grid values u = (eta_1, omega_1, eta_2, omega_2, ...),
    the trace history, and the current time.

    `eta` and `omega` are strided views of u; treat them as read-only.
    """

    def __init__(self, t: float, eta, omega, history: HistoryLine):
        eta = np.asarray(eta, dtype=float)
        omega = np.asarray(omega, dtype=float)
        if eta.shape != omega.shape:
            raise ConfigurationError("eta and omega must have equal length")
        u = np.empty(2 * eta.size)
        u[0::2] = eta
        u[1::2] = omega
        self.t, self.u, self.history = t, u, history

    @classmethod
    def _from_u(cls, t: float, u: np.ndarray, history: HistoryLine) -> SimState:
        """A state that takes ownership of the interleaved vector u."""
        state = cls.__new__(cls)
        state.t, state.u, state.history = t, u, history
        return state

    @property
    def eta(self) -> np.ndarray:
        return self.u[0::2]

    @property
    def omega(self) -> np.ndarray:
        return self.u[1::2]


@dataclass(frozen=True)
class StepConfig:
    """Theta-scheme parameters.

    theta = 1/2 is Crank-Nicolson; production runs use theta = 1/2 + O(dt)
    to damp the stiff spurious closure modes (see `suggested_theta`), and
    theta = 1 is backward Euler.
    """

    dt: float
    theta: float = 0.5
    nonlinear: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [1/2, 1], got {self.theta}")


def suggested_theta(dt: float) -> float:
    """theta = 1/2 + 2 dt: second-order consistent, damps modes with
    Re(lambda) > 1/(2 dt^2)."""
    return min(1.0, 0.5 + 2.0 * dt)


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


def _check_dt(dt: float, dly: DelaySpec) -> None:
    if dt >= dly.tau0:
        raise ConfigurationError(
            f"explicit delay treatment requires dt < tau0: dt={dt}, tau0={dly.tau0}")


def system_matrices(ops: OperatorSet, p: SystemParams) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Interleaved sparse 2n x 2n system u' = A u + B u(t - tau) + sources.

    eta' rows couple to omega through -Po and to eta through the
    instantaneous feedback -alpha*outer(gs, T); omega' rows couple to eta
    through -Pe.  B carries the delayed feedback -beta*outer(gs, T) on the
    eta rows and, like the alpha term, touches only the three trace columns.
    """
    n = ops.grid.n
    ie = 2 * np.arange(n)
    io = ie + 1
    Po = ops.omega_combined.tocoo()
    Pe = ops.eta_combined.tocoo()
    tc = np.flatnonzero(ops.trace_row)
    gsT = np.outer(ops.omega_s_influence, ops.trace_row[tc])
    rows_t, cols_t = np.repeat(ie, tc.size), np.tile(ie[tc], n)

    def assemble(rows, cols, vals):
        M = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(2 * n, 2 * n))
        M.eliminate_zeros()
        return M

    A = assemble([ie[Po.row], io[Pe.row], rows_t], [io[Po.col], ie[Pe.col], cols_t],
                 [-Po.data, -Pe.data, (-p.alpha * gsT).ravel()])
    B = assemble([rows_t], [cols_t], [(-p.beta * gsT).ravel()])
    return A, B


def nonlinear_matrices(n: int, h: float, p: SystemParams
                       ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The quadratic terms as two sparse maps around pointwise products.

    G (6(n+2) x 2n) takes the interleaved state to the fields on the full
    grid, zero boundary values included: (ef, e_xx, wf, w_x, w_xx, w_xxx).
    C (2n x 4(n+2)) takes the stacked products (ef wf, ef w_xx, wf w_x,
    ef e_xx) to the interleaved right-hand side
        eta':   -(ef wf)_x - alpha_p (ef w_xx)_x
        omega': -c_nl (wf w_x)_xx - (ef e_xx)_x
    on the interior rows; `Stepper._nonlinear_rhs` adds the pointwise omega
    terms.
    """
    N = n + 2
    D = [sp.identity(N, format="csr").tocoo()] + [
        derivative_matrix(N, h, m).tocoo() for m in (1, 2, 3)]

    def entries(blocks, transpose):
        """(stacked, interleaved, value) triplets of factor * D[m] for each
        block (m, parity, factor), restricted to the interior columns (the
        interior rows when transposed); parity 0 is eta, 1 is omega."""
        stacked, inter, vals = [], [], []
        for b, (m, parity, factor) in enumerate(blocks):
            r, c = (D[m].col, D[m].row) if transpose else (D[m].row, D[m].col)
            keep = (c >= 1) & (c <= n)
            stacked.append(b * N + r[keep])
            inter.append(2 * (c[keep] - 1) + parity)
            vals.append(factor * D[m].data[keep])
        return np.concatenate(stacked), np.concatenate(inter), np.concatenate(vals)

    # the zero boundary values drop out with the boundary columns
    gi, gj, gv = entries([(0, 0, 1.0), (2, 0, 1.0), (0, 1, 1.0),
                          (1, 1, 1.0), (2, 1, 1.0), (3, 1, 1.0)], False)
    cj, ci, cv = entries([(1, 0, -1.0), (1, 0, -p.alpha_p),
                          (2, 1, -p.c_nl), (1, 1, -1.0)], True)
    G = sp.csr_matrix((gv, (gi, gj)), shape=(6 * N, 2 * n))
    C = sp.csr_matrix((cv, (ci, cj)), shape=(2 * n, 4 * N))
    G.eliminate_zeros()
    C.eliminate_zeros()
    return G, C


class Stepper:
    """Assembled theta-scheme integrator for one (operators, config) pair."""

    def __init__(self, ops: OperatorSet, cfg: StepConfig, p: SystemParams,
                 dly: DelaySpec, forcing=None, eta_xx0=None):
        _check_dt(cfg.dt, dly)
        self.ops = ops
        self.cfg = cfg
        self.p = p
        self.dly = dly
        self.forcing = forcing
        self.eta_xx0 = eta_xx0
        n = ops.grid.n
        self.n = n
        self.A, _ = system_matrices(ops, p)
        I = sp.identity(2 * n, format="csr")
        self._lu = BandedLU(I - cfg.theta * cfg.dt * self.A)
        self._M2 = I + (1.0 - cfg.theta) * cfg.dt * self.A
        self._g_s = ops.omega_s_influence
        self._g_c = ops.eta_c_influence
        if cfg.nonlinear:
            self._G, self._C = nonlinear_matrices(n, ops.grid.h, p)
        self._steps_done = 0

    def _source(self, t_eval: float, state: SimState) -> np.ndarray:
        """dt-weighted explicit sources at the evaluation time."""
        b = np.zeros(2 * self.n)
        if self.p.beta != 0.0:
            tau, _ = tau_at(self.dly, t_eval)
            zd = state.history.query(t_eval - tau)
            b[0::2] = -self.p.beta * self._g_s * zd
        if self.eta_xx0 is not None:
            b[1::2] = -self._g_c * float(self.eta_xx0(t_eval))
        if self.forcing is not None:
            f1, f2 = self.forcing(t_eval, self.ops.grid.nodes)
            b[0::2] += f1
            b[1::2] += f2
        return b

    def _nonlinear_rhs(self, u: np.ndarray) -> np.ndarray:
        """Quadratic terms at the interleaved state u (`nonlinear_matrices`)."""
        p = self.p
        ef, e_xx, wf, w_x, w_xx, w_xxx = (self._G @ u).reshape(6, -1)
        wf_wx = wf * w_x
        out = self._C @ np.concatenate((ef * wf, ef * w_xx, wf_wx, ef * e_xx))
        out[1::2] += (p.beta_p * w_x * w_xx + p.rho_nl * wf * w_xxx - wf_wx)[1:-1]
        return out

    def step(self, state: SimState) -> SimState:
        dt, theta = self.cfg.dt, self.cfg.theta
        u = state.u
        base = self._M2 @ u + dt * self._source(state.t + theta * dt, state)
        if not self.cfg.nonlinear:
            u_new = self._lu.solve(base)
        else:
            if theta < 1.0:
                base = base + (1.0 - theta) * dt * self._nonlinear_rhs(u)
            u_new = u
            prev_delta = np.inf
            for _ in range(_PICARD_ITERS):
                rhs = base + theta * dt * self._nonlinear_rhs(u_new)
                u_next = self._lu.solve(rhs)
                if not np.all(np.isfinite(u_next)):
                    raise NonlinearDivergenceError(
                        "nonlinear iterate is not finite", t=state.t,
                        step=self._steps_done)
                delta = np.linalg.norm(u_next - u_new)
                scale = np.linalg.norm(u_next) + 1e-300
                u_new = u_next
                # converged, or stalled at the linear-solve roundoff floor
                if delta <= _PICARD_TOL * scale or (
                        delta >= 0.5 * prev_delta and delta <= 1e-9 * scale):
                    break
                prev_delta = delta
            else:
                raise NonlinearDivergenceError(
                    f"Picard iteration did not reach tol={_PICARD_TOL} "
                    f"within {_PICARD_ITERS} iterations", t=state.t,
                    step=self._steps_done)
        self._steps_done += 1
        new = SimState._from_u(state.t + dt, u_new, state.history)
        new.history.push(new.t, trace_eta_xx_L(new.eta, self.ops.grid))
        return new


def run(s0: SimState, T: float, cfg: StepConfig, p: SystemParams, dly: DelaySpec,
        ops: OperatorSet, rho_res: int = 64, mu1: float = 0.0, mu2: float = 0.0,
        store_fields: bool = False, forcing=None, eta_xx0=None) -> RunReport:
    """Advance to T, recording the energy monitors at every step.

    The monitor rows go into one table, in `report.CSV_COLUMNS` order, and
    with `store_fields` the interleaved state of each row into one array,
    both allocated before the first step; the report's series are rows of
    the table and its fields strided views of the states.

    Raises ConfigurationError before the first step when T is negative or
    not finite, when the arrays for its T / dt rows cannot be allocated,
    when rho_res < 1, or when the Lyapunov multipliers lie outside
    0 <= mu1 < 1/L, 0 <= mu2 < 1.  A step or
    monitor row that fails with NonlinearDivergenceError,
    HistoryUnderrunError or NumericalError, or an energy that blows up, ends
    the run early: the report keeps the rows recorded so far and names the
    cause in `termination`.
    """
    # written so that a NaN fails it
    if not 0 <= T < np.inf:
        raise ConfigurationError(f"horizon T must be finite and nonnegative, got {T}")
    _rho_nodes(rho_res)   # the rho-node check, whatever beta is
    check_multipliers(p, mu1, mu2)
    n_steps = int(np.floor(T / cfg.dt + 1e-9))
    try:
        # one column per monitor row, its entries in CSV_COLUMNS order: E is
        # entry 1, the two traces entries 5 and 6
        table = np.empty((len(CSV_COLUMNS), n_steps + 1))
        states = np.empty((n_steps + 1, s0.u.size)) if store_fields else None
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(
            f"cannot allocate {n_steps + 1:.6g} rows for T = {T} at dt = {cfg.dt}: {exc}") from exc
    stepper = Stepper(ops, cfg, p, dly, forcing=forcing, eta_xx0=eta_xx0)

    def record(i: int, st: SimState) -> None:
        table[:, i] = energy_sample(st, p, dly, ops.grid, rho_res, mu1, mu2)
        if states is not None:
            states[i] = st.u

    state = s0
    record(0, state)
    E0 = table[1, 0]
    rows, termination = 1, "completed"
    for k in range(n_steps):
        try:
            state = stepper.step(state)
            record(rows, state)
        except tuple(_TERMINATION) as exc:
            termination = _TERMINATION[type(exc)]
            log.info("run stopped at step %d (t = %.6g): %s: %s",
                     k + 1, state.t, termination, exc)
            break
        E_now = table[1, rows]
        rows += 1
        if not np.isfinite(E_now) or (E0 > 0 and E_now > _BLOWUP_FACTOR * E0):
            termination = "unstable"
            break

    # dE/dt = 1/2 q^T Phi q with q = (trace_now, trace_delayed) per row
    q = table[5:, :rows]
    return RunReport(
        **dict(zip(CSV_COLUMNS, table[:, :rows])),
        dissipation_rhs=0.5 * np.sum(q * (phi_matrix(p, dly) @ q), axis=0),
        fields_eta=None if states is None else states[:rows, 0::2],
        fields_omega=None if states is None else states[:rows, 1::2],
        termination=termination,
        config={
            "a": p.a, "a1": p.a1, "L": p.L, "alpha": p.alpha, "beta": p.beta,
            "tau0": dly.tau0, "M": dly.M, "d": dly.d, "form": dly.form,
            "n": ops.grid.n, "dt": cfg.dt, "theta": cfg.theta, "T": T,
            "nonlinear": cfg.nonlinear, "rho_res": rho_res,
            "mu1": mu1, "mu2": mu2,
        },
    )


def _shift_invert(M: sp.csr_matrix, k: int, sigma: complex, v0: np.ndarray,
                  vectors: bool = True):
    """`eigs` for the k eigenvalues of M nearest sigma, failures typed."""
    # imported here: ARPACK and SuperLU add about 2 MB of resident memory to
    # every process that imports bousslab, and only the slow mode needs them
    from scipy.sparse.linalg import eigs

    try:
        return eigs(M, k=k, sigma=sigma, v0=v0, return_eigenvectors=vectors)
    except RuntimeError as exc:
        # ArpackError and ArpackNoConvergence derive from it, and the sparse
        # LU raises it when M - sigma I is exactly singular
        raise NumericalError(f"shift-invert eigensolve about {sigma} failed: {exc}") from exc


def _resolved_spectrum(A: sp.csr_matrix, dt: float, v0: np.ndarray
                       ) -> tuple[np.ndarray, int]:
    """Eigenvalues of A that include all of those in the time-resolved disk
    |lambda| dt <= _RESOLVE_LIMIT, and the k that found them.

    Shift-invert ARPACK about 0 returns the k eigenvalues nearest the
    centre; k doubles from 8 until one of them lies outside the disk, so
    none inside is missing.  When k would reach n2 - 1, beyond ARPACK, the
    whole spectrum comes from a dense eigensolve instead (toy grids only).
    """
    n2 = A.shape[0]
    k = 8
    while k < n2 - 1:
        ev = _shift_invert(A, k, 0.0, v0, vectors=False)
        if np.any(np.abs(ev) * dt > _RESOLVE_LIMIT):
            return ev, k
        k *= 2
    return np.linalg.eigvals(A.toarray()), n2


def slow_mode_state(ops: OperatorSet, p: SystemParams, dly: DelaySpec, dt: float,
                    amplitude: float = 1.0):
    """Least-damped time-resolved eigenpair of the delayed system.

    Solves the delay eigenproblem lambda*u = A u + exp(-lambda*tau0) B u
    (`system_matrices`) and seeds the trace history from the mode's own
    exponential past.  Returns (SimState, lambda), lambda with Im >= 0.
    Useful as transient-free benchmark data.

    The candidates are the decaying eigenvalues of A in the time-resolved
    disk |lambda| dt <= 0.7, found by shift-invert ARPACK about 0
    (`_resolved_spectrum`; on toy grids, where the disk holds nearly the
    whole spectrum, a dense eigensolve).  The start is the oscillatory
    candidate (any candidate if none oscillates) with the least |Re|, taken
    with Im >= 0.  The fixed point then solves for the eigenpair of
    A + exp(-lambda*tau0) B nearest lambda by shift-invert about lambda,
    until its step falls below eps * ||A + exp(-lambda*tau0) B||_1.  Every
    ARPACK call starts from the same fixed vector, so reruns are
    bit-identical.  The eigenvector is scaled so its largest-modulus entry
    equals `amplitude` (real), and its real part is the initial state.

    Raises ConfigurationError when dt >= tau0 or no candidate exists, and
    NumericalError when an eigensolve fails or the fixed point does not
    settle in 12 solves.
    """
    _check_dt(dt, dly)
    A, B = system_matrices(ops, p)
    n2 = A.shape[0]
    tau0 = dly.tau0
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n2)

    ev, k = _resolved_spectrum(A, dt, v0)
    log.debug("slow mode: candidate search ended at k=%d (n2=%d)", k, n2)
    ok = (np.abs(ev) * dt <= _RESOLVE_LIMIT) & (ev.real < 0)
    osc = ok & (np.abs(ev.imag) > 1e-9)
    cand = np.where(osc)[0]
    if cand.size == 0:
        cand = np.where(ok)[0]
    if cand.size == 0:
        raise ConfigurationError(
            "no time-resolved decaying mode at this (dt, parameters)")
    lam = ev[cand[np.argmin(np.abs(ev[cand].real))]]
    lam = complex(lam.real, abs(lam.imag))

    # the fixed point contracts fast; it stops at the accuracy a dense
    # eigensolve guarantees, eps * ||A + e^{-lambda tau} B||_1, which grows
    # like h^-5 (shift-invert steps stall well below it)
    v0 = v0.astype(complex)
    for solves in range(1, 13):
        K = A + np.exp(-lam * tau0) * B
        evk, Vk = _shift_invert(K, 1, lam, v0)
        lam_step = abs(evk[0] - lam)
        lam, v = complex(evk[0]), Vk[:, 0]
        floor = np.finfo(float).eps * abs(K).sum(axis=0).max()   # ||K||_1
        if lam_step <= floor:
            break
    else:
        raise NumericalError(
            f"slow-mode fixed point did not settle in 12 eigensolves: last "
            f"step {lam_step:.3g} at lambda = {lam}")
    log.debug("slow mode: fixed point took %d solves, last step %.3g, floor %.3g",
              solves, lam_step, floor)
    v = v / v[np.argmax(np.abs(v))] * amplitude

    eta_c = v[0::2]
    tr_c = complex(ops.trace_row @ eta_c)
    t_hist = np.linspace(-tau0, 0.0, _N_HISTORY)
    hist_vals = np.real(tr_c * np.exp(lam * t_hist))
    hist = HistoryLine(t_hist, hist_vals, M=dly.M)
    return SimState._from_u(0.0, v.real.copy(), hist), lam
