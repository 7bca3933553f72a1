"""Implicit theta-scheme time stepping for the coupled semi-discrete system.

The state is interleaved as (eta_1, omega_1, eta_2, omega_2, ...) so the
coupled 2n x 2n system stays banded; the stiff operator is factorized once
per run and the delayed boundary datum enters as an explicit source vector
evaluated at t + theta*dt.  Every delayed value the coming steps need is
then already in the history (the method of steps), so the steps go in
blocks, and a block's steps in runs: one history query for a run's
sources, per step one banded solve, and one trace product and one history
extend per run.  The history line is causal, so a run goes on while
the next query point is at or before the newest sample pushed: a delay of
many steps makes a block one run, and one shorter than (1 + theta) dt
makes every run one step.  A block first drops the history before the
earliest point it reads, and `run` adds one monitor pass over its rows.
Optional Picard iteration handles the quadratic nonlinear terms, iterating
on increments with one right-hand side per banded solve
(`nonlinear_matrices`).  A run logs its blocks, and a nonlinear run its
step and solve counts and its largest contraction estimate, at DEBUG, over
the rows it kept.
"""

from __future__ import annotations

import logging
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .certificate import check_multipliers, phi_matrix
from .energy import energy_rows
from .delay_line import HistoryLine
from .errors import ConfigurationError, NonlinearDivergenceError, NumericalError
from .operators import (BandedLU, OperatorSet, _interleaved, build_operators,
                        derivative_matrix, trace_eta_xx_L)
from .params import DelaySpec, Grid, SystemParams, _tau_extremes, tau_at
from .report import CSV_COLUMNS, RunReport

_BLOWUP_FACTOR = 1e6
# steps per block (`Stepper._plan`): the block's source and state rows stay
# near 0.8 MB each at n = 200
_BLOCK = 256
# Picard iteration (`Stepper._solve_step`): at most this many solves per
# step, and the relative accuracy Banach's a-posteriori bound must certify
_PICARD_ITERS = 30
_PICARD_TOL = 1e-12
# the products F[_PAIR_I] * F[_PAIR_J] of the field stack F (`nonlinear_matrices`)
_PAIR_I, _PAIR_J = np.array([[0, 0, 2, 0, 3, 2], [2, 4, 3, 1, 4, 5]])
# slow mode: history samples on [-tau0, 0], the time-resolved disk |lambda| dt
# <= _RESOLVE_LIMIT of its candidates, and the grid size of their dense spectrum
_N_HISTORY = 513
_RESOLVE_LIMIT = 0.7
_COARSE_N = 24
# errors that end a run early, keeping the rows recorded so far
_TERMINATION = {NonlinearDivergenceError: "nonlinear_divergence",
                NumericalError: "numerical_error"}

log = logging.getLogger(__name__)


class SimState:
    """The interleaved grid values u = (eta_1, omega_1, eta_2, omega_2, ...),
    the trace history, and the current time.

    The history is initial data, read as given: its value at t is z(t, 0)
    of the transport form, which `initial_state` and `slow_mode_state` set
    to eta's trace.  `eta` and `omega` are strided views of u; treat them
    as read-only.
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
        """A state on the interleaved vector u itself, without a copy."""
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
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [1/2, 1], got {self.theta}")


def suggested_theta(dt: float) -> float:
    """theta = 1/2 + 2 dt: second-order consistent, damps modes with
    Re(lambda) > 1/(2 dt^2)."""
    return min(1.0, 0.5 + 2.0 * dt)


def initial_state(p: SystemParams, dly: DelaySpec, grid, eta0, omega0) -> SimState:
    """The t = 0 state; its history is dly.history with the t = 0 sample set to eta0's trace."""
    values = dly.history.copy()
    values[-1] = trace_eta_xx_L(eta0, grid)
    hist = HistoryLine(dly.history_times(), values)
    return SimState(t=0.0, eta=eta0, omega=omega0, history=hist)


def _check_setup(ops: OperatorSet, p: SystemParams, dt: float, dly: DelaySpec) -> None:
    ops.check_params(p)
    if not 0 < dt < dly.tau0:
        raise ConfigurationError(
            f"explicit delay treatment requires 0 < dt < tau0: dt={dt}, tau0={dly.tau0}")


def _check_start(state: SimState, dly: DelaySpec, dt: float, t_end: float) -> None:
    """Refuse a state whose history has moved on or starts after its delayed
    time t - tau(t), and a law with tau' >= 1 or tau <= dt on [0, t_end]
    (`_check_setup`'s 0 < dt < tau0 over the horizon)."""
    history = state.history
    if history.t_last != state.t:
        raise ConfigurationError(
            f"the state's history ends at t={history.t_last}, not at its time t={state.t}")
    delayed = state.t - tau_at(dly, state.t)[0]
    # written so that a NaN fails it
    if not delayed >= history.t_first - 1e-14:
        raise ConfigurationError(
            f"the state's history starts at t={history.t_first}, after the delayed "
            f"time t - tau(t) = {delayed} of its first monitor row")
    tau_min, _, dot_max = _tau_extremes(dly, t_end)
    if not dot_max < 1:   # written so that a NaN fails it
        raise ConfigurationError(f"the delay law's slope reaches max tau' = {dot_max:.6g} >= 1 "
                                 f"on [0, {t_end:.6g}]: t - tau(t) must move forward")
    if not dt < tau_min:   # written so that a NaN fails it
        raise ConfigurationError(f"the delay falls to min tau = {tau_min:.6g} <= dt = {dt} "
                                 f"on [0, {t_end:.6g}]: a step must read the stored past")


def nonlinear_matrices(n: int, h: float, p: SystemParams
                       ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The quadratic terms as two sparse maps around one table of products.

    G (6(n+2) x 2n) takes the interleaved state to the field stack F on the
    full grid, zero boundary values included: (ef, e_xx, wf, w_x, w_xx, w_xxx).
    C (2n x 6(n+2)) takes the stacked products F[_PAIR_I] * F[_PAIR_J] =
    (ef wf, ef w_xx, wf w_x, ef e_xx, w_x w_xx, wf w_xxx) to the interleaved
    right-hand side on the interior rows,
        eta':   -(ef wf)_x - alpha_p (ef w_xx)_x
        omega': -(c_nl D2 + I) wf w_x - (ef e_xx)_x + beta_p w_x w_xx + rho_nl wf w_xxx
    so the pointwise omega terms are scaled identity blocks.  Both are built in
    (eta, omega) block form on the full grid, interleaved (`_interleaved`) and cut
    to the interior nodes, columns (rows) 2..2n+1: the zero boundary values drop out.
    """
    N = n + 2
    I = sp.identity(N, format="csr")
    D1, D2, D3 = (derivative_matrix(N, h, m) for m in (1, 2, 3))
    G = sp.bmat([[I, None], [D2, None], [None, I], [None, D1], [None, D2], [None, D3]])
    C = sp.bmat([[-D1, -p.alpha_p * D1, None, None, None, None],
                 [None, None, -p.c_nl * D2 - I, -D1, p.beta_p * I, p.rho_nl * I]])
    return (_interleaved(G, rows=False, cols=True)[:, 2:-2],
            _interleaved(C, rows=True, cols=False)[2:-2])


class Stepper:
    """Assembled theta-scheme integrator for one (operators, config) pair;
    ops must be built for p's a, a1, L and alpha (`OperatorSet.check_params`)."""

    def __init__(self, ops: OperatorSet, cfg: StepConfig, p: SystemParams,
                 dly: DelaySpec, forcing=None):
        _check_setup(ops, p, cfg.dt, dly)
        self.ops = ops
        self.cfg = cfg
        self.p = p
        self.dly = dly
        self.forcing = forcing
        n = ops.grid.n
        self._lu = BandedLU(sp.identity(2 * n, format="csr") - cfg.theta * cfg.dt * ops.A)
        # the source per unit delayed trace: B's column on the eta rows
        self._delay_source = np.zeros(2 * n)
        self._delay_source[0::2] = -p.beta * ops.omega_s_influence
        if cfg.nonlinear:
            self._G, self._C = nonlinear_matrices(n, ops.grid.h, p)
        # counters `run` logs: steps taken, Picard solves (one right-hand
        # side each) and the largest contraction estimate q of the nonlinear
        # steps, and those two after each step of the last block
        self._steps_done = self._solves = 0
        self._tally = []
        self._q_max = 0.0

    def _nonlinear_rhs(self, F: np.ndarray, Fd: np.ndarray | None = None) -> np.ndarray:
        """The quadratic terms N(u) from the field stack F = G u (one row per
        field) or, given Fd = G d, their increment
        N(u + d/2) - N(u - d/2) = C (F[i] Fd[j] + Fd[i] F[j])."""
        if Fd is None:
            return self._C @ (F[_PAIR_I] * F[_PAIR_J]).ravel()
        return self._C @ (F[_PAIR_I] * Fd[_PAIR_J] + Fd[_PAIR_I] * F[_PAIR_J]).ravel()

    def _solve_step(self, u: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
        """The state one dt after u (at time t), given rhs = u + theta dt
        (sources): one banded solve, as with N = I - theta dt A the scheme's
        N^-1 ((I + (1 - theta) dt A) u + dt (sources)) is (N^-1 rhs - (1 - theta) u) / theta.

        Nonlinear steps iterate Picard, one right-hand side per solve: N(u_0)
        serves the explicit (1 - theta) term and u_1, folded from
        rhs + theta dt N(u_0) the same way, then each increment
        d_k = u_{k+1} - u_k = theta dt LU^-1 (N(u_k) - N(u_{k-1})) comes from
        d_{k-1} and the midpoint fields, so its roundoff scales with |d_k|.
        They stop once Banach's bound q/(1-q) |d_k| <= _PICARD_TOL |u_{k+1}|
        holds, q = |d_k| / |d_{k-1}|.  q >= 1 (no contraction), a non-finite
        iterate or _PICARD_ITERS solves raise NonlinearDivergenceError."""
        dt, theta = self.cfg.dt, self.cfg.theta
        if self.cfg.nonlinear:
            F = (self._G @ u).reshape(6, -1)
            rhs = rhs + theta * dt * self._nonlinear_rhs(F)
        u_new = (self._lu.solve(rhs) - (1.0 - theta) * u) / theta
        if not self.cfg.nonlinear:
            return u_new
        d = u_new - u
        delta = np.linalg.norm(d)
        self._solves += 1
        for _ in range(1, _PICARD_ITERS):
            Fd = (self._G @ d).reshape(6, -1)
            d = self._lu.solve(theta * dt * self._nonlinear_rhs(F + 0.5 * Fd, Fd))
            self._solves += 1
            F += Fd
            u_new = u_new + d
            prev, delta = delta, np.linalg.norm(d)
            scale = np.linalg.norm(u_new)
            # a NaN or infinite entry, or a norm that overflows
            if not np.isfinite(delta + scale):
                raise NonlinearDivergenceError(
                    "nonlinear iterate is not finite", t=t, step=self._steps_done)
            q = delta / prev if prev > 0 else 0.0   # 0/0: an exact fixed point
            self._q_max = max(self._q_max, q)
            if q >= 1:
                raise NonlinearDivergenceError(
                    f"Picard map does not contract: q = {q:.3g}", t=t, step=self._steps_done)
            if q * delta <= (1.0 - q) * _PICARD_TOL * scale:
                return u_new
        raise NonlinearDivergenceError(
            f"Picard iteration did not reach tol={_PICARD_TOL} "
            f"within {_PICARD_ITERS} iterations", t=t, step=self._steps_done)

    def _plan(self, t: float, K: int):
        """A block of K steps from time t: its times t, t_1, .., t_K and each
        step's delayed query point t_eval - tau(t_eval), t_eval = t_{k-1} +
        theta dt (increasing, as tau' < 1)."""
        dt = self.cfg.dt
        # t_k = t_{k-1} + dt, accumulated as one step after another would
        times = np.full(K + 1, dt)
        times[0] = t
        times = np.cumsum(times)
        t_eval = times[:-1] + self.cfg.theta * dt
        return times, t_eval - tau_at(self.dly, t_eval)[0]

    def _block(self, u: np.ndarray, history: HistoryLine, times: np.ndarray,
               queries: np.ndarray, out: np.ndarray) -> None:
        """Take the steps of a block (`_plan`) from u at times[0], writing the
        state at times[k + 1] into out[k].  First the history drops the past
        before queries[0], the earliest point the block reads: with tau' < 1
        and theta <= 1 the later query points and the rows' window starts
        times[1:] - tau lie after it.  A run's delayed traces come from one
        `HistoryLine.query`, then per step one banded solve (Picard for the
        nonlinear terms, `_solve_step`), and after the run its traces from
        one `trace_eta_xx_L` of its states and one `HistoryLine.extend`; a
        run goes on while the next step's query point is at or
        before the newest sample pushed (a NaN point ends it), so a delay of
        many steps makes one run of the block.  A step that fails raises its
        error after the steps before it are in out and in the history, and
        counted by `_steps_done`; `_tally` holds the solve count and the
        largest q before the block and after each of its steps.  A blow-up
        spreads inf and NaN without a warning, so a run can stop at its
        first unstable row."""
        dt, theta = self.cfg.dt, self.cfg.theta
        K = len(out)
        history.drop_before(queries[0])
        done = 0
        self._tally = [(self._solves, self._q_max)]
        while done < K:
            start, end = done, done + 1
            while end < K and queries[end] <= times[done]:
                end += 1
            with np.errstate(all="ignore"):
                try:
                    # b = delayed trace * B's column + forcing, one row per step
                    b = np.multiply.outer(history.query(queries[start:end]), self._delay_source)
                    if self.forcing is not None:
                        for k, row in zip(range(start, end), b):
                            f1, f2 = self.forcing(times[k] + theta * dt, self.ops.grid.nodes)
                            row[0::2] += f1
                            row[1::2] += f2
                    b *= theta * dt
                    for k, row in zip(range(start, end), b):
                        row += u
                        u = self._solve_step(u, row, times[k])
                        self._steps_done += 1
                        self._tally.append((self._solves, self._q_max))
                        out[k] = u
                        done += 1
                finally:
                    traces = trace_eta_xx_L(out[start:done, 0::2], self.ops.grid)
                    history.extend(times[start + 1:done + 1], traces)

    def advance(self, state: SimState, steps: int) -> SimState:
        """The state `steps` steps later, taken in blocks of at most _BLOCK
        (`_plan`, `_block`); advances `state.history` in place, which keeps
        about max tau / dt + _BLOCK samples.  Raises ConfigurationError
        before the first step when steps is not a nonnegative integer, or,
        as `run` does, for a state whose history does not end at its time or
        starts after its delayed time t - tau(t), or a law with tau' >= 1 or
        tau <= dt on the horizon (`_check_start`); and the
        NonlinearDivergenceError or NumericalError of a step that fails."""
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
            raise ConfigurationError(f"need a nonnegative integer step count, got {steps!r}")
        _check_start(state, self.dly, self.cfg.dt, state.t + steps * self.cfg.dt)
        t, u = state.t, state.u
        out = np.empty((min(steps, _BLOCK), u.size))
        while steps > 0:
            times, queries = self._plan(t, min(_BLOCK, steps))
            K = queries.size
            self._block(u, state.history, times, queries, out[:K])
            steps -= K
            t, u = times[K], out[K - 1].copy()
        return SimState._from_u(t, u, state.history)

    def step(self, state: SimState) -> SimState:
        """The state one dt later (`advance` by a block of one step)."""
        return self.advance(state, 1)


def run(s0: SimState, T: float, cfg: StepConfig, p: SystemParams, dly: DelaySpec,
        ops: OperatorSet, mu1: float = 0.0, mu2: float = 0.0,
        store_fields: bool = False, *, rho_res=None) -> RunReport:
    """Advance to T, recording the energy monitors at every step.

    The run steps a copy of s0.history as given, so s0 stays untouched,
    reruns from it are bit-identical, its fields are `Stepper.advance`'s
    and its first row is `energy_sample(s0)`, bit for bit.  It advances in blocks of _BLOCK steps
    (`Stepper._plan`): the block drops the history before its first query
    point, then takes its steps in runs, each with one history query for its
    delayed sources, one banded solve per step, and one trace product and
    one history extend by its traces (`Stepper._block`).
    One monitor pass (`energy_rows`) records the rows of the block at its
    end, or at the step that fails; as no stored interval of the line
    changes, the rows, traces and stored fields are those steps one at a
    time give, bit for bit.  The monitor rows go into one table, in
    `report.CSV_COLUMNS` order, and with `store_fields` the interleaved
    state of each row into one array, both allocated before the first step;
    the report's series are rows of the table and its fields strided views
    of the states.  Its `dissipation_rhs` is the energy identity's rate
    dE/dt = 1/2 q^T Phi q per row, q = (trace_now, trace_delayed), with
    Phi's (2,2) entry |beta| (tau_dot(t) - 1): the paper's Phi, with d >=
    tau_dot, bounds it from above.  The rows' delay terms are exact
    integrals of the history's cubic (`energy_rows`); `rho_res`, the rho
    resolution of the quadrature they replace, is ignored with a
    DeprecationWarning.  The number of blocks and their shortest and mean
    length are logged at DEBUG; a blow-up steps on until its rows are
    recorded, but these counts, and the nonlinear step and solve counts and
    largest q, stop at the first unstable row.

    Raises ConfigurationError before the first step when s0.u is not finite,
    when s0.history does not end at s0.t or starts after s0.t - tau(s0.t), when
    the law's max tau' on [0, s0.t + T] is 1 or more or its min tau there is dt
    or less, when T is negative or not finite, when the arrays for its T / dt
    rows cannot be allocated, when the Lyapunov multipliers lie outside
    0 <= mu1 < 1/L, 0 <= mu2 < 1, or when `OperatorSet.check_params` fails.  A
    step that fails with NonlinearDivergenceError or NumericalError, or an energy
    that blows up, ends the run early: the report keeps the rows before it and
    names the cause in `termination`.
    """
    if rho_res is not None:
        warnings.warn("run ignores rho_res: the monitor row integrates the delay terms "
                      "exactly; the keyword goes once perfbench stops passing it "
                      "(ROADMAP item 1)", DeprecationWarning, stacklevel=2)
    # written so that a NaN fails it
    if not 0 <= T < np.inf:
        raise ConfigurationError(f"horizon T must be finite and nonnegative, got {T}")
    if not np.all(np.isfinite(s0.u)):
        raise ConfigurationError("the initial state s0.u has non-finite values")
    check_multipliers(p, mu1, mu2)
    _check_start(s0, dly, cfg.dt, s0.t + T)
    history = s0.history.copy()
    n_steps = int(np.floor(T / cfg.dt + 1e-9))
    try:
        # one column per monitor row, its entries in CSV_COLUMNS order: E is
        # entry 1, the two traces entries 5 and 6
        table = np.empty((len(CSV_COLUMNS), n_steps + 1))
        states = np.empty((n_steps + 1, s0.u.size)) if store_fields else None
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(
            f"cannot allocate {n_steps + 1:.6g} rows for T = {T} at dt = {cfg.dt}: {exc}") from exc
    stepper = Stepper(ops, cfg, p, dly)

    def record(rows: slice, U, t) -> None:
        table[:, rows] = energy_rows(U, t, tau_at(dly, t)[0], history, p, ops.grid, mu1, mu2)

    record(slice(0, 1), s0.u[None], np.array([s0.t]))
    if states is not None:
        states[0] = s0.u
    E0 = table[1, 0]
    rows, termination, lengths = 1, "completed", []
    t, u = s0.t, s0.u
    block_rows = None if states is not None else np.empty((min(n_steps, _BLOCK), s0.u.size))
    while rows <= n_steps and termination == "completed":
        times, queries = stepper._plan(t, min(_BLOCK, n_steps + 1 - rows))
        K = queries.size
        U = block_rows[:K] if states is None else states[rows:rows + K]
        start, error = stepper._steps_done, None
        try:
            stepper._block(u, history, times, queries, U)
        except tuple(_TERMINATION) as exc:
            error = exc
        kept = stepper._steps_done - start
        new = slice(rows, rows + kept)
        if kept:
            with np.errstate(all="ignore"):
                record(new, U[:kept], times[1:kept + 1])
        E = table[1, new]
        unstable = ~np.isfinite(E) | ((E0 > 0) & (E > _BLOWUP_FACTOR * E0))
        cause = ""
        if unstable.any():
            # the steps after the first unstable row are not the run's
            kept, termination = int(np.argmax(unstable)) + 1, "unstable"
        elif error is not None:
            termination, cause = _TERMINATION[type(error)], f": {error}"
        if termination != "completed":
            log.info("run stopped at step %d (t = %.6g): %s%s",
                     rows + kept, times[kept], termination, cause)
        # the counters stop at the last row kept
        stepper._steps_done = start + kept
        stepper._solves, stepper._q_max = stepper._tally[kept]
        lengths.append(kept)
        rows += kept
        t, u = times[K], U[K - 1].copy()
    if lengths:
        log.debug("run: %d steps in %d blocks, shortest %d, mean length %.4g",
                  sum(lengths), len(lengths), min(lengths), np.mean(lengths))
    if cfg.nonlinear:
        log.debug("nonlinear run: %d steps, %d solves, largest q %.3g",
                  stepper._steps_done, stepper._solves, stepper._q_max)

    # dE/dt = 1/2 q^T Phi q with q = (trace_now, trace_delayed) per row and
    # tau_dot(t) in place of d in Phi's (2,2) entry |beta| (d - 1)
    q = table[5:, :rows]
    tau_dot = tau_at(dly, table[0, :rows])[1]
    return RunReport(
        **dict(zip(CSV_COLUMNS, table[:, :rows])),
        dissipation_rhs=(0.5 * np.sum(q * (phi_matrix(p, dly) @ q), axis=0)
                         + 0.5 * abs(p.beta) * (tau_dot - dly.d) * q[1] ** 2),
        fields_eta=None if states is None else states[:rows, 0::2],
        fields_omega=None if states is None else states[:rows, 1::2],
        termination=termination,
        config={
            "a": p.a, "a1": p.a1, "L": p.L, "alpha": p.alpha, "beta": p.beta,
            "tau0": dly.tau0, "M": dly.M, "d": dly.d, "form": dly.form,
            "n": ops.grid.n, "dt": cfg.dt, "theta": cfg.theta, "T": T,
            "nonlinear": cfg.nonlinear, "mu1": mu1, "mu2": mu2,
        },
    )


def slow_mode_state(ops: OperatorSet, p: SystemParams, dly: DelaySpec, dt: float,
                    amplitude: float = 1.0):
    """Least-damped time-resolved eigenpair of the delayed system.

    Solves the delay eigenproblem lambda*u = A u + exp(-lambda*tau0) B u
    with ops.A and the rank-one B of `OperatorSet`, and seeds the trace
    history from the mode's own exponential past.  Returns (SimState,
    lambda), lambda with Im >= 0.  Useful as transient-free benchmark data.

    The candidates are the decaying eigenvalues, in the time-resolved disk
    |lambda| dt <= 0.7, of the dense A on a grid of min(n, 24) nodes.  The
    start is the oscillatory candidate (any candidate if none oscillates)
    with the least |Re|, taken with Im >= 0.  B = -beta g t^T has rank one,
    so lambda is a root of G = 1/s + beta exp(-lambda*tau0),
    s = t^T (lambda I - A)^{-1} g (with beta = 0, of A's eigenvalues).
    Newton on G factors lambda I - A once per step (`BandedLU`) and makes two
    solves.  It goes on while a step is above the floor eps * ||A||_1 or
    halves the one before, and returns the lambda before the first step that
    is neither; that step is lambda's attained accuracy, logged at DEBUG.
    The eigenvector is x = (lambda I - A)^{-1} g from the last factorization,
    scaled so its largest-modulus entry equals `amplitude` (real); its real
    part is the initial state.  The history holds Re(t^T x exp(lambda s))
    at evenly spaced times s on [-tau0, 0], its s = 0 sample the trace of
    the initial eta (`trace_eta_xx_L`), as `initial_state` sets it.

    Raises ConfigurationError when amplitude is not finite, dt >= tau0 or
    `OperatorSet.check_params` fails (all before any work) or no candidate
    exists; NumericalError when the coarse eigensolve or a factorization
    fails, or when the final step, at the stop or after 12 factorizations,
    is above the floor, the accuracy a dense eigensolve guarantees (a NaN
    step, as when exp(-lambda tau0) overflows, included).
    """
    if not np.isfinite(amplitude):
        raise ConfigurationError(f"amplitude must be finite, got {amplitude}")
    _check_setup(ops, p, dt, dly)
    A = ops.A
    n2 = A.shape[0]
    tau0 = dly.tau0

    coarse = Grid(min(ops.grid.n, _COARSE_N), ops.grid.L)
    coarse_ops = ops if coarse == ops.grid else build_operators(p, coarse)
    try:
        ev = np.linalg.eigvals(coarse_ops.A.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve on the n={coarse.n} grid failed: {exc}") from exc
    ok = (np.abs(ev) * dt <= _RESOLVE_LIMIT) & (ev.real < 0)
    osc = ok & (np.abs(ev.imag) > 1e-9)
    cand = np.flatnonzero(osc if osc.any() else ok)
    if cand.size == 0:
        raise ConfigurationError(
            "no time-resolved decaying mode at this (dt, parameters)")
    lam = ev[cand[np.argmin(np.abs(ev[cand].real))]]
    lam = complex(lam.real, abs(lam.imag))
    log.debug("slow mode: Newton starts at %s, from %d candidates on the n=%d grid",
              lam, cand.size, coarse.n)

    g = np.zeros(n2)
    g[0::2] = ops.omega_s_influence
    t = ops.trace_row
    floor = np.finfo(float).eps * abs(A).sum(axis=0).max()   # ||A||_1
    last = np.inf
    # G' = t^T (lambda I - A)^{-2} g / s^2 - tau0 beta exp(-lambda*tau0)
    for factors in range(1, 13):
        lu = BandedLU(lam * sp.identity(n2) - A)
        v = lu.solve(g)
        s = t @ v[0::2]
        with np.errstate(all="ignore"):   # a NaN step stops Newton and fails the floor
            e = p.beta * np.exp(-lam * tau0)
            dlam = -(1 / s + e) / (t @ lu.solve(v)[0::2] / s ** 2 - tau0 * e)
        step = abs(dlam)
        if factors == 12 or not (step > floor or step < 0.5 * last):
            break
        lam, last = complex(lam + dlam), step
    if not step <= floor:
        raise NumericalError(
            f"slow-mode Newton stalled after {factors} factorizations at lambda = "
            f"{lam}: step {step:.3g} above the floor eps ||A||_1 = {floor:.3g}")
    log.debug("slow mode: Newton took %d factorizations, attained accuracy %.3g, "
              "floor %.3g", factors, step, floor)
    v = v / v[np.argmax(np.abs(v))] * amplitude
    t_hist = np.linspace(-tau0, 0.0, _N_HISTORY)
    hist_vals = np.real(complex(t @ v[0::2]) * np.exp(lam * t_hist))
    u = v.real.copy()
    hist_vals[-1] = trace_eta_xx_L(u[0::2], ops.grid)
    return SimState._from_u(0.0, u, HistoryLine(t_hist, hist_vals)), lam
