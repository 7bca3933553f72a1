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
makes every run one step.  A block that completes drops the history before
the earliest point it read, and `run` adds one monitor pass over its rows.
Optional Picard iteration handles the quadratic nonlinear terms, iterating
on increments with one right-hand side per banded solve from one sparse
product into a pair table and one out of it (`operators.nonlinear_matrices`).
A run logs its blocks, and a nonlinear run its step and solve counts and its
largest contraction estimate, at DEBUG, over the rows it kept.
"""

from __future__ import annotations

import logging
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificate import check_multipliers, phi_matrix
from .energy import _check_state_size, energy_rows
from .delay_line import HistoryLine
from .errors import ConfigurationError, NonlinearDivergenceError, NumericalError
from .operators import (OperatorSet, _csr_apply, build_operators, nonlinear_matrices,
                        trace_eta_xx_L)
from .params import DelaySpec, Grid, SystemParams, _check_dt, _step_count, _tau_extremes, tau_at
from .report import CSV_COLUMNS, RunReport

_BLOWUP_FACTOR = 1e6
# steps per block (`Stepper._plan`): the block's state rows, which first hold
# its sources, stay near 0.8 MB at n = 200
_BLOCK = 256
# Picard iteration (`Stepper._solve_step`): at most this many solves per
# step, and the relative accuracy Banach's a-posteriori bound must certify
_PICARD_ITERS = 30
_PICARD_TOL = 1e-12
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
    as read-only.  eta and omega not 1-D of one length are a ConfigurationError.
    """

    def __init__(self, t: float, eta, omega, history: HistoryLine):
        eta = np.asarray(eta, dtype=float)
        omega = np.asarray(omega, dtype=float)
        if eta.ndim != 1 or eta.shape != omega.shape:
            raise ConfigurationError(f"eta and omega must be 1-D of one length, "
                                     f"got shapes {eta.shape} and {omega.shape}")
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
    """Theta-scheme parameters: dt by `params._check_dt`, theta in [1/2, 1].

    theta = 1/2 is Crank-Nicolson; production runs use theta = 1/2 + O(dt)
    to damp the stiff spurious closure modes (see `suggested_theta`), and
    theta = 1 is backward Euler.
    """

    dt: float
    theta: float = 0.5
    nonlinear: bool = False

    def __post_init__(self):
        _check_dt(self.dt)
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [1/2, 1], got {self.theta}")


def suggested_theta(dt: float) -> float:
    """theta = 1/2 + 2 dt: second-order consistent, damps modes with
    Re(lambda) > 1/(2 dt^2)."""
    return min(1.0, 0.5 + 2.0 * dt)


def initial_state(p: SystemParams, dly: DelaySpec, grid, eta0, omega0) -> SimState:
    """The t = 0 state; its history is dly.history with the t = 0 sample set to eta0's trace.
    Fields that `SimState` refuses, or not of the grid's size, are a ConfigurationError."""
    state = SimState(t=0.0, eta=eta0, omega=omega0, history=None)
    values = dly.history.copy()
    values[-1] = trace_eta_xx_L(state.eta, grid)
    state.history = HistoryLine(dly.history_times(), values)
    return state


def _check_start(state: SimState, grid: Grid, dly: DelaySpec, dt: float, t_end: float) -> None:
    """Refuse a state not of the grid's size or not finite, one whose history
    has moved on or starts after its delayed time t - tau(t), and a law with
    tau' >= 1 or tau <= dt on [t, t_end], the interval its steps cover (the
    stepped paths' one dt rule; `slow_mode_state` keeps 0 < dt < tau0)."""
    _check_state_size(state.u, grid)
    if not np.all(np.isfinite(state.u)):
        raise ConfigurationError("the state's u has non-finite values")
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
    tau_min, _, dot_max = _tau_extremes(dly, state.t, t_end)
    span = f"[{state.t:.6g}, {t_end:.6g}]"
    if not dot_max < 1:   # written so that a NaN fails it
        raise ConfigurationError(f"the delay law's slope reaches max tau' = {dot_max:.6g} >= 1 "
                                 f"on {span}: t - tau(t) must move forward")
    if not dt < tau_min:   # written so that a NaN fails it
        raise ConfigurationError(f"the delay falls to min tau = {tau_min:.6g} <= dt = {dt} "
                                 f"on {span}: a step must read the stored past")


class Stepper:
    """Assembled theta-scheme integrator for one (operators, config) pair;
    ops must be built for p's a, a1, L and alpha (`OperatorSet.check_params`).
    It holds only what its constructor builds; `advance` checks dt (`_check_start`).

    forcing = (column, law), a finite interleaved (2n,) column and a law
    giving one finite real value per time of an array, adds law(t + theta dt)
    column to each step's sources; a column of another shape or not finite is
    a ConfigurationError, and so, before a run's first solve, is a law not
    giving one finite real value per time of the run (`_block`).
    A nonlinear stepper binds the CSR kernel of its two maps once (`_csr_apply`)."""

    def __init__(self, ops: OperatorSet, cfg: StepConfig, p: SystemParams,
                 dly: DelaySpec, forcing=None):
        ops.check_params(p)
        self.ops = ops
        self.cfg = cfg
        self.dly = dly
        n = ops.grid.n
        if forcing is not None:
            column, law = np.asarray(forcing[0], dtype=float), forcing[1]
            if column.shape != (2 * n,) or not np.all(np.isfinite(column)):
                raise ConfigurationError(f"forcing needs a finite ({2 * n},) column, "
                                         f"got shape {column.shape}")
            forcing = column, law
        self.forcing = forcing
        self._lu = ops.shifted_lu(1.0, cfg.theta * cfg.dt)
        # the source per unit delayed trace: B's column on the eta rows
        self._delay_source = np.zeros(2 * n)
        self._delay_source[0::2] = -p.beta * ops.omega_s_influence
        if cfg.nonlinear:
            self._G, self._C = nonlinear_matrices(n, ops.grid.h, p)
            self._apply_G, self._apply_C = _csr_apply(self._G), _csr_apply(self._C)

    def _nonlinear_rhs(self, F: np.ndarray, Fd: np.ndarray | None = None) -> np.ndarray:
        """The quadratic terms N(u) = C (F_i F_j) from the pair table F = G u
        (halves F_i, F_j) or, given Fd = G d, their increment
        N(u + d/2) - N(u - d/2) = C (F_i Fd_j + Fd_i F_j)."""
        h = F.size // 2
        if Fd is None:
            return self._apply_C(F[:h] * F[h:])
        return self._apply_C(F[:h] * Fd[h:] + Fd[:h] * F[h:])

    def _solve_step(self, u: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(u', solves, q): the state u' one dt after u, given rhs = u + theta dt
        (sources), with its Picard solve count and largest q (0 and 0.0 if linear).
        u' takes one banded solve, as with N = I - theta dt A the scheme's N^-1 ((I +
        (1 - theta) dt A) u + dt (sources)) is (N^-1 rhs - (1 - theta) u) / theta.

        Nonlinear steps iterate Picard, one right-hand side per solve: N(u_0)
        serves the explicit (1 - theta) term and u_1, folded from
        rhs + theta dt N(u_0) the same way, then each increment
        d_k = u_{k+1} - u_k = theta dt LU^-1 (N(u_k) - N(u_{k-1})) comes from
        d_{k-1} and the midpoint pair table, so its roundoff scales with |d_k|.
        They stop once Banach's bound q/(1-q) |d_k| <= _PICARD_TOL |u_{k+1}|
        holds, q = |d_k| / |d_{k-1}|.  q >= 1 (no contraction), a non-finite
        iterate or _PICARD_ITERS solves raise NonlinearDivergenceError."""
        dt, theta = self.cfg.dt, self.cfg.theta
        if self.cfg.nonlinear:
            F = self._apply_G(u)
            rhs = rhs + theta * dt * self._nonlinear_rhs(F)
        u_new = (self._lu.solve(rhs) - (1.0 - theta) * u) / theta
        if not self.cfg.nonlinear:
            return u_new, 0, 0.0
        d = u_new - u
        delta = math.sqrt(d @ d)
        q_max = 0.0
        for solves in range(2, _PICARD_ITERS + 1):
            Fd = self._apply_G(d)
            d = self._lu.solve(theta * dt * self._nonlinear_rhs(F + 0.5 * Fd, Fd))
            F += Fd
            u_new += d
            prev, delta = delta, math.sqrt(d @ d)
            scale = math.sqrt(u_new @ u_new)
            # a NaN or infinite entry, or a norm that overflows
            if not math.isfinite(delta + scale):
                raise NonlinearDivergenceError("nonlinear iterate is not finite")
            q = delta / prev if prev > 0 else 0.0   # 0/0: an exact fixed point
            q_max = max(q_max, q)
            if q >= 1:
                raise NonlinearDivergenceError(f"Picard map does not contract: q = {q:.3g}")
            if q * delta <= (1.0 - q) * _PICARD_TOL * scale:
                return u_new, solves, q_max
        raise NonlinearDivergenceError(f"Picard iteration did not reach tol={_PICARD_TOL} "
                                       f"within {_PICARD_ITERS} iterations")

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
               queries: np.ndarray, out: np.ndarray, picard: list) -> None:
        """Take the steps of a block (`_plan`) from u at times[0], writing the
        state at times[k + 1] into out[k].  A run's delayed traces come from
        one `HistoryLine.query` and its forcing values from one law call (not
        one finite real value per time is a ConfigurationError, before the
        run's first solve); its sources go into the rows of out its steps then
        overwrite, so no source matrix is allocated.  Then per step one banded
        solve (Picard for the nonlinear terms, `_solve_step`), and after the
        run its traces from one `trace_eta_xx_L` of its states and one
        `HistoryLine.extend`; a run goes on while the next step's query point
        is at or before the newest sample pushed (a NaN point ends it), so a
        delay of many steps makes one run of the block.  Each step taken into
        out appends its Picard solve count and largest q (`_solve_step`) to
        picard, so a step that fails raises its error after the steps before
        it are in out, in picard and in the history.  A blow-up spreads inf
        and NaN without a warning, so a run can stop at its first unstable row.
        Once the steps are in, the history drops the past before queries[0],
        the earliest point the block read (a block that raises keeps it): with
        tau' < 1 and theta <= 1 the later query points and the rows' window
        starts times[1:] - tau lie after it."""
        dt, theta = self.cfg.dt, self.cfg.theta
        K = len(out)
        done = 0
        while done < K:
            start, end = done, done + 1
            while end < K and queries[end] <= times[done]:
                end += 1
            rows = out[start:end]
            with np.errstate(all="ignore"):
                try:
                    # the run's sources, delayed trace * B's column + law * forcing
                    # column, in the rows its steps then overwrite
                    np.multiply.outer(history.query(queries[start:end]), self._delay_source,
                                      out=rows)
                    if self.forcing is not None:
                        column, law = self.forcing
                        values = np.asarray(law(times[start:end] + theta * dt))
                        if not (values.shape == (end - start,) and values.dtype.kind in "iuf"
                                and np.isfinite(values).all()):
                            raise ConfigurationError(
                                f"the forcing law gave shape {values.shape} for {end - start} "
                                f"times: need one value per time, finite and real "
                                f"(dtype {values.dtype})")
                        for row, value in zip(rows, values):
                            row += value * column
                    rows *= theta * dt
                    for k, row in zip(range(start, end), rows):
                        row += u
                        u, solves, q = self._solve_step(u, row)
                        picard.append((solves, q))
                        out[k] = u
                        done += 1
                finally:
                    traces = trace_eta_xx_L(out[start:done, 0::2], self.ops.grid)
                    history.extend(times[start + 1:done + 1], traces)
        history.drop_before(queries[0])

    def advance(self, state: SimState, steps: int) -> SimState:
        """The state `steps` steps later, taken in blocks of at most _BLOCK
        (`_plan`, `_block`); advances `state.history` in place, which keeps
        about max tau / dt + _BLOCK samples.  Raises ConfigurationError
        before the first step when steps is not a nonnegative integer, or,
        as `run` does, for a state not of the grid's size or not finite, one
        whose history does not end at its time or starts after its delayed
        time t - tau(t), or a law with tau' >= 1 or tau <= dt from its time to
        the last step's (`_check_start`); and the NonlinearDivergenceError or
        NumericalError of a step that fails.  Its Picard counts are dropped."""
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
            raise ConfigurationError(f"need a nonnegative integer step count, got {steps!r}")
        dt = self.cfg.dt
        _check_start(state, self.ops.grid, self.dly, dt, state.t + steps * dt)
        t, u = state.t, state.u
        out = np.empty((min(steps, _BLOCK), u.size))
        while steps > 0:
            times, queries = self._plan(t, min(_BLOCK, steps))
            K = queries.size
            self._block(u, state.history, times, queries, out[:K], [])
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
    (`Stepper._plan`): the block takes its steps in runs, each with one
    history query for its delayed sources, one banded solve per step, and one
    trace product and one history extend by its traces, then drops the
    history before its first query point (`Stepper._block`).
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
    length are logged at DEBUG, and a nonlinear run's step and solve counts
    and largest q, from the pairs `Stepper._block` appends per step; a blow-up
    steps on until its rows are recorded, but these counts stop at its first unstable row.

    Raises ConfigurationError before the first step when s0.u is not finite or
    not the 2n values of the grid, when s0.history does not end at s0.t or
    starts after s0.t - tau(s0.t), when the law's max tau' on [s0.t, s0.t + T]
    is 1 or more or its min tau there is dt or less, when T is negative or not
    finite or T / dt not finite, when the arrays for its T / dt rows cannot be
    allocated, when the Lyapunov multipliers lie outside 0 <= mu1 < 1/L,
    0 <= mu2 < 1, or when `OperatorSet.check_params` fails.  A step that fails with
    NonlinearDivergenceError or NumericalError, or an energy that blows up,
    ends the run early: the report keeps the rows before it and names the
    cause in `termination`.
    """
    if rho_res is not None:
        warnings.warn("run ignores rho_res: the monitor row integrates the delay terms "
                      "exactly; the keyword goes once perfbench stops passing it "
                      "(ROADMAP item 1)", DeprecationWarning, stacklevel=2)
    n_steps = _step_count(T, cfg.dt)
    check_multipliers(p, mu1, mu2)
    _check_start(s0, ops.grid, dly, cfg.dt, s0.t + T)
    history = s0.history.copy()
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
        with np.errstate(all="ignore"):   # the rows of finite data may overflow
            table[:, rows] = energy_rows(U, t, dly, history, p, ops.grid, mu1, mu2)

    record(slice(0, 1), s0.u[None], np.array([s0.t]))
    if states is not None:
        states[0] = s0.u
    E0 = table[1, 0]
    rows, termination, lengths, solves, q_max = 1, "completed", [], 0, 0.0
    t, u = s0.t, s0.u
    block_rows = None if states is not None else np.empty((min(n_steps, _BLOCK), s0.u.size))
    while rows <= n_steps and termination == "completed":
        times, queries = stepper._plan(t, min(_BLOCK, n_steps + 1 - rows))
        K = queries.size
        U = block_rows[:K] if states is None else states[rows:rows + K]
        error, picard = None, []
        try:
            stepper._block(u, history, times, queries, U, picard)
        except tuple(_TERMINATION) as exc:
            error = exc
        kept = len(picard)
        new = slice(rows, rows + kept)
        if kept:
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
        # the counts stop at the last row kept
        for count, largest in picard[:kept]:
            solves, q_max = solves + count, max(q_max, largest)
        lengths.append(kept)
        rows += kept
        t, u = times[K], U[K - 1].copy()
    if lengths:
        log.debug("run: %d steps in %d blocks, shortest %d, mean length %.4g",
                  sum(lengths), len(lengths), min(lengths), np.mean(lengths))
    if cfg.nonlinear:
        log.debug("nonlinear run: %d steps, %d solves, largest q %.3g",
                  rows - 1, solves, q_max)

    # dE/dt = 1/2 q^T Phi q with q = (trace_now, trace_delayed) per row and
    # tau_dot(t) in place of d in Phi's (2,2) entry |beta| (d - 1)
    q = table[5:, :rows]
    tau_dot = tau_at(dly, table[0, :rows])[1]
    with np.errstate(all="ignore"):   # traces of a blow-up overflow, as its rows do
        rate = (0.5 * np.sum(q * (phi_matrix(p, dly) @ q), axis=0)
                + 0.5 * abs(p.beta) * (tau_dot - dly.d) * q[1] ** 2)
    return RunReport(
        **dict(zip(CSV_COLUMNS, table[:, :rows])),
        dissipation_rhs=rate,
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


@lru_cache(maxsize=16)
def _coarse_spectrum(a: float, a1: float, L: float, alpha: float, n: int) -> np.ndarray:
    """The eigenvalues of the dense A (`build_operators`, which depends on
    these four parameters only, formed from its band storage) on the n-node
    grid, as a read-only array: the slow mode's start candidates, shared by
    the levels of a ladder and the points of a sweep."""
    ab, kl, ku = build_operators(SystemParams(a=a, a1=a1, L=L, alpha=alpha), Grid(n, L)).A_band
    r, j = np.nonzero(ab)
    A = np.zeros((ab.shape[1], ab.shape[1]))
    A[j + r - kl - ku, j] = ab[r, j]
    ev = np.linalg.eigvals(A)
    ev.flags.writeable = False
    return ev


def slow_mode_state(ops: OperatorSet, p: SystemParams, dly: DelaySpec, dt: float,
                    amplitude: float = 1.0):
    """Least-damped time-resolved eigenpair of the delayed system.

    Solves the delay eigenproblem lambda*u = A u + exp(-lambda*tau0) B u
    with A of ops.A_band and the rank-one B of `OperatorSet`, and seeds the trace
    history from the mode's own exponential past.  Returns (SimState,
    lambda), lambda with Im >= 0.  Useful as transient-free benchmark data.

    The candidates are the decaying eigenvalues, in the time-resolved disk
    |lambda| dt <= 0.7, of the dense A on a grid of min(n, 24) nodes, one
    cached spectrum per (a, a1, L, alpha) and grid (`_coarse_spectrum`).  The
    start is the oscillatory candidate (any candidate if none oscillates)
    with the least |Re|, taken with Im >= 0.  B = -beta g t^T has rank one,
    so lambda is a root of G = 1/s + beta exp(-lambda*tau0),
    s = t^T (lambda I - A)^{-1} g (with beta = 0, of A's eigenvalues).
    Newton on G factors lambda I - A once per step from A's band storage
    (`OperatorSet.shifted_lu`) and makes two solves.  It goes on while a step
    is above the floor eps * ||A||_1 or halves the one before, and returns
    the lambda before the first step that is neither; that step is lambda's
    attained accuracy, logged at DEBUG.
    The eigenvector is x = (lambda I - A)^{-1} g from the last factorization,
    scaled so its largest-modulus entry equals `amplitude` (real); its real
    part is the initial state.  The history holds Re(t^T x exp(lambda s))
    at evenly spaced times s on [-tau0, 0], its s = 0 sample the trace of
    the initial eta (`trace_eta_xx_L`), as `initial_state` sets it.

    Raises ConfigurationError when amplitude is not finite, dt >= tau0 or
    `OperatorSet.check_params` fails (all before any work), no candidate
    exists or the amplitude overflows the mode's history (`HistoryLine`); NumericalError when the coarse eigensolve or a factorization
    fails, or when the final step, at the stop or after 12 factorizations,
    is above the floor, the accuracy a dense eigensolve guarantees (a NaN
    step, as when exp(-lambda tau0) overflows, included).
    """
    if not np.isfinite(amplitude):
        raise ConfigurationError(f"amplitude must be finite, got {amplitude}")
    ops.check_params(p)
    if not 0 < dt < dly.tau0:
        raise ConfigurationError(
            f"explicit delay treatment requires 0 < dt < tau0: dt={dt}, tau0={dly.tau0}")
    tau0 = dly.tau0
    coarse_n = min(ops.grid.n, _COARSE_N)
    try:
        ev = _coarse_spectrum(p.a, p.a1, p.L, p.alpha, coarse_n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve on the n={coarse_n} grid failed: {exc}") from exc
    ok = (np.abs(ev) * dt <= _RESOLVE_LIMIT) & (ev.real < 0)
    osc = ok & (np.abs(ev.imag) > 1e-9)
    cand = np.flatnonzero(osc if osc.any() else ok)
    if cand.size == 0:
        raise ConfigurationError(
            "no time-resolved decaying mode at this (dt, parameters)")
    lam = ev[cand[np.argmin(np.abs(ev[cand].real))]]
    lam = complex(lam.real, abs(lam.imag))
    log.debug("slow mode: Newton starts at %s, from %d candidates on the n=%d grid",
              lam, cand.size, coarse_n)

    g = np.zeros(2 * ops.grid.n)
    g[0::2] = ops.omega_s_influence
    t = ops.trace_row
    # ||A||_1: a column of A is a column of its band storage
    floor = np.finfo(float).eps * np.abs(ops.A_band[0]).sum(axis=0).max()
    last = np.inf
    # G' = t^T (lambda I - A)^{-2} g / s^2 - tau0 beta exp(-lambda*tau0)
    for factors in range(1, 13):
        lu = ops.shifted_lu(lam, 1.0)
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
    u = v.real.copy()
    with np.errstate(all="ignore"):   # `HistoryLine` refuses the values of an overflow
        hist_vals = np.real(complex(t @ v[0::2]) * np.exp(lam * t_hist))
        hist_vals[-1] = trace_eta_xx_L(u[0::2], ops.grid)
    return SimState._from_u(0.0, u, HistoryLine(t_hist, hist_vals)), lam
