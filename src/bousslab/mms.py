"""Manufactured-solution verification.

Two exact families:

* "quartic": eta* = omega* = e^{-t} x^2 (L-x)^2.  Satisfies the clamped
  conditions and, with alpha = 1 and beta = 0, the feedback condition; its
  nonzero curvature at x = 0 is supplied through the inhomogeneous
  eta_xx(0) channel (`eta_c_influence`).  Quartics lie in the exact space of
  both the interior stencils and the closures, so this family checks the
  data channels and the time integrator at near-roundoff level rather than
  measuring a spatial order.

* "sine": eta* = omega* = e^{-t} sin(2 pi x / L) x^2 (L-x)^2.  Satisfies
  every homogeneous boundary condition including the curvature ones and
  carries a genuine O(h^2) spatial error; used for the order study.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .operators import build_operators
from .params import DelaySpec, Grid, SystemParams, _step_count
from .stepping import StepConfig, Stepper, initial_state, suggested_theta


def _q_derivs(x, L):
    """x^2 (L-x)^2 and its derivatives through order four."""
    q0 = x ** 2 * (L - x) ** 2
    q1 = 2 * L ** 2 * x - 6 * L * x ** 2 + 4 * x ** 3
    q2 = 2 * L ** 2 - 12 * L * x + 12 * x ** 2
    q3 = -12 * L + 24 * x
    q4 = 24.0 * np.ones_like(x)
    return q0, q1, q2, q3, q4


def manufactured_pair(p: SystemParams, family: str = "quartic"):
    """(exact, profile, c0) of eta* = omega* = e^{-t} phi(x), phi = m(x) x^2
    (L-x)^2 with m = 1 ("quartic") or sin(2 pi x / L) ("sine"): both rows
    are forced by e^{-t} profile(x), profile = -phi + phi' + a phi''' + a1
    phi^(5), and the datum is eta_xx(t, 0) = c0 e^{-t}, c0 = phi''(0)."""
    if family not in ("quartic", "sine"):
        raise ConfigurationError(f"unknown manufactured family {family!r}")
    L, k = p.L, 2 * math.pi / p.L

    def m(x, j):
        if family == "quartic":
            return float(j == 0)
        return k ** j * np.sin(k * x + j * math.pi / 2)

    def phi(x, order=0):
        # Leibniz rule for m(x) q(x); q^(5) = 0
        qs = _q_derivs(x, L)
        return sum(math.comb(order, j) * m(x, order - j) * qs[j]
                   for j in range(min(order, 4) + 1))

    def exact(t, x):
        return np.exp(-t) * phi(x)

    def profile(x):
        return -phi(x) + phi(x, 1) + p.a * phi(x, 3) + p.a1 * phi(x, 5)

    return exact, profile, float(phi(0.0, 2))


def mms_error(p: SystemParams, dly: DelaySpec, n: int, dt: float, T: float,
              family: str = "quartic") -> float:
    """Discrete L2 error at the last step by T of the forced run against the
    manufactured pair.

    Advances a `Stepper` in blocks (`Stepper.advance`) forced by e^{-t} times
    one column: the pair's profile on the eta rows, and on the omega rows the
    profile less c0 `eta_c_influence`, which carries the eta_xx(0) datum; it
    keeps no fields and computes no monitor rows.  Its steps are `run`'s
    count for T (`_step_count`): a T not finite and nonnegative, or a T / dt
    not finite, is a ConfigurationError before any work.  A failed step
    raises its error (NumericalError for a failed banded solve) instead of
    scoring the run so far."""
    cfg = StepConfig(dt=dt, theta=suggested_theta(dt))
    steps = _step_count(T, cfg.dt)
    grid = Grid(n=n, L=p.L)
    ops = build_operators(p, grid)
    exact, profile, c0 = manufactured_pair(p, family)
    x = grid.nodes
    column = np.repeat(profile(x), 2)
    column[1::2] -= c0 * ops.eta_c_influence
    state = initial_state(p, dly, grid, exact(0.0, x), exact(0.0, x))
    stepper = Stepper(ops, cfg, p, dly, forcing=(column, lambda t: np.exp(-t)))
    state = stepper.advance(state, steps)
    err_e = state.eta - exact(state.t, x)
    err_w = state.omega - exact(state.t, x)
    return float(np.sqrt(grid.h * (err_e @ err_e + err_w @ err_w)))


def convergence_study(levels: int = 3):
    """Dyadic refinement study of the sine pair from n = 32, dt = 4e-3, to
    T = 1, with dt proportional to h^2.

    Returns (rows, orders): rows of (n, dt, error) and the observed orders
    between consecutive levels.  Raises ConfigurationError for fewer than
    two levels, which give no order.
    """
    if levels < 2:
        raise ConfigurationError(f"need at least 2 levels for an order, got {levels}")
    p = SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=0.0)
    dly = DelaySpec(tau0=0.5, M=0.5, d=0.0, form="constant")
    rows = []
    n = n0 = 32
    h0 = p.L / (n0 + 1)
    for _ in range(levels):
        h = p.L / (n + 1)
        dt_level = 4e-3 * (h / h0) ** 2
        rows.append((n, dt_level, mms_error(p, dly, n, dt_level, 1.0,
                                            family="sine")))
        n = 2 * n + 1
    orders = []
    for k in range(len(rows) - 1):
        n_a, _, e_a = rows[k]
        n_b, _, e_b = rows[k + 1]
        h_a = p.L / (n_a + 1)
        h_b = p.L / (n_b + 1)
        orders.append(float(np.log(e_a / e_b) / np.log(h_a / h_b)))
    return rows, orders


def quartic_exactness_error() -> float:
    """Error of the spec's quartic pair at n = 64, dt = 1e-3, T = 0.5 (near
    roundoff)."""
    p = SystemParams(a=1.0, a1=1.0, L=1.0, alpha=1.0, beta=0.0)
    dly = DelaySpec(tau0=0.5, M=0.5, d=0.0)
    return mms_error(p, dly, 64, 1e-3, 0.5, family="quartic")
