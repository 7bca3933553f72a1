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
from .params import DelaySpec, Grid, SystemParams
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
    """(exact, profile, eta_xx0) callables; eta* = omega* for both families,
    each forced on both rows by e^{-t} profile(x), and eta_xx0 is the datum
    eta_xx(t, 0), 0.0 for the sine family."""
    L = p.L

    if family == "quartic":

        def exact(t, x):
            q0, *_ = _q_derivs(x, L)
            return np.exp(-t) * q0

        def profile(x):
            q0, q1, q2, q3, q4 = _q_derivs(x, L)
            return -q0 + q1 + p.a * q3   # fifth derivative vanishes

        def eta_xx0(t):
            return 2.0 * L ** 2 * math.exp(-t)

        return exact, profile, eta_xx0

    if family == "sine":
        k = 2 * math.pi / L

        def s(x, n):
            return k ** n * np.sin(k * x + n * math.pi / 2)

        def phi_deriv(x, n):
            # Leibniz rule for sin(kx) * q(x); q^(5) = 0
            qs = _q_derivs(x, L)
            return sum(math.comb(n, j) * s(x, n - j) * qs[j]
                       for j in range(min(n, 4) + 1))

        def exact(t, x):
            return np.exp(-t) * np.sin(k * x) * x ** 2 * (L - x) ** 2

        def profile(x):
            return (-phi_deriv(x, 0) + phi_deriv(x, 1)
                    + p.a * phi_deriv(x, 3) + p.a1 * phi_deriv(x, 5))

        return exact, profile, lambda t: 0.0

    raise ConfigurationError(f"unknown manufactured family {family!r}")


def mms_error(p: SystemParams, dly: DelaySpec, n: int, dt: float, T: float,
              family: str = "quartic") -> float:
    """Discrete L2 error at the last step by T of the forced run against the
    manufactured pair.

    Advances a `Stepper` in blocks (`Stepper.advance`) whose forcing, the
    pair's spatial profile computed once times e^{-t}, carries on the omega
    rows the eta_xx(0) datum through `eta_c_influence`; it keeps no
    fields and computes no monitor rows.  A failed step raises its error
    (NumericalError for a failed banded solve) instead of scoring the run
    so far."""
    grid = Grid(n=n, L=p.L)
    ops = build_operators(p, grid)
    exact, profile, eta_xx0 = manufactured_pair(p, family)
    x = grid.nodes
    shape = profile(x)

    def forced(t, x):
        f = np.exp(-t) * shape
        return f, f - ops.eta_c_influence * eta_xx0(t)

    state = initial_state(p, dly, grid, exact(0.0, x), exact(0.0, x))
    stepper = Stepper(ops, StepConfig(dt=dt, theta=suggested_theta(dt)), p, dly,
                      forcing=forced)
    state = stepper.advance(state, int(np.floor(T / dt + 1e-9)))
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
