"""Model parameters, delay laws, spatial grid, and hypothesis validation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

DELAY_FORMS = ("constant", "affine", "sinusoidal")

# relative tolerance of the delay-law checks
_BOUND_TOL = 1e-12


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """Physical coefficients, feedback gains and nonlinear coefficients.

    The linear part is eta_t + omega_x + a*omega_xxx + a1*omega_xxxxx = 0 and
    its mirror image; the boundary feedback is
    omega_xx(t, L) = alpha*eta_xx(t, L) + beta*eta_xx(t - tau(t), L).
    """

    a: float = 1.0
    a1: float = 1.0
    L: float = 1.0
    alpha: float = 1.0
    beta: float = 0.0
    # nonlinear coefficients; only used when a run enables the nonlinear terms
    alpha_p: float = 0.0
    beta_p: float = 0.0
    rho_nl: float = 0.0
    c_nl: float | None = None   # defaults to a (scaled regime)

    def __post_init__(self):
        if self.c_nl is None:
            object.__setattr__(self, "c_nl", self.a)
        _require_finite(self, ("a", "a1", "L", "alpha", "beta",
                               "alpha_p", "beta_p", "rho_nl", "c_nl"))
        if not (self.a > 0 and self.a1 > 0):
            raise ConfigurationError(
                f"coefficients must be positive: a={self.a}, a1={self.a1}")
        if not self.L > 0:
            raise ConfigurationError(f"domain length must be positive, got {self.L}")

    @property
    def length_bound(self) -> float:
        """Largest L for which decay certification is available."""
        return math.pi * math.sqrt(5.0 * self.a1 / (3.0 * self.a))

    @property
    def length_ok(self) -> bool:
        return 0.0 < self.L < self.length_bound


@dataclass(frozen=True, eq=False)
class DelaySpec:
    """Time-varying delay law tau(t) with its bounds and the initial history.

    tau0 is tau(0); M bounds tau from above and d < 1 bounds its slope.
    `history` holds uniform samples of the boundary-trace history z0 on
    [-tau0, 0]; intermediate values are obtained by the history line's
    causal cubic Hermite interpolation (each slope from a sample and the two
    before it, not monotone).
    """

    tau0: float = 0.5
    M: float = 0.5
    d: float = 0.0
    form: str = "constant"
    rate: float = 0.0          # affine: tau = tau0 + rate*t, saturated at M
    amplitude: float = 0.0     # sinusoidal
    frequency: float = 1.0
    phase: float = 0.0
    history: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if self.form not in DELAY_FORMS:
            raise ConfigurationError(f"unknown delay form {self.form!r}")
        _require_finite(self, ("tau0", "M", "d", "amplitude", "frequency", "phase"))
        if not self.tau0 > 0:
            raise ConfigurationError(f"tau0 must be positive, got {self.tau0}")
        # written so that a NaN fails it
        if not 0 <= self.rate < math.inf:
            raise ConfigurationError(
                f"affine rate must be finite and nonnegative, got {self.rate}")
        hist = np.atleast_1d(np.asarray(self.history, dtype=float))
        bad = np.flatnonzero(~np.isfinite(hist))
        if bad.size:
            raise ConfigurationError(f"history sample {bad[0]} is {hist[bad[0]]}, not finite")
        if hist.size < 2:
            hist = np.full(2, float(hist[0]) if hist.size else 0.0)
        if hist.size < 65:
            # densify sparse seeds so the knot spacing does not jump by orders
            # of magnitude where the simulation starts appending dt-spaced
            # samples (cubic slope estimates overshoot on such jumps)
            coarse = np.linspace(-self.tau0, 0.0, hist.size)
            fine = np.linspace(-self.tau0, 0.0, 65)
            hist = np.interp(fine, coarse, hist)
        object.__setattr__(self, "history", hist)

    def history_times(self) -> np.ndarray:
        """Uniform sample times on [-tau0, 0] matching `history`."""
        return np.linspace(-self.tau0, 0.0, self.history.size)


def constant_history(value: float) -> np.ndarray:
    """A constant history z0 = value (DelaySpec densifies it, exactly)."""
    return np.full(2, float(value))


def tau_at(dly: DelaySpec, t: float) -> tuple[float, float]:
    """Evaluate (tau(t), tau'(t)) exactly for the closed-form delay laws."""
    # written so that a NaN fails it
    if not t >= 0:
        raise ConfigurationError(f"tau_at requires t >= 0, got {t}")
    if dly.form == "constant":
        return dly.tau0, 0.0
    if dly.form == "affine":
        if dly.rate <= 0:
            return dly.tau0, 0.0
        t_sat = (dly.M - dly.tau0) / dly.rate
        if t < t_sat:
            return dly.tau0 + dly.rate * t, dly.rate
        return dly.M, 0.0
    if dly.form == "sinusoidal":
        # anchored so tau(0) = tau0 for every phase
        s = math.sin(dly.frequency * t + dly.phase) - math.sin(dly.phase)
        tau = dly.tau0 + dly.amplitude * s
        tau_dot = dly.amplitude * dly.frequency * math.cos(dly.frequency * t + dly.phase)
        return tau, tau_dot
    raise ConfigurationError(f"unknown delay form {dly.form!r}")


def _reaches(lo: float, hi: float, c: float) -> bool:
    """Whether [lo, hi] holds a point c + 2 pi k."""
    return (hi - c) % (2.0 * math.pi) <= hi - lo


def _tau_extremes(dly: DelaySpec, horizon: float) -> tuple[float, float, float]:
    """(min tau, max tau, max tau') over [0, horizon], in closed form.

    The endpoints come from `tau_at`.  The affine law is monotone and its
    slope steps down to 0 at saturation, so the endpoints hold every
    extreme.  The sinusoid adds the interior crests and troughs of sin
    (tau) and cos (tau') as +-1.
    """
    (tau_a, dot_a), (tau_b, dot_b) = tau_at(dly, 0.0), tau_at(dly, horizon)
    taus, dots = [tau_a, tau_b], [dot_a, dot_b]
    if dly.form == "sinusoidal":
        A, w, ph = dly.amplitude, dly.frequency, dly.phase
        lo, hi = sorted((ph, w * horizon + ph))
        for c, s in ((0.5 * math.pi, 1.0), (-0.5 * math.pi, -1.0)):
            if _reaches(lo, hi, c):
                taus.append(dly.tau0 + A * (s - math.sin(ph)))
        for c, s in ((0.0, 1.0), (math.pi, -1.0)):
            if _reaches(lo, hi, c):
                dots.append(A * w * s)
    return min(taus), max(taus), max(dots)


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n interior nodes on (0, L); h = L/(n+1)."""

    n: int
    L: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ConfigurationError(f"n must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ConfigurationError(
                f"need n >= 8 interior nodes for the fifth-derivative stencil, got {self.n}")
        if not 0 < self.L < math.inf:
            raise ConfigurationError(f"domain length must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Interior nodes, built once per grid; read-only (shared)."""
        x = np.linspace(self.h, self.L - self.h, self.n)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    severity: str           # "error" | "warning"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def errors(self):
        return [c for c in self.checks if not c.passed and c.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when simulation may proceed (warnings allowed)."""
        return not self.errors

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok  " if c.passed else ("WARN" if c.severity == "warning" else "FAIL")
            lines.append(f"[{mark}] {c.name}: {c.message}")
        return "\n".join(lines)


def validate_params(p: SystemParams, dly: DelaySpec, horizon: float = 100.0) -> ValidationReport:
    """Check every standing hypothesis; L-restriction failures are warnings."""
    checks: list[Check] = []

    def add(name, passed, severity, message):
        checks.append(Check(name, bool(passed), severity, message))

    # a, a1, L, tau0 > 0 hold: the SystemParams and DelaySpec constructors
    # enforce them
    bound = p.length_bound
    add("L_restriction", p.L < bound, "warning",
        f"L = {p.L} vs certification bound {bound:.6g} "
        "(failure blocks certification only, not simulation)")
    add("M_upper_bound", dly.M >= dly.tau0, "error",
        f"M = {dly.M} must be >= tau0 = {dly.tau0}")
    add("slope_bound_range", 0.0 <= dly.d < 1.0, "error",
        f"d = {dly.d} must lie in [0, 1)")

    if not 0.0 <= horizon < math.inf:
        raise ConfigurationError(f"horizon must be finite and >= 0, got {horizon}")
    tmin, tmax, dotmax = _tau_extremes(dly, horizon)
    add("tau_floor", tmin >= dly.tau0 * (1.0 - _BOUND_TOL), "error",
        f"min tau = {tmin:.6g} vs tau0 = {dly.tau0}")
    add("tau_ceiling", tmax <= dly.M * (1.0 + _BOUND_TOL), "error",
        f"max tau = {tmax:.6g} vs M = {dly.M}")
    if dly.d < 1.0:
        add("slope_bound", dotmax <= dly.d + _BOUND_TOL, "error",
            f"max tau' = {dotmax:.6g} vs d = {dly.d}")

    return ValidationReport(tuple(checks))
