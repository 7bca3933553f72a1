"""Run reports, decay fitting, and the emitted table/summary formats."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

CSV_COLUMNS = ("t", "E", "V", "V1", "V2", "trace_now", "trace_delayed")
# fit_decay fits the final half of the run; bound_check allows 2% over the bound
_FIT_WINDOW = 0.5
_BOUND_SLACK = 0.02


@dataclass
class RunReport:
    """Per-step monitor series for one simulation, and its `termination`:
    completed, unstable, numerical_error or nonlinear_divergence."""

    t: np.ndarray
    E: np.ndarray
    V: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    trace_now: np.ndarray
    trace_delayed: np.ndarray
    dissipation_rhs: np.ndarray
    termination: str = "completed"
    config: dict = field(default_factory=dict)
    fields_eta: np.ndarray | None = None
    fields_omega: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.t.size

    def to_csv(self) -> str:
        """The CSV_COLUMNS header, then one line of "%.17g" values per row."""
        line = ",".join(["%.17g"] * len(CSV_COLUMNS))
        rows = np.column_stack([getattr(self, c) for c in CSV_COLUMNS]).tolist()
        return "\n".join([",".join(CSV_COLUMNS)] + [line % tuple(r) for r in rows]) + "\n"


def _series(t: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and E as float arrays; ConfigurationError unless their shapes match
    and they hold a sample."""
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    if t.shape != E.shape:
        raise ConfigurationError(
            f"t and E differ in length: {t.size} times, {E.size} energies")
    if E.size == 0:
        raise ConfigurationError("t and E hold no samples")
    return t, E


def fit_window(t: np.ndarray) -> np.ndarray:
    """Which of the times t (increasing) `fit_decay` fits: the final half."""
    return t >= t[-1] - _FIT_WINDOW * (t[-1] - t[0])


def fit_decay(t: np.ndarray, E: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log E over the final half of the run.

    Returns (lambda_obs, r2).  Nonpositive energies truncate the fit window
    with a warning (numerical underflow guard).
    """
    t, E = _series(t, E)
    sel = fit_window(t)
    ts, Es = t[sel], E[sel]
    bad = Es <= 0.0
    if np.any(bad):
        warnings.warn("fit window truncated: energy hit zero or below")
        first_bad = int(np.argmax(bad))
        ts, Es = ts[:first_bad], Es[:first_bad]
    if ts.size < 2:
        raise ConfigurationError("not enough positive samples in the fit window")
    logE = np.log(Es)
    slope, intercept = np.polyfit(ts, logE, 1)
    pred = slope * ts + intercept
    ss_res = float(np.sum((logE - pred) ** 2))
    ss_tot = float(np.sum((logE - logE.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def bound_check(t: np.ndarray, E: np.ndarray, lam: float, zeta: float
                ) -> tuple[bool, float]:
    """Verify E(t) <= 1.02 zeta E(0) exp(-lam t) at every sample.

    Returns (ok, max ratio of E to zeta E(0) exp(-lam t)).
    """
    t, E = _series(t, E)
    bound = zeta * E[0] * np.exp(-lam * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, E / bound,
                          np.where(E <= 0, 0.0, np.inf))
    ratio = float(np.max(ratios))
    return ratio <= 1.0 + _BOUND_SLACK, ratio


def summary_text(report: RunReport, extra: dict | None = None) -> str:
    """Structured key = value summary block."""
    items = {
        "termination": report.termination,
        "rows": report.n_rows,
        "E0": report.E[0] if report.n_rows else float("nan"),
        "E_final": report.E[-1] if report.n_rows else float("nan"),
    }
    items.update(report.config)
    if extra:
        items.update(extra)
    lines = [f"{k} = {items[k]}" for k in items]
    return "\n".join(lines) + "\n"
