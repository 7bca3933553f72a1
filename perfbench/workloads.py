"""The benchmark workloads: one round each, with its correctness checks.

Each workload drives bousslab through the CLI or the library API, then checks
the outputs against computations of its own (closed forms re-derived here,
least-squares fits, convergence orders) or against properties the method must
have.  A workload returns an `Outcome`: the operations it attempted, those
that failed to produce an output, and every check that did not hold.

Import this module only after bousslab is imported: it is timed as part of
the workload, not of the set-up.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import bousslab as bl
import bousslab.cli

# the package's `energy` attribute is the energy() function, not the module
energy = importlib.import_module("bousslab.energy")

REFERENCE_CONFIG = os.path.join("configs", "reference.ini")

# acceptance parameters (tests/conftest.py ACC, ACC_DELAY)
ACC = dict(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4)
ACC_DELAY = dict(tau0=0.5, M=2.0, d=0.0)


@dataclass
class Outcome:
    """`failures` name the operations that produced no output; `problems` the
    checks that did not hold on the outputs of the others."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def threshold(a1: float, beta: float, d: float) -> float:
    """(|beta| / 2 a1) (a1^2 + 1 - d) / (1 - d)."""
    return abs(beta) / (2.0 * a1) * (a1 ** 2 + 1.0 - d) / (1.0 - d)


def phi(a1: float, alpha: float, beta: float, d: float) -> np.ndarray:
    b = abs(beta)
    return np.array([[-2.0 * a1 * alpha + b, -a1 * beta], [-a1 * beta, b * (d - 1.0)]])


def decay_fit(t: np.ndarray, E: np.ndarray, window: float = 0.5) -> float:
    """Decay rate of E: minus the least-squares slope of log E over the last
    `window` of the run."""
    sel = t >= t[-1] - window * (t[-1] - t[0])
    return -float(np.polyfit(t[sel], np.log(E[sel]), 1)[0])


def check_energy(out: Outcome, tag: str, t, E, lam: float, zeta: float) -> None:
    """Monotone energy and the certified bound E <= zeta E(0) e^{-lam t}."""
    rise = float(np.max(np.diff(E)))
    out.expect(rise <= 1e-10 * E[0], f"{tag}: energy rises by {rise:.3e} (E0 = {E[0]:.3e})")
    ratio = float(np.max(E / (zeta * E[0] * np.exp(-lam * t))))
    out.expect(ratio <= 1.0, f"{tag}: E exceeds the certified bound (max ratio {ratio:.6f})")


def _quiet(argv) -> int:
    """bousslab.cli.main with its report printing kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return bousslab.cli.main(argv)


def _key_values(path: str) -> dict[str, str]:
    items = {}
    with open(path) as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                items[key] = value
    return items


def reference(work: str, tiny: bool) -> Outcome:
    """`bousslab simulate --config configs/reference.ini`."""
    out = Outcome(attempted=1)
    target = os.path.join(work, "reference")
    argv = ["simulate", "--config", REFERENCE_CONFIG, "--out", target]
    if tiny:
        argv += ["--n", "50", "--horizon", "0.5"]
    code = _quiet(argv)
    if code != 0:
        out.fail(f"simulate exited with code {code}")
        return out

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(REFERENCE_CONFIG)
    a1, alpha, beta = (cp.getfloat("system", k) for k in ("a1", "alpha", "beta"))
    d = cp.getfloat("delay", "d")
    T = 0.5 if tiny else cp.getfloat("run", "T")
    dt = cp.getfloat("run", "dt")

    cert = _key_values(os.path.join(target, "certificate.txt"))
    thr = threshold(a1, beta, d)
    out.expect(abs(float(cert["threshold"]) - thr) <= 1e-12 * thr,
               f"threshold {cert['threshold']} != closed form {thr!r}")
    Phi = phi(a1, alpha, beta, d)
    out.expect(np.max(np.abs(np.array(json.loads(cert["phi"])) - Phi)) <= 1e-15,
               f"Phi {cert['phi']} != closed form {Phi.tolist()}")
    out.expect(np.all(np.linalg.eigvalsh(Phi) < 0), "Phi is not negative definite")

    with open(os.path.join(target, "timeseries.csv")) as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    E = np.array([float(r["E"]) for r in rows])
    steps = round(T / dt)
    out.expect(len(rows) == steps + 1, f"timeseries.csv has {len(rows)} rows, want {steps + 1}")
    if len(rows) == steps + 1:
        drift = float(np.max(np.abs(t - dt * np.arange(steps + 1))))
        out.expect(drift <= 1e-9, f"timeseries.csv t drifts from k*dt by {drift:.3e}")
    lam, zeta = float(cert["lambda"]), float(cert["zeta"])
    check_energy(out, "reference", t, E, lam, zeta)
    lam_obs = decay_fit(t, E)
    out.expect(lam_obs >= 0.98 * lam, f"lambda_obs {lam_obs:.6g} < 0.98 lambda_cert {lam:.6g}")
    return out


def refinement(work: str, tiny: bool) -> Outcome:
    """Identity-grade ladder: slow-mode runs at three dyadic levels with
    stored fields, then the dissipation and Kato residuals."""
    levels = ((50, 4e-3), (101, 2e-3), (203, 1e-3)) if tiny else (
        (100, 2e-3), (201, 1e-3), (403, 5e-4))
    T, rho_res = 1.5, 2048
    out = Outcome(attempted=len(levels))
    p = bl.SystemParams(**ACC)
    dly = bl.DelaySpec(**ACC_DELAY)
    cert = bl.build_certificate(p, dly)
    lams, diss, kato, hs = [], [], [], []
    for n, dt in levels:
        tag = f"n={n}"
        try:
            ops = bl.build_operators(p, bl.Grid(n=n, L=p.L))
            state, lam = bl.slow_mode_state(ops, p, dly, dt=dt)
            cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt))
            rep = bl.run(state, T, cfg, p, dly, ops, rho_res=rho_res,
                         mu1=cert.mu1, mu2=cert.mu2, store_fields=True)
            if rep.termination != "completed":
                out.fail(f"{tag}: run ended with {rep.termination}")
                continue
            diss.append(energy.dissipation_residual(rep, p))
            kato.append(abs(energy.kato_identity_residual(rep, p)[0]))
        except bl.BousslabError as exc:
            out.fail(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        lams.append(lam)
        hs.append(p.L / (n + 1))
        check_energy(out, tag, rep.t, rep.E, cert.lam, cert.zeta)
        lam_obs = decay_fit(rep.t, rep.E)
        out.expect(abs(lam_obs + 2.0 * lam.real) <= 0.02 * abs(2.0 * lam.real),
                   f"{tag}: lambda_obs {lam_obs:.6g} vs -2 Re lambda {-2 * lam.real:.6g}")
    if len(lams) == len(levels):
        for k in range(len(levels) - 1):
            order = math.log(kato[k] / kato[k + 1]) / math.log(hs[k] / hs[k + 1])
            out.expect(order >= 1.9, f"Kato residual order {order:.3f} < 1.9 ({kato})")
            out.expect(diss[k] >= 3.0 * diss[k + 1],
                       f"dissipation residual falls by {diss[k] / diss[k + 1]:.2f} < 3 ({diss})")
        lam_order = math.log2(abs(lams[1] - lams[0]) / abs(lams[2] - lams[1]))
        out.expect(lam_order >= 1.9, f"slow-mode lambda converges at order {lam_order:.3f} < 1.9")
    return out


def _nonlinear_initial(grid, L: float, amplitude: float, shape: dict):
    x = grid.nodes
    s = x / L
    c0, c1 = shape["eta"]
    (c2,) = shape["omega"]
    eta0 = amplitude * x ** 3 * (L - x) ** 2 / L ** 5 * (1.0 + c0 * s + c1 * s ** 2)
    omega0 = amplitude * x ** 2 * (L - x) ** 2 / L ** 4 * (1.0 + c2 * s)
    return eta0, omega0


def nonlinear(work: str, tiny: bool) -> Outcome:
    """Small-data nonlinear self-convergence ladder under a sinusoidal delay."""
    with open(os.path.join(work, "nonlinear.json")) as fh:
        setup = json.load(fh)
    p = bl.SystemParams(**setup["system"])
    dly = bl.DelaySpec(**setup["delay"])
    T = setup["T"]
    out = Outcome(attempted=len(setup["levels"]))
    vrep = bl.validate_params(p, dly, horizon=T)
    out.expect(vrep.ok, f"delay law fails validation: {vrep}")
    finals = []
    for n, dt in setup["levels"]:
        tag = f"n={n}"
        grid = bl.Grid(n=n, L=p.L)
        ops = bl.build_operators(p, grid)
        eta0, omega0 = _nonlinear_initial(grid, p.L, setup["amplitude"], setup["shape"])
        state = bl.initial_state(p, dly, grid, eta0, omega0)
        cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt), nonlinear=True)
        try:
            rep = bl.run(state, T, cfg, p, dly, ops, rho_res=setup["rho_res"],
                         store_fields=True)
        except bl.BousslabError as exc:
            out.fail(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        if rep.termination != "completed":
            out.fail(f"{tag}: run ended with {rep.termination}")
            continue
        out.expect(np.all(np.isfinite(rep.E)) and rep.E.max() <= 2.0 * rep.E[0],
                   f"{tag}: max E / E0 = {rep.E.max() / rep.E[0]:.4g} > 2")
        finals.append(rep.fields_eta[-1])
    if len(finals) == 3:
        # level k+1 nodes 1::2 coincide with level k nodes (n_{k+1} = 2 n_k + 1)
        u0, u1, u2 = finals[0], finals[1][1::2], finals[2][1::2][1::2]
        d01 = np.sqrt(np.mean((u0 - u1) ** 2))
        d12 = np.sqrt(np.mean((u1 - u2) ** 2))
        order = math.log2(d01 / d12)
        out.expect(order >= 1.5, f"self-convergence order {order:.3f} < 1.5")
    return out


WORKLOADS = {"reference": reference, "refinement": refinement, "nonlinear": nonlinear}
