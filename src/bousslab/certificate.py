"""Gain admissibility, decay constants, and the optimal-rate computation.

The 2x2 dissipation matrix Phi controls dE/dt; adding the Lyapunov
perturbations gives Psi, whose negative definiteness gates the choice of
(mu1, mu2).  The certified rate is the minimum of the two bracket terms; the
optimal mu1 is the unique crossing of the increasing bound f and the
decreasing bound g on their common interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CertificationError, ConfigurationError,
                     InadmissibleGainsError, InconsistentParametersError)
from .params import DelaySpec, SystemParams


def phi_matrix(p: SystemParams, dly: DelaySpec) -> np.ndarray:
    """Phi = [[-2 a1 alpha + |beta|, -a1 beta], [-a1 beta, |beta| (d-1)]]."""
    b = abs(p.beta)
    return np.array([[-2.0 * p.a1 * p.alpha + b, -p.a1 * p.beta],
                     [-p.a1 * p.beta, b * (dly.d - 1.0)]])


def psi_matrix(p: SystemParams, dly: DelaySpec, mu1: float, mu2: float) -> np.ndarray:
    """Psi = Phi + (a1 L mu1 / 2) [[alpha^2+1, alpha beta], [alpha beta, beta^2]]
             + (|beta| mu2 / 2) [[1, 0], [0, 0]]."""
    gains = np.array([[p.alpha ** 2 + 1.0, p.alpha * p.beta],
                      [p.alpha * p.beta, p.beta ** 2]])
    extra = np.array([[abs(p.beta) * mu2 / 2.0, 0.0], [0.0, 0.0]])
    return phi_matrix(p, dly) + 0.5 * p.a1 * p.L * mu1 * gains + extra


def _negative_definite(M: np.ndarray, degenerate_beta_zero: bool) -> bool:
    """2x2 test: M11 < 0 and det M > 0; with beta = 0 the delay channel is
    degenerate and only the first diagonal entry is checked."""
    if degenerate_beta_zero:
        return M[0, 0] < 0.0
    return M[0, 0] < 0.0 and float(np.linalg.det(M)) > 0.0


def gain_threshold(p: SystemParams, dly: DelaySpec) -> float:
    """Admissibility threshold (|beta|/(2 a1)) (a1^2 + 1 - d)/(1 - d)."""
    if dly.d >= 1.0:
        raise ConfigurationError(f"slope bound d must be < 1, got {dly.d}")
    return (abs(p.beta) / (2.0 * p.a1)) * ((p.a1 ** 2 + 1.0 - dly.d) / (1.0 - dly.d))


def check_gains(p: SystemParams, dly: DelaySpec) -> tuple[bool, np.ndarray, float]:
    """(admissible, Phi, threshold).

    For beta != 0 admissibility (alpha strictly above the threshold) is
    equivalent to Phi negative definite; for beta = 0 it degenerates to
    alpha > 0 with Phi only negative semidefinite.
    """
    Phi = phi_matrix(p, dly)
    thr = gain_threshold(p, dly)
    if p.beta == 0.0:
        return p.alpha > 0.0, Phi, thr
    admissible = p.alpha > thr and _negative_definite(Phi, False)
    return admissible, Phi, thr


def _require_length_ok(p: SystemParams) -> None:
    if not p.length_ok:
        raise CertificationError(
            f"L = {p.L} outside (0, {p.length_bound:.6g}); certification refused")


def lambda_brackets(p: SystemParams, dly: DelaySpec, mu1: float, mu2: float
                    ) -> tuple[float, float]:
    """The two bracket terms of the decay-rate bound.

    first  = mu1 pi^2 (5 a1 pi^2 - 3 a L^2) / (L^4 (1 + mu1 L))
    second = mu2 (1 - d) / (M (1 + mu2))
    """
    first = f_of_mu1(p, mu1)
    second = mu2 * (1.0 - dly.d) / (dly.M * (1.0 + mu2))
    return first, second


def zeta_overshoot(p: SystemParams, mu1: float, mu2: float) -> float:
    """zeta = (1 + max(mu1 L, mu2)) / (1 - max(mu1 L, mu2))."""
    mx = max(mu1 * p.L, mu2)
    if mx >= 1.0:
        raise ConfigurationError(f"max(mu1 L, mu2) = {mx} must be < 1")
    return (1.0 + mx) / (1.0 - mx)


def decay_constants(p: SystemParams, dly: DelaySpec, mu1: float, mu2: float
                    ) -> tuple[float, float, dict]:
    """(lambda, zeta, info) for the supplied (mu1, mu2).

    Psi negative definiteness is a hard gate: infeasible (mu1, mu2) are
    shrunk by halving and the shrink is reported in info["shrunk_to"].
    """
    _require_length_ok(p)
    if not (0.0 <= mu1 < 1.0 / p.L) or not (0.0 <= mu2 < 1.0):
        raise ConfigurationError(
            f"need mu1 in [0, 1/L) and mu2 in [0, 1), got ({mu1}, {mu2})")
    info: dict = {}
    if mu1 > 0.0 or mu2 > 0.0:
        m1, m2 = mu1, mu2
        for _ in range(200):
            if _negative_definite(psi_matrix(p, dly, m1, m2), p.beta == 0.0):
                break
            m1, m2 = 0.5 * m1, 0.5 * m2
        else:
            raise InadmissibleGainsError(
                "Psi cannot be made negative definite by shrinking (mu1, mu2); "
                "gains are too close to the admissibility boundary")
        if (m1, m2) != (mu1, mu2):
            info["shrunk_to"] = (m1, m2)
            mu1, mu2 = m1, m2
    first, second = lambda_brackets(p, dly, mu1, mu2)
    info["bracket_first"] = first
    info["bracket_second"] = second
    info["mu1"] = mu1
    info["mu2"] = mu2
    # proof-variant denominator L^4 (1 + mu1) recorded alongside (see ledger)
    info["bracket_first_proof_variant"] = (
        mu1 * math.pi ** 2 * (5.0 * p.a1 * math.pi ** 2 - 3.0 * p.a * p.L ** 2)
        / (p.L ** 4 * (1.0 + mu1)))
    lam = min(first, second)
    zeta = zeta_overshoot(p, mu1, mu2)
    return lam, zeta, info


def mu1_interval_right(p: SystemParams, dly: DelaySpec) -> float:
    """Right endpoint of the optimal-mu1 interval."""
    num = (2.0 * p.a1 * p.alpha - abs(p.beta)) * (1.0 - dly.d) - p.a1 ** 2 * abs(p.beta)
    den = p.L * (1.0 - dly.d) * (p.a1 ** 2 + p.alpha ** 2)
    return num / den


def f_of_mu1(p: SystemParams, mu1: float) -> float:
    """Increasing rate bound f(mu1) = mu1 pi^2 (5 a1 pi^2 - 3 a L^2)/(L^4 (1+mu1 L))."""
    if mu1 < 0:
        raise ConfigurationError(f"mu1 must be >= 0, got {mu1}")
    return (mu1 * math.pi ** 2 * (5.0 * p.a1 * math.pi ** 2 - 3.0 * p.a * p.L ** 2)
            / (p.L ** 4 * (1.0 + mu1 * p.L)))


def g_of_mu1(p: SystemParams, dly: DelaySpec, mu1: float) -> float:
    """Decreasing rate bound from the delay channel; domain is the closed
    interval [0, right endpoint]."""
    right = mu1_interval_right(p, dly)
    if mu1 < -1e-15 or mu1 > right * (1.0 + 1e-12) + 1e-15:
        raise ConfigurationError(
            f"mu1 = {mu1} outside the interval [0, {right:.6g}]")
    one_md = 1.0 - dly.d
    b = abs(p.beta)
    slope = p.L * one_md * (p.a1 ** 2 + p.alpha ** 2)
    num = (2.0 * p.a1 * p.alpha - b) * one_md - p.a1 ** 2 * b - slope * mu1
    den = dly.M * (2.0 * p.a1 * p.alpha * one_md - p.a1 ** 2 * b - slope * mu1)
    if den <= 0.0:
        raise InadmissibleGainsError(
            f"g denominator nonpositive at mu1 = {mu1}; gains inadmissible")
    return one_md * num / den


def optimal_mu1(p: SystemParams, dly: DelaySpec, tol: float = 1e-12
                ) -> tuple[float, float]:
    """Bisection root of F = f - g on [0, right endpoint].

    F(0) < 0 and F(right) > 0 with F strictly increasing, so the root is
    unique; returns (mu1_star, lambda_star = f(mu1_star)).
    """
    _require_length_ok(p)
    admissible, _, thr = check_gains(p, dly)
    if not admissible:
        raise InadmissibleGainsError(
            f"alpha = {p.alpha} is not above the threshold {thr:.6g}")
    right = mu1_interval_right(p, dly)
    if right <= 0.0:
        raise InconsistentParametersError(
            f"optimal-mu1 interval is empty (right endpoint {right:.6g})")

    def F(m):
        return f_of_mu1(p, m) - g_of_mu1(p, dly, m)

    lo, hi = 0.0, right
    F_lo, F_hi = F(lo), F(hi * (1.0 - 1e-14))
    if not (F_lo < 0.0 < F_hi):
        raise InconsistentParametersError(
            f"bracket sign condition violated: F(0) = {F_lo:.6g}, "
            f"F({right:.6g}) = {F_hi:.6g}")
    while True:
        mid = 0.5 * (lo + hi)
        if F(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        m = 0.5 * (lo + hi)
        if abs(f_of_mu1(p, m) - g_of_mu1(p, dly, m)) <= tol or hi - lo < 1e-16 * right:
            return m, f_of_mu1(p, m)


def choose_mu2(p: SystemParams, dly: DelaySpec, mu1: float,
               grid_lo: float = 1e-4, grid_hi: float = 0.99,
               grid_num: int = 128) -> float:
    """Largest mu2 on a geometric grid in (0, 1) keeping Psi negative
    definite (maximizes the second rate bracket under the constraints)."""
    admissible, _, thr = check_gains(p, dly)
    if not admissible:
        raise InadmissibleGainsError(
            f"alpha = {p.alpha} is not above the threshold {thr:.6g}")
    if mu1 * p.L >= 1.0:
        raise ConfigurationError(f"mu1 L = {mu1 * p.L} must be < 1")
    candidates = np.geomspace(grid_lo, grid_hi, grid_num)
    for mu2 in candidates[::-1]:
        if _negative_definite(psi_matrix(p, dly, mu1, float(mu2)), p.beta == 0.0):
            return float(mu2)
    raise InadmissibleGainsError(
        "no feasible mu2 on the grid keeps Psi negative definite")


@dataclass(frozen=True)
class StabilityCertificate:
    admissible: bool
    threshold: float
    phi: np.ndarray
    psi: np.ndarray
    mu1: float
    mu2: float
    mu1_interval: tuple[float, float]
    mu1_star: float
    lam: float              # certified decay rate (min of the two brackets)
    lam_star: float         # f/g crossing value
    zeta: float
    bracket_first: float
    bracket_second: float
    bracket_first_proof_variant: float
    L_condition_ok: bool

    def document(self) -> str:
        lines = [
            "stability certificate",
            f"admissible = {self.admissible}",
            f"threshold = {self.threshold!r}",
            f"L_condition_ok = {self.L_condition_ok}",
            f"phi = {self.phi.tolist()!r}",
            f"psi = {self.psi.tolist()!r}",
            f"mu1 = {self.mu1!r}",
            f"mu2 = {self.mu2!r}",
            f"mu1_interval = {list(self.mu1_interval)!r}",
            f"mu1_star = {self.mu1_star!r}",
            f"lambda = {self.lam!r}",
            f"lambda_star = {self.lam_star!r}",
            f"zeta = {self.zeta!r}",
            f"bracket_first = {self.bracket_first!r}",
            f"bracket_second = {self.bracket_second!r}",
            f"bracket_first_proof_variant = {self.bracket_first_proof_variant!r}",
        ]
        return "\n".join(lines)


def build_certificate(p: SystemParams, dly: DelaySpec,
                      tol: float = 1e-12) -> StabilityCertificate:
    """Full certification chain: gains -> optimal mu1 -> mu2 -> (lambda, zeta)."""
    admissible, Phi, thr = check_gains(p, dly)
    if not admissible:
        raise InadmissibleGainsError(
            f"gains (alpha={p.alpha}, beta={p.beta}) below threshold {thr:.6g}")
    _require_length_ok(p)
    mu1_star, lam_star = optimal_mu1(p, dly, tol=tol)
    # the f/g crossing may sit outside the Psi-negative-definite region;
    # certify at the nearest feasible halved mu1 (see decay_constants)
    mu1 = mu1_star
    mu2 = None
    for _ in range(200):
        try:
            mu2 = choose_mu2(p, dly, mu1)
            break
        except InadmissibleGainsError:
            mu1 *= 0.5
    if mu2 is None:
        raise InadmissibleGainsError(
            "no feasible (mu1, mu2) pair keeps Psi negative definite")
    lam, zeta, info = decay_constants(p, dly, mu1, mu2)
    mu1, mu2 = info["mu1"], info["mu2"]
    return StabilityCertificate(
        admissible=True,
        threshold=thr,
        phi=Phi,
        psi=psi_matrix(p, dly, mu1, mu2),
        mu1=mu1,
        mu2=mu2,
        mu1_interval=(0.0, mu1_interval_right(p, dly)),
        mu1_star=mu1_star,
        lam=lam,
        lam_star=lam_star,
        zeta=zeta,
        bracket_first=info["bracket_first"],
        bracket_second=info["bracket_second"],
        bracket_first_proof_variant=info["bracket_first_proof_variant"],
        L_condition_ok=p.length_ok,
    )
