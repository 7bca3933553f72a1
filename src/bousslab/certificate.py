"""Gain admissibility, decay constants, and the optimal-rate computation.

The 2x2 dissipation matrix Phi controls dE/dt; adding the Lyapunov
perturbations gives Psi, whose negative definiteness gates the choice of
(mu1, mu2).  The certified rate is the minimum of the two bracket terms; the
optimal mu1 maximizes min(f, g) of the increasing bound f and the decreasing
bound g on [0, N0/s].  Every step of the chain is a closed form: a quadratic
root for mu1*, a quadratic root for the largest mu1 keeping Psi negative
definite, and a linear bound for mu2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CertificationError, ConfigurationError, InadmissibleGainsError
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
    equivalent to Phi negative definite; for beta = 0 the threshold is 0 and
    Phi11 = -2 a1 alpha, so it degenerates to alpha > 0 with Phi only
    negative semidefinite.
    """
    Phi = phi_matrix(p, dly)
    thr = gain_threshold(p, dly)
    admissible = p.alpha > thr and _negative_definite(Phi, p.beta == 0.0)
    return admissible, Phi, thr


def _require_admissible(p: SystemParams, dly: DelaySpec) -> None:
    admissible, _, thr = check_gains(p, dly)
    if not admissible:
        raise InadmissibleGainsError(
            f"alpha = {p.alpha} is not above the threshold {thr!r}")


def _require_length_ok(p: SystemParams) -> None:
    if not p.length_ok:
        raise CertificationError(
            f"L = {p.L} outside (0, {p.length_bound:.6g}); certification refused")


def zeta_overshoot(p: SystemParams, mu1: float, mu2: float) -> float:
    """zeta = (1 + max(mu1 L, mu2)) / (1 - max(mu1 L, mu2))."""
    mx = max(mu1 * p.L, mu2)
    if mx >= 1.0:
        raise ConfigurationError(f"max(mu1 L, mu2) = {mx} must be < 1")
    return (1.0 + mx) / (1.0 - mx)


def check_multipliers(p: SystemParams, mu1: float, mu2: float) -> None:
    """Raise ConfigurationError unless 0 <= mu1 < 1/L and 0 <= mu2 < 1, the
    range in which V = E - mu1 V1 + mu2 V2 is sandwiched by E."""
    if not (0.0 <= mu1 < 1.0 / p.L) or not (0.0 <= mu2 < 1.0):
        raise ConfigurationError(
            f"need mu1 in [0, 1/L) and mu2 in [0, 1), got ({mu1}, {mu2})")


def decay_constants(p: SystemParams, dly: DelaySpec, mu1: float, mu2: float
                    ) -> tuple[float, float, dict]:
    """(lambda, zeta, info) for the supplied (mu1, mu2).

    lambda is the smaller of the brackets first = f(mu1) and second =
    mu2 (1 - d) / (M (1 + mu2)).  Psi negative definiteness is a hard gate: a
    nonzero (mu1, mu2) that leaves Psi not negative definite raises
    InadmissibleGainsError.
    """
    _require_length_ok(p)
    check_multipliers(p, mu1, mu2)
    if (mu1 > 0.0 or mu2 > 0.0) and not _negative_definite(
            psi_matrix(p, dly, mu1, mu2), p.beta == 0.0):
        raise InadmissibleGainsError(
            f"Psi is not negative definite at (mu1, mu2) = ({mu1!r}, {mu2!r})")
    first = f_of_mu1(p, mu1)
    second = mu2 * (1.0 - dly.d) / (dly.M * (1.0 + mu2))
    info = {"bracket_first": first, "bracket_second": second}
    return min(first, second), zeta_overshoot(p, mu1, mu2), info


def _g_terms(p: SystemParams, dly: DelaySpec) -> tuple[float, float, float]:
    """(N0, D0, s) with g(mu1) = (1-d) (N0 - s mu1) / (M (D0 - s mu1))."""
    one_md = 1.0 - dly.d
    b = abs(p.beta)
    N0 = (2.0 * p.a1 * p.alpha - b) * one_md - p.a1 ** 2 * b
    D0 = 2.0 * p.a1 * p.alpha * one_md - p.a1 ** 2 * b
    s = p.L * one_md * (p.a1 ** 2 + p.alpha ** 2)
    return N0, D0, s


def mu1_interval_right(p: SystemParams, dly: DelaySpec) -> float:
    """Right endpoint N0 / s of the optimal-mu1 interval (the zero of g)."""
    N0, _, s = _g_terms(p, dly)
    return N0 / s


def f_of_mu1(p: SystemParams, mu1: float) -> float:
    """Increasing rate bound f(mu1) = mu1 pi^2 (5 a1 pi^2 - 3 a L^2)/(L^4 (1+mu1 L))."""
    if mu1 < 0:
        raise ConfigurationError(f"mu1 must be >= 0, got {mu1}")
    return (mu1 * math.pi ** 2 * (5.0 * p.a1 * math.pi ** 2 - 3.0 * p.a * p.L ** 2)
            / (p.L ** 4 * (1.0 + mu1 * p.L)))


def g_of_mu1(p: SystemParams, dly: DelaySpec, mu1: float) -> float:
    """Decreasing rate bound from the delay channel; domain is the closed
    interval [0, right endpoint]."""
    N0, D0, s = _g_terms(p, dly)
    right = N0 / s
    if mu1 < -1e-15 or mu1 > right * (1.0 + 1e-12) + 1e-15:
        raise ConfigurationError(
            f"mu1 = {mu1} outside the interval [0, {right:.6g}]")
    if p.beta == 0.0 and N0 > 0.0:
        # N0 = D0: g is the constant (1-d)/M, which is also its limit at the
        # right endpoint, where the quotient below is 0/0
        return (1.0 - dly.d) / dly.M
    den = dly.M * (D0 - s * mu1)
    if den <= 0.0:
        raise InadmissibleGainsError(
            f"g denominator nonpositive at mu1 = {mu1}; gains inadmissible")
    return (1.0 - dly.d) * (N0 - s * mu1) / den


def optimal_mu1(p: SystemParams, dly: DelaySpec) -> tuple[float, float]:
    """The mu1 in [0, N0/s] that maximizes min(f, g), in closed form.

    With c = pi^2 (5 a1 pi^2 - 3 a L^2) / L^4, clearing the positive
    denominators of f = g gives A mu1^2 + B mu1 + C = 0 with A = s ((1-d) L
    - c M), B = c M D0 + (1-d) (s - L N0) > 0 and C = -(1-d) N0 < 0, whose
    root -2 C / (B + sqrt(B^2 - 4 A C)) is free of cancellation and valid for
    A = 0.  It is the f/g crossing, or N0/s when f stays below g: only at
    beta = 0, where g = (1-d)/M and N0 = D0 makes N0/s a root.
    Returns (mu1_star, lambda_star = f(mu1_star)).
    """
    _require_admissible(p, dly)
    _require_length_ok(p)
    N0, D0, s = _g_terms(p, dly)
    if N0 / s <= 0.0:
        # alpha a few ulps above the threshold: N0 rounds apart from det Phi
        raise InadmissibleGainsError(
            f"optimal-mu1 interval is empty (right endpoint {N0 / s:.6g})")
    one_md = 1.0 - dly.d
    cM = (math.pi ** 2 * (5.0 * p.a1 * math.pi ** 2 - 3.0 * p.a * p.L ** 2)
          / p.L ** 4 * dly.M)
    A = s * (one_md * p.L - cM)
    B = cM * D0 + one_md * (s - p.L * N0)
    C = -one_md * N0
    mu1 = -2.0 * C / (B + math.sqrt(max(B * B - 4.0 * A * C, 0.0)))
    return mu1, f_of_mu1(p, mu1)


def _mu1_feasible_bound(p: SystemParams, dly: DelaySpec) -> float:
    """m_max: Psi(mu1, 0) is negative definite exactly for mu1 in [0, m_max).

    With t = a1 L mu1 / 2, det Psi(mu1, 0) = beta^2 t^2 + B t + det Phi is
    positive at t = 0 and not positive where Psi22 = 0, so both roots are
    positive and the smaller one ends the interval (Psi11 cannot reach 0
    while det Psi > 0).  For beta = 0 the end is the root of Psi11.
    """
    Phi = phi_matrix(p, dly)
    if p.beta == 0.0:
        t = 2.0 * p.a1 * p.alpha / (p.alpha ** 2 + 1.0)
    else:
        det = Phi[0, 0] * Phi[1, 1] - Phi[0, 1] ** 2
        B = (Phi[0, 0] * p.beta ** 2 + Phi[1, 1] * (p.alpha ** 2 + 1.0)
             - 2.0 * Phi[0, 1] * p.alpha * p.beta)
        t = 2.0 * det / (-B + math.sqrt(max(B * B - 4.0 * p.beta ** 2 * det, 0.0)))
    return float(2.0 * t / (p.a1 * p.L))


def choose_mu2(p: SystemParams, dly: DelaySpec, mu1: float) -> float:
    """Largest mu2 below 0.99 keeping Psi negative definite (maximizes the
    second rate bracket under the constraints).

    mu2 enters Psi only as |beta| mu2 / 2 in entry (1,1), so with Psi22 < 0
    the feasible mu2 are [0, s2), s2 = (2/|beta|) (Psi12^2/Psi22 - Psi11) at
    mu2 = 0 (any mu2 when beta = 0 and Psi11 < 0); the factor 1 - 1e-6 keeps
    Psi strictly negative definite.
    """
    _require_admissible(p, dly)
    if mu1 * p.L >= 1.0:
        raise ConfigurationError(f"mu1 L = {mu1 * p.L} must be < 1")
    Psi = psi_matrix(p, dly, mu1, 0.0)
    if p.beta == 0.0:
        s2 = math.inf if Psi[0, 0] < 0.0 else 0.0
    else:
        s2 = (2.0 / abs(p.beta) * (Psi[0, 1] ** 2 / Psi[1, 1] - Psi[0, 0])
              if Psi[1, 1] < 0.0 else 0.0)
    if s2 <= 0.0:
        raise InadmissibleGainsError(
            f"no mu2 >= 0 keeps Psi negative definite at mu1 = {mu1!r}")
    return float(min(0.99, (1.0 - 1e-6) * s2))


@dataclass(frozen=True)
class StabilityCertificate:
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

    def document(self) -> str:
        """The `stability certificate` header, then `name = repr(value)` per
        field in field order, arrays and tuples as lists, lam and lam_star
        named lambda and lambda_star."""
        renamed = {"lam": "lambda", "lam_star": "lambda_star"}
        lines = ["stability certificate"]
        for name, value in asdict(self).items():
            if isinstance(value, (np.ndarray, tuple)):
                value = np.asarray(value).tolist()
            lines.append(f"{renamed.get(name, name)} = {value!r}")
        return "\n".join(lines)


def build_certificate(p: SystemParams, dly: DelaySpec) -> StabilityCertificate:
    """Full certification chain: gains -> optimal mu1 -> mu2 -> (lambda, zeta).

    mu1_star may sit outside [0, min(m_max, 1/L)), where Psi(mu1, 0) is
    negative definite and E sandwiches V; the certificate then uses the
    largest mu1_star 2^-k inside it, with k read off the binary exponents.
    """
    mu1_star, lam_star = optimal_mu1(p, dly)
    m_s, e_s = math.frexp(mu1_star)
    m_m, e_m = math.frexp(min(_mu1_feasible_bound(p, dly), 1.0 / p.L))
    mu1 = math.ldexp(mu1_star, -max(0, e_s - e_m + (m_s >= m_m)))
    mu2 = choose_mu2(p, dly, mu1)
    lam, zeta, info = decay_constants(p, dly, mu1, mu2)
    return StabilityCertificate(
        threshold=gain_threshold(p, dly),
        phi=phi_matrix(p, dly),
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
    )
