import math
from dataclasses import replace

import numpy as np
import pytest

import bousslab as bl
from bousslab.certificate import (_negative_definite, gain_threshold, mu1_interval_right,
                                  zeta_overshoot)
from bousslab.errors import CertificationError, ConfigurationError, InadmissibleGainsError

P_EX = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
D_EX = bl.DelaySpec(tau0=0.5, M=1.0, d=0.0)


def test_gain_example():
    ok, Phi, thr = bl.check_gains(P_EX, D_EX)
    assert ok
    assert thr == 1.0
    assert np.allclose(Phi, [[-3.0, -1.0], [-1.0, -1.0]])
    assert abs(np.linalg.det(Phi) - 2.0) < 1e-14
    assert np.all(np.linalg.eigvalsh(Phi) < 0)


def test_gain_equality_case_rejected():
    p = replace(P_EX, alpha=1.0)
    ok, Phi, thr = bl.check_gains(p, D_EX)
    assert not ok
    assert abs(np.linalg.det(Phi)) < 1e-14


def test_beta_zero_degenerate_rule():
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=0.3, beta=0.0)
    ok, Phi, thr = bl.check_gains(p, D_EX)
    assert ok and thr == 0.0
    assert not bl.check_gains(replace(p, alpha=-0.1), D_EX)[0]


def test_negative_definiteness_matches_eigenvalue_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a1 = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        d = float(rng.uniform(0.0, 0.9))
        p = bl.SystemParams(a=1.0, a1=a1, L=1.0,
                            alpha=float(rng.uniform(-1.0, 6.0)), beta=beta)
        dly = bl.DelaySpec(tau0=0.4, M=0.6, d=d)
        ok, Phi, thr = bl.check_gains(p, dly)
        if beta != 0.0:
            eigs = np.linalg.eigvalsh(Phi)
            assert ok == bool(np.all(eigs < 0)), (p, dly, eigs)
            assert ok == (p.alpha > thr)


def test_decay_constants_example():
    # (L, a, a1, mu1, mu2, d, M) = (1, 1, 1, 0.1, 0.5, 0, 1)
    p = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
    dly = bl.DelaySpec(tau0=0.5, M=1.0, d=0.0)
    lam, zeta, info = bl.decay_constants(p, dly, 0.1, 0.5)
    assert abs(lam - 1.0 / 3.0) < 1e-10
    assert abs(zeta - 3.0) < 1e-10
    exact_first = 0.1 * math.pi ** 2 * (5 * math.pi ** 2 - 3) / 1.1
    assert abs(info["bracket_first"] - exact_first) < 1e-10
    assert abs(info["bracket_first"] - 41.584) < 5e-3


def test_decay_constants_mu1_zero():
    lam, zeta, info = bl.decay_constants(P_EX, D_EX, 0.0, 0.5)
    assert lam == 0.0


def test_decay_constants_second_bracket_formula():
    mu2 = 0.8
    lam, _, info = bl.decay_constants(P_EX, D_EX, 0.2, mu2)
    assert abs(info["bracket_second"] - mu2 * 1.0 / (1.0 * (1 + mu2))) < 1e-14


def test_decay_refused_out_of_range_L():
    p = bl.SystemParams(a=1.0, a1=1.0, L=5.0, alpha=2.0, beta=1.0)
    with pytest.raises(CertificationError):
        bl.decay_constants(p, D_EX, 0.1, 0.5)


def test_f_g_interval_examples():
    # a1=1, alpha=2, beta=1, d=0, L=1, M=1
    right = mu1_interval_right(P_EX, D_EX)
    assert abs(right - 0.4) < 1e-14
    assert bl.f_of_mu1(P_EX, 0.0) == 0.0
    assert abs(bl.g_of_mu1(P_EX, D_EX, 0.0) - 2.0 / 3.0) < 1e-14
    assert abs(bl.g_of_mu1(P_EX, D_EX, 0.4)) < 1e-13


def test_g_domain_error():
    with pytest.raises(ConfigurationError):
        bl.g_of_mu1(P_EX, D_EX, 0.5)


def test_f_g_monotonicity_sampling():
    mus = np.linspace(0.0, 0.4, 1000)
    f = np.array([bl.f_of_mu1(P_EX, float(m)) for m in mus])
    g = np.array([bl.g_of_mu1(P_EX, D_EX, float(m)) for m in mus])
    assert np.all(np.diff(f) > 0)
    assert np.all(np.diff(g) < 0)


def test_optimal_mu1_bisection_in_interval():
    mu1s, lam_star = bl.optimal_mu1(P_EX, D_EX)
    assert 0.0 < mu1s < 0.4
    assert abs(bl.f_of_mu1(P_EX, mu1s) - bl.g_of_mu1(P_EX, D_EX, mu1s)) < 1e-11
    assert abs(lam_star - bl.f_of_mu1(P_EX, mu1s)) < 1e-14


def test_optimal_mu1_unique_sign_change_random_draws():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(60):
        a1 = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.05, 1.0)) * float(rng.choice([-1, 1]))
        d = float(rng.uniform(0.0, 0.8))
        thr = (abs(beta) / (2 * a1)) * ((a1 ** 2 + 1 - d) / (1 - d))
        alpha = thr * float(rng.uniform(1.2, 4.0))
        a = float(rng.uniform(0.1, 1.0))
        Lmax = math.pi * math.sqrt(5 * a1 / (3 * a))
        L = 0.7 * Lmax
        p = bl.SystemParams(a=a, a1=a1, L=L, alpha=alpha, beta=beta)
        dly = bl.DelaySpec(tau0=0.3, M=float(rng.uniform(0.3, 2.0)), d=d)
        right = mu1_interval_right(p, dly)
        if right <= 0:
            continue
        mus = np.linspace(0.0, right * (1 - 1e-12), 400)
        F = np.array([bl.f_of_mu1(p, float(m)) - bl.g_of_mu1(p, dly, float(m))
                      for m in mus])
        signs = np.sign(F)
        changes = np.count_nonzero(np.diff(signs[signs != 0]))
        assert changes == 1, (p, dly)
        mu1s, lam_star = bl.optimal_mu1(p, dly)
        assert 0 < mu1s < right
        hits += 1
    assert hits > 30


def test_optimality_sampling(acc_params, acc_delay):
    mu1s, lam_star = bl.optimal_mu1(P_EX, D_EX)
    mus = np.linspace(1e-6, 0.4 * (1 - 1e-9), 1000)
    vals = np.array([min(bl.f_of_mu1(P_EX, float(m)),
                         bl.g_of_mu1(P_EX, D_EX, float(m))) for m in mus])
    assert lam_star >= vals.max() - 1e-9


def test_choose_mu2_cases():
    # beta = 0: the mu2 perturbation of Psi vanishes; grid maximum returned
    p0 = bl.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=0.5, beta=0.0)
    mu2 = bl.choose_mu2(p0, D_EX, 1e-3)
    assert mu2 == pytest.approx(0.99)
    # small mu1: Psi -> Phi negative definite, some mu2 > 0 feasible
    mu2 = bl.choose_mu2(P_EX, D_EX, 1e-3)
    assert mu2 > 0
    eigs = np.linalg.eigvalsh(bl.psi_matrix(P_EX, D_EX, 1e-3, mu2))
    assert np.all(eigs < 0)
    # inadmissible gains -> error
    with pytest.raises(InadmissibleGainsError):
        bl.choose_mu2(replace(P_EX, alpha=0.5), D_EX, 1e-3)


def test_decay_constants_rejects_infeasible_pair():
    # with d = 0.6 the gains stay admissible (threshold 1.75) but Psi22 =
    # -0.4 + mu1/2 turns positive at mu1 = 0.9; under D_EX every (mu1, mu2)
    # in [0, 1)^2 keeps Psi negative definite
    dly = replace(D_EX, d=0.6)
    assert bl.check_gains(P_EX, dly)[0]
    with pytest.raises(InadmissibleGainsError):
        bl.decay_constants(P_EX, dly, 0.9, 0.5)


def test_psi_reduces_to_phi():
    Psi = bl.psi_matrix(P_EX, D_EX, 0.0, 0.0)
    assert np.allclose(Psi, bl.phi_matrix(P_EX, D_EX))


def test_zeta_limits():
    assert zeta_overshoot(P_EX, 0.2, 0.5) == pytest.approx(3.0)
    assert zeta_overshoot(P_EX, 1e-9, 1e-9) == pytest.approx(1.0, abs=1e-8)
    lam, zeta, _ = bl.decay_constants(P_EX, D_EX, 1e-9, 1e-9)
    assert lam < 1e-6 and zeta < 1.0 + 1e-8


def test_lambda_ignores_irrelevant_fields():
    # rate depends on nothing beyond (a, a1, L, d, M, alpha, beta, mu1, mu2)
    base = bl.decay_constants(P_EX, D_EX, 0.05, 0.3)[0]
    fuzz = replace(P_EX, alpha_p=2.2, beta_p=-3.3, rho_nl=0.7)
    dly = replace(D_EX, form="affine", rate=0.0, history=np.ones(9))
    assert bl.decay_constants(fuzz, dly, 0.05, 0.3)[0] == base


def test_certificate_document_fields(acc_params, acc_delay, acc_cert):
    c = acc_cert
    assert c.document().split("\n") == [
        "stability certificate",
        f"threshold = {c.threshold!r}",
        f"phi = {c.phi.tolist()!r}",
        f"psi = {c.psi.tolist()!r}",
        f"mu1 = {c.mu1!r}",
        f"mu2 = {c.mu2!r}",
        f"mu1_interval = {list(c.mu1_interval)!r}",
        f"mu1_star = {c.mu1_star!r}",
        f"lambda = {c.lam!r}",
        f"lambda_star = {c.lam_star!r}",
        f"zeta = {c.zeta!r}",
        f"bracket_first = {c.bracket_first!r}",
        f"bracket_second = {c.bracket_second!r}",
    ]
    assert acc_cert.zeta > 1.0
    assert acc_cert.lam > 0.0
    assert acc_cert.lam <= acc_cert.lam_star + 1e-12


# The parent implementation's numerical searches, kept here as an oracle for
# the closed forms: bisection for mu1*, a 128-point geometric scan for mu2,
# and halving mu1 until the scan finds a feasible mu2.

def _oracle_mu1_star(p, dly, tol):
    right = mu1_interval_right(p, dly)

    def F(m):
        return bl.f_of_mu1(p, m) - bl.g_of_mu1(p, dly, m)

    lo, hi = 0.0, right
    while True:
        mid = 0.5 * (lo + hi)
        if F(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        m = 0.5 * (lo + hi)
        if abs(F(m)) <= tol or hi - lo < 1e-16 * right:
            return m


def _oracle_mu2(p, dly, mu1):
    for mu2 in np.geomspace(1e-4, 0.99, 128)[::-1]:
        if _negative_definite(bl.psi_matrix(p, dly, mu1, float(mu2)),
                              p.beta == 0.0):
            return float(mu2)
    return None


def _oracle_pair(p, dly, mu1):
    for _ in range(200):
        mu2 = _oracle_mu2(p, dly, mu1)
        if mu2 is not None:
            return mu1, mu2
        mu1 *= 0.5
    raise AssertionError("oracle found no feasible pair")


def _admissible_draw(rng, beta_zero=False):
    """Admissible gains with L in (0, Lmax); L near Lmax makes f flat, so
    mu1* lands near the right endpoint and often outside the Psi-feasible
    interval, which is where the halving happens."""
    a1 = float(10 ** rng.uniform(-2.5, 0.3))
    beta = 0.0 if beta_zero else (float(10 ** rng.uniform(-4.0, 0.0))
                                  * float(rng.choice([-1.0, 1.0])))
    d = float(rng.uniform(0.0, 0.9))
    thr = (abs(beta) / (2 * a1)) * ((a1 ** 2 + 1 - d) / (1 - d))
    alpha = (thr * float(rng.uniform(1.02, 4.0)) if not beta_zero
             else float(10 ** rng.uniform(-3.0, 0.5)))
    a = float(rng.uniform(0.05, 1.0))
    Lmax = math.pi * math.sqrt(5 * a1 / (3 * a))
    L = float(1.0 - 10 ** rng.uniform(-3.0, -0.05)) * Lmax
    p = bl.SystemParams(a=a, a1=a1, L=L, alpha=alpha, beta=beta)
    return p, bl.DelaySpec(tau0=0.3, M=float(rng.uniform(0.3, 3.0)), d=d)


def test_closed_form_certificate_matches_search_oracle():
    rng = np.random.default_rng(2024)
    halved = 0
    for _ in range(1000):
        p, dly = _admissible_draw(rng)
        cert = bl.build_certificate(p, dly)
        # the parent's bisection stops at |f - g| <= 1e-12 absolute, which is
        # up to 3e-10 relative here; scaled to g(0) it resolves mu1* fully
        g0 = bl.g_of_mu1(p, dly, 0.0)
        mu1s_o = _oracle_mu1_star(p, dly, 1e-14 * g0)
        assert abs(cert.mu1_star - mu1s_o) <= 1e-10 * mu1s_o, (p, dly)
        F = bl.f_of_mu1(p, cert.mu1_star) - bl.g_of_mu1(p, dly, cert.mu1_star)
        assert abs(F) <= 1e-12 * g0, (p, dly, F / g0)
        # halving starts from the same mu1*, so k and mu1 must agree exactly
        mu1_o, mu2_o = _oracle_pair(p, dly, cert.mu1_star)
        assert cert.mu1 == mu1_o, (p, dly, cert.mu1, mu1_o)
        halved += mu1_o < cert.mu1_star
        assert np.all(np.linalg.eigvalsh(cert.psi) < 0.0), (p, dly, cert.psi)
        lam_o = bl.decay_constants(p, dly, mu1_o, mu2_o)[0]
        assert 0.0 < lam_o <= cert.lam, (p, dly, cert.lam, lam_o)
        assert 1.0 <= cert.zeta
        assert cert.lam <= cert.lam_star + 1e-12
    assert halved >= 100


def test_closed_form_certificate_beta_zero():
    # g is the constant (1-d)/M here: mu1* is where f reaches it, or the right
    # end N0/s when f stays below it, and every draw certifies
    rng = np.random.default_rng(5)
    for _ in range(200):
        p, dly = _admissible_draw(rng, beta_zero=True)
        cert = bl.build_certificate(p, dly)
        grid = np.linspace(0.0, mu1_interval_right(p, dly), 201)
        low = [min(bl.f_of_mu1(p, m), bl.g_of_mu1(p, dly, m)) for m in grid.tolist()]
        assert abs(cert.mu1_star - grid[np.argmax(low)]) <= grid[1], (p, dly)
        assert cert.mu2 == 0.99
        assert cert.mu1 == _oracle_pair(p, dly, cert.mu1_star)[0], (p, dly)
        assert cert.psi[0, 0] < 0.0 and cert.mu1 * p.L < 1.0
        assert 0.0 < cert.lam <= cert.lam_star + 1e-12 and cert.zeta >= 1.0


def test_beta_zero_with_alpha_equal_to_a1_keeps_mu1_below_one_over_L():
    # f stays below g = (1-d)/M, so mu1* = N0/s = 2 a1 alpha / (L (a1^2 +
    # alpha^2)), which is 1/L at alpha = a1 (here to the last bit): the
    # certificate halves it, where mu1 L = 1 would refuse the sandwich
    a1 = 0.5
    Lmax = math.pi * math.sqrt(5 * a1 / 3)
    p = bl.SystemParams(a=1.0, a1=a1, L=0.999 * Lmax, alpha=a1, beta=0.0)
    cert = bl.build_certificate(p, bl.DelaySpec(tau0=0.5, M=5.0, d=0.0))
    assert cert.mu1_star * p.L == 1.0
    assert cert.mu1 == cert.mu1_star / 2 and cert.zeta == zeta_overshoot(p, 0.0, 0.99)


def test_empty_mu1_interval_is_inadmissible():
    # alpha a few ulps above the threshold passes check_gains, whose det Phi
    # rounds apart from N0 = det Phi / |beta|, and N0 <= 0 empties [0, N0/s]
    p = bl.SystemParams(a=1.0, a1=0.6, L=1.0, alpha=1.0, beta=0.05)
    dly = bl.DelaySpec(tau0=0.3, M=2.0, d=0.8)
    alpha = gain_threshold(p, dly)
    while not bl.check_gains(replace(p, alpha=alpha), dly)[0]:
        alpha = math.nextafter(alpha, math.inf)
    p = replace(p, alpha=alpha)
    assert mu1_interval_right(p, dly) <= 0.0
    with pytest.raises(InadmissibleGainsError, match="interval is empty"):
        bl.build_certificate(p, dly)
