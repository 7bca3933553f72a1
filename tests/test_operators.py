import numpy as np
import pytest
import sympy as sp
from scipy.sparse import csr_matrix

import bousslab as bl
from bousslab.operators import (BandedLU, d1, d2, d3, padded,
                                trace_omega_xx_0, trace_weights)
from bousslab.stepping import StepConfig, Stepper

L = 1.0


def _phi_callables():
    """BC-compatible smooth test function and its exact derivatives."""
    x = sp.symbols("x")
    phi = sp.sin(2 * sp.pi * x / L) * x ** 2 * (L - x) ** 2
    return {k: sp.lambdify(x, sp.diff(phi, x, k)) for k in (0, 1, 3, 5)}


PHI = _phi_callables()


def test_quartic_exact_with_curvature_channels():
    # fifth derivative of x^2(L-x)^2 vanishes; with the curvature data fed
    # through the closure channels the discrete operator reproduces it exactly
    p = bl.SystemParams(a=1.0, a1=1.0, L=L, alpha=0.0, beta=0.0)
    g = bl.Grid(n=64, L=L)
    ops = bl.build_operators(p, g)
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    qxx0 = 2 * L ** 2
    qxxL = 2 * L ** 2
    scale = np.max(np.abs(ops.eta_d5.to_dense())) * np.max(np.abs(q))
    r_eta = ops.eta_d5.apply(q) + ops.closure.eta_c_influence[5] * qxx0
    r_om = ops.omega_d5.apply(q) + ops.closure.omega_s_influence[5] * qxxL
    assert np.max(np.abs(r_eta)) <= 1e-10 * scale
    assert np.max(np.abs(r_om)) <= 1e-10 * scale


@pytest.mark.parametrize("deriv", [1, 3, 5])
@pytest.mark.parametrize("unknown", ["eta", "omega"])
def test_operator_order_of_accuracy(deriv, unknown):
    # BC-compatible smooth function: observed order >= 1.9 over three dyadic
    # refinements, max norm over all rows
    p = bl.SystemParams(a=1.0, a1=1.0, L=L, alpha=0.0, beta=0.0)
    errs = []
    for n in (32, 65, 131, 263):
        g = bl.Grid(n=n, L=L)
        ops = bl.build_operators(p, g)
        op = getattr(ops, f"{unknown}_d{deriv}")
        x = g.nodes
        approx = op.apply(PHI[0](x))
        errs.append(np.max(np.abs(approx - PHI[deriv](x))))
    hs = [L / (n + 1) for n in (32, 65, 131, 263)]
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(3)]
    assert min(orders) >= 1.9, (errs, orders)


def test_bandwidth_at_most_four():
    p = bl.SystemParams()
    ops = bl.build_operators(p, bl.Grid(n=24, L=1.0))
    for name in ("eta_d1", "eta_d3", "eta_d5", "omega_d1", "omega_d3", "omega_d5"):
        op = getattr(ops, name)
        assert op.kl <= 4 and op.ku <= 4, name


def test_banded_roundtrip_and_apply():
    p = bl.SystemParams()
    ops = bl.build_operators(p, bl.Grid(n=16, L=1.0))
    dense = ops.eta_d3.to_dense()
    v = np.sin(np.linspace(0, 3, 16))
    assert np.allclose(ops.eta_d3.apply(v), dense @ v)
    M = np.triu(np.tril(np.random.default_rng(5).standard_normal((12, 12)), 3), -2)
    op = bl.BandedOperator.from_dense(M, "test")
    assert (op.kl, op.ku) == (2, 3) and np.array_equal(op.to_dense(), M)


def test_boundary_source_zero_without_feedback():
    p = bl.SystemParams(alpha=0.0, beta=0.0)
    ops = bl.build_operators(p, bl.Grid(n=16, L=1.0))
    src = ops.closure.boundary_source(trace_now=3.7, trace_delayed=-1.2)
    assert np.all(src == 0.0)


def test_trace_examples():
    g = bl.Grid(n=64, L=L)
    assert bl.trace_eta_xx_L(np.zeros(64), g) == 0.0
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    assert abs(bl.trace_eta_xx_L(q, g) - 2 * L ** 2) < 1e-10
    s = np.sin(np.pi * (L - g.nodes)) ** 2
    assert abs(bl.trace_eta_xx_L(s, g) - 2 * np.pi ** 2) < 1e-2


def test_trace_second_order():
    errs = []
    for n in (32, 65, 131):
        g = bl.Grid(n=n, L=L)
        s = np.sin(np.pi * (L - g.nodes)) ** 2
        errs.append(abs(bl.trace_eta_xx_L(s, g) - 2 * np.pi ** 2))
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_trace_mirror():
    g = bl.Grid(n=64, L=L)
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    assert abs(trace_omega_xx_0(q, g) - 2 * L ** 2) < 1e-10


def test_one_step_dissipativity_shadow():
    # time-discrete mirror of operator dissipativity: with beta = 0 and
    # alpha > 0, the theta-scheme one-step map has spectral radius <= 1 + 1e-8
    p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=0.0)
    dly = bl.DelaySpec(tau0=0.5, M=0.5, d=0.0)
    dt = 1e-3
    st = Stepper(bl.build_operators(p, bl.Grid(n=48, L=1.0)),
                 StepConfig(dt=dt, theta=bl.suggested_theta(dt)), p, dly)
    A = st.system_matrix
    n2 = A.shape[0]
    theta = bl.suggested_theta(dt)
    G = np.linalg.solve(np.eye(n2) - theta * dt * A,
                        np.eye(n2) + (1 - theta) * dt * A)
    rho = np.max(np.abs(np.linalg.eigvals(G)))
    assert rho <= 1.0 + 1e-8, rho


def test_banded_lu_matches_dense_solve():
    rng = np.random.default_rng(3)
    n = 40
    A = np.zeros((n, n))
    for off in range(-3, 4):
        d = rng.standard_normal(n - abs(off))
        A += np.diag(d, off)
    A += 8 * np.eye(n)
    b = rng.standard_normal(n)
    dense_lu = BandedLU(A)
    assert np.allclose(dense_lu.solve(b), np.linalg.solve(A, b), atol=1e-12)
    # the same matrix as CSR, with an explicit zero far outside the band
    rows, cols = np.nonzero(A)
    csr = csr_matrix((np.append(A[rows, cols], 0.0),
                      (np.append(rows, 0), np.append(cols, n - 1))), shape=A.shape)
    assert csr.nnz == rows.size + 1
    sparse_lu = BandedLU(csr)
    assert (sparse_lu.kl, sparse_lu.ku) == (dense_lu.kl, dense_lu.ku) == (3, 3)
    assert np.array_equal(sparse_lu.solve(b), dense_lu.solve(b))


def test_generic_padded_derivatives_second_order():
    # one-sided edge rows are second order too
    f = lambda x: np.sin(2.3 * x + 0.4)
    refs = {1: lambda x: 2.3 * np.cos(2.3 * x + 0.4),
            2: lambda x: -2.3 ** 2 * np.sin(2.3 * x + 0.4),
            3: lambda x: -2.3 ** 3 * np.cos(2.3 * x + 0.4)}
    for m, dfun in ((1, d1), (2, d2), (3, d3)):
        errs = []
        for N in (40, 80, 160):
            x = np.linspace(0.0, 1.0, N + 1)
            h = x[1] - x[0]
            errs.append(np.max(np.abs(dfun(f(x), h) - refs[m](x))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.8, (m, errs)


def test_padded_helper():
    v = padded(np.array([1.0, 2.0]), left=5.0, right=7.0)
    assert np.array_equal(v, [5.0, 1.0, 2.0, 7.0])


def test_trace_weights_quartic_identity():
    h = 0.2
    w = trace_weights(h)
    f = np.array([0.4 ** 2 * 0.6 ** 2, 0.6 ** 2 * 0.4 ** 2, 0.8 ** 2 * 0.2 ** 2])
    assert abs(w @ f - 2.0) < 1e-12
