import numpy as np
import pytest
import sympy as sp
from scipy.sparse import csr_matrix

import bousslab as bl
from bousslab.operators import (BandedLU, OperatorSet, _build_single, _edge_weights,
                                _NPTS_2BC, _NPTS_3BC, _STENCILS, derivative_matrix,
                                ghost_weights, trace_omega_xx_0, trace_weights)
from bousslab.stepping import StepConfig, Stepper, nonlinear_matrices, system_matrices

L = 1.0
# boundary-condition counts (left, right) of each unknown
SIDES = {"eta": (3, 2), "omega": (2, 3)}


def _phi_callables():
    """BC-compatible smooth test function and its exact derivatives."""
    x = sp.symbols("x")
    phi = sp.sin(2 * sp.pi * x / L) * x ** 2 * (L - x) ** 2
    return {k: sp.lambdify(x, sp.diff(phi, x, k)) for k in (0, 1, 3, 5)}


PHI = _phi_callables()


def _dense_build_single(n, h, deriv, left_nbc, right_nbc):
    """The dense n x n assembly the sparse builder replaced, kept as the
    reference: each stencil entry and ghost row is added in place."""
    stencil = _STENCILS[deriv]
    scale = 1.0 / h ** deriv
    npl = _NPTS_3BC if left_nbc == 3 else _NPTS_2BC
    npr = _NPTS_3BC if right_nbc == 3 else _NPTS_2BC
    gl = {m: ghost_weights(left_nbc, npl, -float(m)) for m in (1, 2)}
    gr = {m: ghost_weights(right_nbc, npr, -float(m)) for m in (1, 2)}
    P = np.zeros((n, n))
    src_l = np.zeros(n)
    src_r = np.zeros(n)
    for i in range(1, n + 1):
        for off, coeff in stencil.items():
            j = i + off
            c = coeff * scale
            if 1 <= j <= n:
                P[i - 1, j - 1] += c
            elif j in (0, n + 1):
                continue
            elif j < 0:
                w, gam = gl[-j]
                P[i - 1, :npl] += c * np.asarray(w)
                src_l[i - 1] += c * gam * 0.5 * h * h
            else:
                w, gam = gr[j - (n + 1)]
                P[i - 1, n - npr:] += c * np.asarray(w)[::-1]
                src_r[i - 1] += c * gam * 0.5 * h * h
    return P, src_l, src_r


@pytest.mark.parametrize("n", [8, 16, 100, 403])
@pytest.mark.parametrize("unknown", ["eta", "omega"])
@pytest.mark.parametrize("deriv", [1, 3, 5])
def test_sparse_single_matches_dense_oracle(deriv, unknown, n):
    h = L / (n + 1)
    P, sl, sr = _build_single(n, h, deriv, *SIDES[unknown])
    P_ref, sl_ref, sr_ref = _dense_build_single(n, h, deriv, *SIDES[unknown])
    assert isinstance(P, csr_matrix) and P.has_canonical_format
    assert np.all(P.data != 0.0) and P.nnz == np.count_nonzero(P_ref)
    assert np.array_equal(P.toarray(), P_ref)
    assert np.array_equal(sl, sl_ref) and np.array_equal(sr, sr_ref)


@pytest.mark.parametrize("n", [16, 200, 403])
def test_system_matrices_match_dense_oracle(n):
    p = bl.SystemParams(a=0.1, a1=0.0065, L=L, alpha=0.05, beta=5e-4)
    g = bl.Grid(n=n, L=L)
    ops = bl.build_operators(p, g)

    def combined(unknown, k):
        parts = [_dense_build_single(n, g.h, d, *SIDES[unknown])[k] for d in (1, 3, 5)]
        return parts[0] + p.a * parts[1] + p.a1 * parts[2]

    ref = OperatorSet(grid=g, eta_combined=csr_matrix(combined("eta", 0)),
                      omega_combined=csr_matrix(combined("omega", 0)),
                      eta_c_influence=combined("eta", 1),
                      omega_s_influence=combined("omega", 2),
                      trace_row=ops.trace_row)
    assert np.array_equal(ops.eta_c_influence, ref.eta_c_influence)
    assert np.array_equal(ops.omega_s_influence, ref.omega_s_influence)
    for M, M_ref in zip(system_matrices(ops, p), system_matrices(ref, p)):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(M, attr), getattr(M_ref, attr)), attr


def test_quartic_exact_with_curvature_channels():
    # fifth derivative of x^2(L-x)^2 vanishes; with the curvature data fed
    # through the closure channels the discrete operator reproduces it exactly
    g = bl.Grid(n=64, L=L)
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    qxx0 = 2 * L ** 2
    qxxL = 2 * L ** 2
    P_eta, src_l, _ = _build_single(g.n, g.h, 5, *SIDES["eta"])
    P_om, _, src_r = _build_single(g.n, g.h, 5, *SIDES["omega"])
    scale = np.max(np.abs(P_eta.data)) * np.max(np.abs(q))
    r_eta = P_eta @ q + src_l * qxx0
    r_om = P_om @ q + src_r * qxxL
    assert np.max(np.abs(r_eta)) <= 1e-10 * scale
    assert np.max(np.abs(r_om)) <= 1e-10 * scale


@pytest.mark.parametrize("deriv", [1, 3, 5])
@pytest.mark.parametrize("unknown", ["eta", "omega"])
def test_operator_order_of_accuracy(deriv, unknown):
    # BC-compatible smooth function: observed order >= 1.9 over three dyadic
    # refinements, max norm over all rows
    errs = []
    for n in (32, 65, 131, 263):
        g = bl.Grid(n=n, L=L)
        P, _, _ = _build_single(n, g.h, deriv, *SIDES[unknown])
        x = g.nodes
        approx = P @ PHI[0](x)
        errs.append(np.max(np.abs(approx - PHI[deriv](x))))
    hs = [L / (n + 1) for n in (32, 65, 131, 263)]
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(3)]
    assert min(orders) >= 1.9, (errs, orders)


def test_bandwidth_at_most_four():
    n = 24
    for unknown, sides in SIDES.items():
        for deriv in (1, 3, 5):
            P = _build_single(n, L / (n + 1), deriv, *sides)[0].tocoo()
            assert np.max(np.abs(P.row - P.col)) <= 4, (unknown, deriv)


def test_boundary_source_zero_without_feedback():
    # alpha = beta = 0: no feedback term, so B stores nothing and A has no
    # eta-to-eta coupling
    p = bl.SystemParams(alpha=0.0, beta=0.0)
    A, B = system_matrices(bl.build_operators(p, bl.Grid(n=16, L=1.0)), p)
    assert B.nnz == 0
    rows, cols = A.nonzero()
    assert not np.any((rows % 2 == 0) & (cols % 2 == 0))


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
    A = st.A
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
    for m in (1, 2, 3):
        errs = []
        for N in (40, 80, 160):
            x = np.linspace(0.0, 1.0, N + 1)
            h = x[1] - x[0]
            errs.append(np.max(np.abs(derivative_matrix(N + 1, h, m) @ f(x) - refs[m](x))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.8, (m, errs)


@pytest.mark.parametrize("N", [10, 51, 205])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_derivative_matrix_band_and_storage(m, N):
    D = derivative_matrix(N, 1.0 / (N - 1), m)
    assert D.shape == (N, N) and D.has_canonical_format
    assert np.all(D.data != 0.0)
    coo = D.tocoo()
    assert np.max(np.abs(coo.row - coo.col)) <= 5


def test_derivative_matrix_rejects_unsupported_order():
    with pytest.raises(bl.ConfigurationError):
        derivative_matrix(10, 0.1, 4)


def _padded_derivative(full, h, m):
    """The per-call derivative the nonlinear terms used before they were
    assembled as matrices, kept as the reference."""
    N = full.shape[0]
    out = np.empty_like(full)
    if m == 1:
        out[1:-1] = (full[2:] - full[:-2]) / (2 * h)
        width = 3
    elif m == 2:
        out[1:-1] = (full[2:] - 2 * full[1:-1] + full[:-2]) / h ** 2
        width = 4
    else:
        out[2:-2] = (full[4:] - 2 * full[3:-1] + 2 * full[1:-3] - full[:-4]) / (2 * h ** 3)
        width = 6
    for k in range(1 if m < 3 else 2):
        wk = _edge_weights(m, width, k) / h ** m
        out[k] = wk @ full[:width]
        out[N - 1 - k] = (wk * (-1.0) ** m)[::-1] @ full[N - width:]
    return out


def _composed_nonlinear_rhs(u, p, h):
    """The quadratic terms composed from per-call derivatives (reference)."""
    d1, d2, d3 = (lambda f, m=m: _padded_derivative(f, h, m) for m in (1, 2, 3))
    ef, wf = np.pad(u[0::2], 1), np.pad(u[1::2], 1)
    w_x, w_xx, w_xxx, e_xx = d1(wf), d2(wf), d3(wf), d2(ef)
    h1 = -d1(ef * wf) - p.alpha_p * d1(ef * w_xx)
    h2 = (-wf * w_x - p.c_nl * d2(wf * w_x) - d1(ef * e_xx)
          + p.beta_p * w_x * w_xx + p.rho_nl * wf * w_xxx)
    out = np.empty_like(u)
    out[0::2], out[1::2] = h1[1:-1], h2[1:-1]
    return out


@pytest.mark.parametrize("n", [8, 50, 101, 203, 403])
def test_nonlinear_rhs_matches_composition_oracle(n):
    p = bl.SystemParams(a=0.1, a1=0.0065, L=L, alpha=0.05, beta=5e-4,
                        alpha_p=0.7, beta_p=-0.4, rho_nl=0.3, c_nl=0.25)
    g = bl.Grid(n=n, L=L)
    ops, dly = bl.build_operators(p, g), bl.DelaySpec(tau0=0.5, M=0.5)
    st = Stepper(ops, StepConfig(dt=1e-3, nonlinear=True), p, dly)
    assert st._G.shape == (6 * (n + 2), 2 * n) and st._C.shape == (2 * n, 4 * (n + 2))
    assert np.all(st._G.data != 0.0) and np.all(st._C.data != 0.0)
    # alpha_p = 0: that block stores nothing
    C0 = nonlinear_matrices(n, g.h, bl.SystemParams())[1]
    assert np.all(C0.data != 0.0) and C0.nnz < st._C.nnz
    # a linear stepper assembles neither
    assert not hasattr(Stepper(ops, StepConfig(dt=1e-3), p, dly), "_G")
    rng = np.random.default_rng(n)
    x = g.nodes / L
    k = np.arange(1, 5)[:, None]
    for _ in range(3):
        # random smooth fields: a few low sine modes on each unknown
        u = np.empty(2 * n)
        for sl in (slice(0, None, 2), slice(1, None, 2)):
            u[sl] = rng.standard_normal(4) @ np.sin(np.pi * k * x)
        ref = _composed_nonlinear_rhs(u, p, g.h)
        assert np.max(np.abs(st._nonlinear_rhs(u) - ref)) <= 1e-9 * np.max(np.abs(ref))
    # each derivative agrees to roundoff: a few ulps of sum_j |D_ij f_j|
    full = np.pad(u[1::2], 1)
    for m in (1, 2, 3):
        D = derivative_matrix(n + 2, g.h, m)
        err = np.abs(D @ full - _padded_derivative(full, g.h, m))
        assert np.all(err <= 8 * np.finfo(float).eps * (abs(D) @ np.abs(full)))


def test_trace_weights_quartic_identity():
    h = 0.2
    w = trace_weights(h)
    f = np.array([0.4 ** 2 * 0.6 ** 2, 0.6 ** 2 * 0.4 ** 2, 0.8 ** 2 * 0.2 ** 2])
    assert abs(w @ f - 2.0) < 1e-12
