import numpy as np
import pytest
import sympy as sp
from scipy.sparse import coo_matrix, csr_matrix, identity

import bousslab as bl
from bousslab.operators import (_PAIRS, BandedLU, _build_single, _csr_apply, _NPTS_2BC,
                                _NPTS_3BC, _STENCILS, band_storage, derivative_matrix,
                                ghost_weights, nonlinear_matrices, trace_omega_xx_0,
                                trace_weights)
from bousslab.stepping import StepConfig, Stepper

from conftest import dense_from_band

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
    """The dense n x n assembly the banded builder replaced, kept as the
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


# n = 9..12: the dense edge rows and the stencil rows meet
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 100, 403])
@pytest.mark.parametrize("unknown", ["eta", "omega"])
@pytest.mark.parametrize("deriv", [1, 3, 5])
def test_sparse_single_matches_dense_oracle(deriv, unknown, n):
    h = L / (n + 1)
    # the nine diagonals hold every entry, and nothing outside the matrix
    D, sl, sr = _build_single(n, h, deriv, *SIDES[unknown])
    P_ref, sl_ref, sr_ref = _dense_build_single(n, h, deriv, *SIDES[unknown])
    assert D.shape == (9, n) and D.dtype == float
    assert np.count_nonzero(D) == np.count_nonzero(P_ref)
    assert np.array_equal(dense_from_band(D, 0, 4), P_ref)
    assert np.array_equal(sl, sl_ref) and np.array_equal(sr, sr_ref)


@pytest.mark.parametrize("n", [16, 200, 403])
def test_system_matrices_match_dense_oracle(n):
    p = bl.SystemParams(a=0.1, a1=0.0065, L=L, alpha=0.05, beta=5e-4)
    g = bl.Grid(n=n, L=L)
    ops = bl.build_operators(p, g)

    def combined(unknown, k):
        parts = [_dense_build_single(n, g.h, d, *SIDES[unknown])[k] for d in (1, 3, 5)]
        return parts[0] + p.a * parts[1] + p.a1 * parts[2]

    g_s = combined("omega", 2)
    assert np.array_equal(ops.eta_c_influence, combined("eta", 1))
    assert np.array_equal(ops.omega_s_influence, g_s)
    T = np.zeros(n)
    T[-3:] = trace_weights(g.h)
    assert np.array_equal(ops.trace_row, T)
    # the interleaved generator, densely: eta' = -P_omega omega - alpha g_s
    # (T . eta), omega' = -P_eta eta
    A_ref = np.zeros((2 * n, 2 * n))
    A_ref[0::2, 1::2] = -combined("omega", 0)
    A_ref[1::2, 0::2] = -combined("eta", 0)
    A_ref[0::2, 0::2] = -p.alpha * np.outer(g_s, T)
    # its band storage, +0.0 in every slot without an entry
    ab, kl, ku = ops.A_band
    ab_ref, kl_ref, ku_ref = band_storage(A_ref)
    assert (kl, ku) == (kl_ref, ku_ref) == (9, 9)
    assert np.array_equal(_u64(ab), _u64(ab_ref))


def _triplet_A(p, g):
    """A as CSR from interleaved (row, column, value) triplets of the dense
    operators, the way it was before the block form: the reference for its
    band storage."""
    n, h = g.n, g.h

    def combine(unknown, k):
        parts = [_dense_build_single(n, h, d, *SIDES[unknown])[k] for d in (1, 3, 5)]
        return parts[0] + p.a * parts[1] + p.a1 * parts[2]

    Pe, Po = coo_matrix(combine("eta", 0)), coo_matrix(combine("omega", 0))
    g_s = combine("omega", 2)
    T = trace_weights(h)
    ie = 2 * np.arange(n)
    rows = np.concatenate([ie[Po.row], ie[Pe.row] + 1, np.repeat(ie, 3)])
    cols = np.concatenate([ie[Po.col] + 1, ie[Pe.col], np.tile(ie[-3:], n)])
    vals = np.concatenate([-Po.data, -Pe.data, (-p.alpha * np.outer(g_s, T)).ravel()])
    A = csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))
    A.eliminate_zeros()
    return A


def _triplet_G_C(n, h, p):
    """G and C of `nonlinear_matrices` from interleaved triplets, the way
    they were before the block form, G's field blocks gathered by _PAIRS."""
    N = n + 2
    I = identity(N, format="csr")
    D1, D2, D3 = (derivative_matrix(N, h, m) for m in (1, 2, 3))

    def entries(blocks, transpose):
        stacked, inter, vals = [], [], []
        for b, (op, odd) in enumerate(blocks):
            op = op.tocoo()
            r, c = (op.col, op.row) if transpose else (op.row, op.col)
            keep = (c >= 1) & (c <= n)
            stacked.append(b * N + r[keep])
            inter.append(2 * (c[keep] - 1) + odd)
            vals.append(op.data[keep])
        return np.concatenate(stacked), np.concatenate(inter), np.concatenate(vals)

    fields = [(I, 0), (D2, 0), (I, 1), (D1, 1), (D2, 1), (D3, 1)]
    gi, gj, gv = entries([fields[k] for k in _PAIRS], False)
    cj, ci, cv = entries([(-D1, 0), (-p.alpha_p * D1, 0), (-p.c_nl * D2 - I, 1),
                          (-D1, 1), (p.beta_p * I, 1), (p.rho_nl * I, 1)], True)
    G = csr_matrix((gv, (gi, gj)), shape=(12 * N, 2 * n))
    C = csr_matrix((cv, (ci, cj)), shape=(2 * n, 6 * N))
    G.eliminate_zeros()
    C.eliminate_zeros()
    return G, C


@pytest.mark.parametrize("n", [24, 50, 101, 200, 203, 403])
def test_block_assembly_matches_triplet_oracle(n):
    # A is written in (eta, omega) block form straight into its band
    # storage, G and C are assembled in block form and interleaved once: A's
    # band storage equals `band_storage` of the triplet assembly, G's and
    # C's stored arrays the triplet assembly's, bit for bit
    for p in (bl.SystemParams(a=0.1, a1=0.0065, L=L, alpha=0.05, beta=5e-4,
                              alpha_p=0.7, beta_p=-0.4, rho_nl=0.3, c_nl=0.25),
              bl.SystemParams(alpha=0.0)):
        g = bl.Grid(n=n, L=L)
        ab, kl, ku = bl.build_operators(p, g).A_band
        ab_ref, kl_ref, ku_ref = band_storage(_triplet_A(p, g))
        assert (kl, ku) == (kl_ref, ku_ref) == (9, 9) and ab.flags.f_contiguous
        assert ab.dtype == ab_ref.dtype and np.array_equal(_u64(ab), _u64(ab_ref))
        pairs = zip(nonlinear_matrices(n, g.h, p), _triplet_G_C(n, g.h, p))
        for M, ref in pairs:
            assert M.shape == ref.shape and M.has_canonical_format
            for attr in ("indptr", "indices", "data"):
                ours, theirs = getattr(M, attr), getattr(ref, attr)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), attr


def test_quartic_exact_with_curvature_channels():
    # fifth derivative of x^2(L-x)^2 vanishes; with the curvature data fed
    # through the closure channels the discrete operator reproduces it exactly
    g = bl.Grid(n=64, L=L)
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    qxx0 = 2 * L ** 2
    qxxL = 2 * L ** 2
    D_eta, src_l, _ = _build_single(g.n, g.h, 5, *SIDES["eta"])
    D_om, _, src_r = _build_single(g.n, g.h, 5, *SIDES["omega"])
    P_eta, P_om = dense_from_band(D_eta, 0, 4), dense_from_band(D_om, 0, 4)
    scale = np.max(np.abs(P_eta)) * np.max(np.abs(q))
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
        P = dense_from_band(_build_single(n, g.h, deriv, *SIDES[unknown])[0], 0, 4)
        x = g.nodes
        approx = P @ PHI[0](x)
        errs.append(np.max(np.abs(approx - PHI[deriv](x))))
    hs = [L / (n + 1) for n in (32, 65, 131, 263)]
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(3)]
    assert min(orders) >= 1.9, (errs, orders)


def test_bandwidth_at_most_four():
    # so the nine diagonals `_build_single` keeps hold every entry
    n = 24
    for unknown, sides in SIDES.items():
        for deriv in (1, 3, 5):
            rows, cols = np.nonzero(_dense_build_single(n, L / (n + 1), deriv, *sides)[0])
            assert np.max(np.abs(rows - cols)) <= 4, (unknown, deriv)
            assert _build_single(n, L / (n + 1), deriv, *sides)[0].shape == (9, n)


def test_boundary_source_zero_without_feedback():
    # alpha = 0: no instantaneous feedback term, so A has no eta-to-eta
    # coupling
    p = bl.SystemParams(alpha=0.0, beta=0.0)
    A = dense_from_band(*bl.build_operators(p, bl.Grid(n=16, L=1.0)).A_band)
    rows, cols = np.nonzero(A)
    assert not np.any((rows % 2 == 0) & (cols % 2 == 0))


def test_trace_examples():
    g = bl.Grid(n=64, L=L)
    assert bl.trace_eta_xx_L(np.zeros(64), g) == 0.0
    q = g.nodes ** 2 * (L - g.nodes) ** 2
    assert abs(bl.trace_eta_xx_L(q, g) - 2 * L ** 2) < 1e-10
    s = np.sin(np.pi * (L - g.nodes)) ** 2
    assert abs(bl.trace_eta_xx_L(s, g) - 2 * np.pi ** 2) < 1e-2


@pytest.mark.parametrize("K", [1, 3, 257])
def test_trace_of_a_stack_is_each_row_alone(K):
    # one fixed-order three-term sum: each row of a (K, n) stack, strided
    # views of interleaved states included, gets the bits it gets alone
    g = bl.Grid(n=40, L=L)
    u = np.random.default_rng(K).standard_normal((K, 2 * g.n))
    for eta in (u[:, 0::2], u[:, 1::2], u[:, 0::2].copy()):
        stacked = bl.trace_eta_xx_L(eta, g)
        assert stacked.shape == (K,)
        alone = [bl.trace_eta_xx_L(row, g) for row in eta]
        assert all(isinstance(x, float) for x in alone)
        assert np.array_equal(stacked, alone)
    with pytest.raises(bl.ConfigurationError, match="state length 41"):
        bl.trace_eta_xx_L(np.zeros((K, 41)), g)


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
    dt = 1e-3
    A = dense_from_band(*bl.build_operators(p, bl.Grid(n=48, L=1.0)).A_band)
    n2 = A.shape[0]
    theta = bl.suggested_theta(dt)
    G = np.linalg.solve(np.eye(n2) - theta * dt * A,
                        np.eye(n2) + (1 - theta) * dt * A)
    rho = np.max(np.abs(np.linalg.eigvals(G)))
    assert rho <= 1.0 + 1e-8, rho


def _u64(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [8, 50, 203, 403])
def test_shifted_lu_is_the_sparse_expressions_factorization(n):
    # I - theta dt A (the stepper) and lambda I - A (the slow-mode Newton),
    # formed from A's band storage, factor to the bits of the same matrix
    # formed by scipy.sparse from A as CSR: factors, pivots and bandwidths
    p = bl.SystemParams(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4)
    ops = bl.build_operators(p, bl.Grid(n=n, L=p.L))
    A = csr_matrix(dense_from_band(*ops.A_band))
    I = identity(2 * n, format="csr")
    c, lam = 0.502 * 1e-3, complex(-0.37, 11.3)
    for got, want in ((ops.shifted_lu(1.0, c), I - c * A),
                      (ops.shifted_lu(lam, 1.0), lam * I - A)):
        ref = BandedLU(*band_storage(want))
        assert (got.n, got.kl, got.ku) == (ref.n, ref.kl, ref.ku) == (2 * n, 9, 9)
        assert got._lu.dtype == ref._lu.dtype
        assert np.array_equal(_u64(got._lu), _u64(ref._lu))
        assert np.array_equal(got._ipiv, ref._ipiv)
    ab, kl, ku = ops.A_band
    assert np.array_equal(_u64(ab), _u64(band_storage(A)[0])) and (kl, ku) == (9, 9)


def test_banded_lu_refuses_a_band_of_the_wrong_height():
    ab, kl, ku = band_storage(np.eye(5) + np.eye(5, k=1))
    assert (ab.shape, kl, ku) == ((2, 5), 0, 1)
    with pytest.raises(bl.ConfigurationError, match="2 kl \\+ ku \\+ 1"):
        BandedLU(ab, 1, 1)


def test_banded_lu_matches_dense_solve():
    rng = np.random.default_rng(3)
    n = 40
    A = np.zeros((n, n))
    for off in range(-3, 4):
        d = rng.standard_normal(n - abs(off))
        A += np.diag(d, off)
    A += 8 * np.eye(n)
    b = rng.standard_normal(n)
    dense_lu = BandedLU(*band_storage(A))
    assert np.allclose(dense_lu.solve(b), np.linalg.solve(A, b), atol=1e-12)
    # the same matrix as CSR, with an explicit zero far outside the band
    rows, cols = np.nonzero(A)
    csr = csr_matrix((np.append(A[rows, cols], 0.0),
                      (np.append(rows, 0), np.append(cols, n - 1))), shape=A.shape)
    assert csr.nnz == rows.size + 1
    sparse_lu = BandedLU(*band_storage(csr))
    assert (sparse_lu.kl, sparse_lu.ku) == (dense_lu.kl, dense_lu.ku) == (3, 3)
    assert np.array_equal(sparse_lu.solve(b), dense_lu.solve(b))
    # complex data factor in complex arithmetic (zgbtrf); a real right-hand
    # side is promoted
    Z = A + 1j * np.diag(rng.standard_normal(n - 2), 2)
    z_lu = BandedLU(*band_storage(csr_matrix(Z)))
    assert (z_lu.kl, z_lu.ku) == (3, 3)
    for rhs in (b, b + 1j * rng.standard_normal(n)):
        x = z_lu.solve(rhs)
        assert x.dtype == complex
        assert np.allclose(x, np.linalg.solve(Z, rhs), atol=1e-12)


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


@pytest.mark.parametrize("N", [6, 7, 10, 51, 205])
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
    assembled as matrices, kept as the reference, its one-sided edge weights
    from sympy's finite_diff_weights."""
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
        wk = np.array(sp.finite_diff_weights(m, list(range(width)), k)[m][-1],
                      dtype=float) / h ** m
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
    # G gives the pair table, the six first factors then the six second
    # ones, and C takes their six products, the pointwise omega terms
    # included (`test_folded_pointwise_terms_keep_the_bits`)
    assert st._G.shape == (12 * (n + 2), 2 * n) and st._C.shape == (2 * n, 6 * (n + 2))
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
        rhs = st._nonlinear_rhs(st._G @ u)
        assert np.max(np.abs(rhs - ref)) <= 1e-9 * np.max(np.abs(ref))
    # each derivative agrees to roundoff: a few ulps of sum_j |D_ij f_j|
    full = np.pad(u[1::2], 1)
    for m in (1, 2, 3):
        D = derivative_matrix(n + 2, g.h, m)
        err = np.abs(D @ full - _padded_derivative(full, g.h, m))
        assert np.all(err <= 8 * np.finfo(float).eps * (abs(D) @ np.abs(full)))


def _nonlinear_stepper(n):
    p = bl.SystemParams(a=0.1, a1=0.0065, L=L, alpha=0.05, beta=5e-4,
                        alpha_p=0.7, beta_p=-0.4, rho_nl=0.3, c_nl=0.25)
    g = bl.Grid(n=n, L=L)
    st = Stepper(bl.build_operators(p, g), StepConfig(dt=1e-3, nonlinear=True), p,
                 bl.DelaySpec(tau0=0.5, M=0.5))
    return p, g, st


@pytest.mark.parametrize("n", [50, 203])
def test_folded_pointwise_terms_keep_the_bits(n):
    # the pointwise omega terms are blocks of C on the interior omega rows,
    # their coefficients stored bit for bit: -I inside -c_nl D2 - I on
    # wf w_x, beta_p I on w_x w_xx and rho_nl I on wf w_xxx
    p, g, st = _nonlinear_stepper(n)
    N = n + 2
    C = st._C.toarray()
    blocks = [C[:, b * N:(b + 1) * N] for b in range(6)]
    for b, op in ((2, -p.c_nl * derivative_matrix(N, g.h, 2) - identity(N)),
                  (4, p.beta_p * identity(N)), (5, p.rho_nl * identity(N))):
        assert np.array_equal(blocks[b][1::2], op.toarray()[1:-1])
        assert not blocks[b][0::2].any()


@pytest.mark.parametrize("n", [50, 203])
def test_nonlinear_increment_scales_with_the_difference(n):
    # N(u + d/2) - N(u - d/2) = C (F_i Fd_j + Fd_i F_j) is linear in
    # Fd = G d: scaling Fd by a power of two scales the term bit for bit, so
    # its roundoff shrinks with the difference; at an order-one difference
    # it matches the difference of the composed terms
    p, g, st = _nonlinear_stepper(n)
    rng = np.random.default_rng(n)
    modes = np.sin(np.pi * np.arange(1, 5)[:, None] * g.nodes / L)
    # random smooth fields, interleaved: a few low sine modes on each unknown
    u, d = ((rng.standard_normal((2, 4)) @ modes).T.ravel() for _ in range(2))
    F, Fd = (st._G @ v for v in (u, d))
    inc = st._nonlinear_rhs(F, Fd)
    for k in (0, 10, 30):
        assert np.array_equal(st._nonlinear_rhs(F, 2.0 ** -k * Fd), 2.0 ** -k * inc)
    ref = (_composed_nonlinear_rhs(u + 0.5 * d, p, g.h)
           - _composed_nonlinear_rhs(u - 0.5 * d, p, g.h))
    assert np.max(np.abs(inc - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 50, 203, 403])
def test_csr_apply_is_the_matmul_kernel(n):
    # _csr_apply binds scipy's private csr_matvec, the kernel `@` calls: on
    # the gathered G and on C the stepper's maps give `@`'s bits, an inf
    # and a NaN included, so a scipy that moves or changes the kernel fails
    # here; a vector of another shape is refused, as the kernel reads it
    # unbounded
    p, g, st = _nonlinear_stepper(n)
    rng = np.random.default_rng(n)
    for M, apply in ((st._G, st._apply_G), (st._C, st._apply_C)):
        xs = [rng.standard_normal(M.shape[1]) for _ in range(3)]
        bad = rng.standard_normal(M.shape[1])
        bad[[1, M.shape[1] // 2]] = np.inf, np.nan
        for x in (*xs, bad):
            for out in (apply(x), _csr_apply(M)(x)):
                assert out.dtype == float and out.shape == (M.shape[0],)
                assert np.array_equal(out.view(np.uint64), (M @ x).view(np.uint64))
        for wrong in (xs[0][:-1], np.append(xs[0], 1.0), xs[0][None]):
            with pytest.raises(bl.ConfigurationError, match="cannot apply"):
                apply(wrong)


def test_trace_weights_quartic_identity():
    h = 0.2
    w = trace_weights(h)
    f = np.array([0.4 ** 2 * 0.6 ** 2, 0.6 ** 2 * 0.4 ** 2, 0.8 ** 2 * 0.2 ** 2])
    assert abs(w @ f - 2.0) < 1e-12
