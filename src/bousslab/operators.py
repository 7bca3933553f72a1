"""Discrete spatial derivative operators with the boundary conditions folded in.

Interior nodes carry second-order centered stencils for the first, third and
fifth derivatives.  Boundary conditions are imposed by ghost-point
elimination: fictitious exterior values are expressed through a one-sided
degree-6 polynomial that interpolates the known boundary data (value, slope,
and, where prescribed, curvature) plus the nearest interior nodes.  The
curvature data enter as separate affine channels, so the operators stay
linear time-invariant and the delayed feedback becomes a boundary source
vector.

The system operator A is assembled straight into its LAPACK band storage,
the one copy of it that factorizations and the slow mode read.  The quadratic
nonlinear terms (`nonlinear_matrices`) use full-grid derivative matrices
(`derivative_matrix`) in CSR: this module, the one user of scipy.sparse,
imports it only for them and `band_storage`, so a linear run never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, NumericalError
from .params import Grid, SystemParams

if TYPE_CHECKING:
    import scipy.sparse as sp

# centered stencils, coefficient * h^(-order)
_S1 = {-1: -0.5, 1: 0.5}
_S3 = {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}
_S5 = {-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5}
_STENCILS = {1: _S1, 3: _S3, 5: _S5}

# interior-point counts for the ghost extrapolation (degree 6 everywhere)
_NPTS_3BC = 4   # value+slope+curvature known
_NPTS_2BC = 5   # value+slope known

# one-sided second-derivative trace: f_xx(L) ~= (6 f_n - 1.5 f_{n-1} + (2/9) f_{n-2})/h^2
# using f(L) = f_x(L) = 0; exact on quartics.
_TRACE_W = np.array([2.0 / 9.0, -1.5, 6.0])


@lru_cache(maxsize=None)
def ghost_weights(n_bc: int, n_pts: int, xi_ghost: float) -> tuple[tuple[float, ...], float]:
    """Extrapolation weights for a ghost value at scaled coordinate xi_ghost < 0.

    The extrapolating polynomial has a zero of order n_bc at xi = 0 (plus a
    quadratic term fed by the curvature datum when n_bc == 3) and matches the
    unknown at xi = 1..n_pts.  Returns (weights-on-nodes, gamma) where the
    ghost value is w . f + gamma * (c * h^2 / 2) for curvature datum c.
    """
    js = np.arange(1, n_pts + 1, dtype=float)
    basis = np.array([[j ** (n_bc + k) for k in range(n_pts)] for j in js])
    rhs = np.array([xi_ghost ** (n_bc + k) for k in range(n_pts)])
    w = np.linalg.solve(basis.T, rhs)
    gamma = float(xi_ghost ** 2 - w @ js ** 2) if n_bc == 3 else 0.0
    return tuple(float(x) for x in w), gamma


def _banded(n: int, stencil: dict, scale: float, left, right, w: int) -> np.ndarray:
    """The diagonals D, (2w + 1) x n, of the n x n matrix M with the centered
    stencil (offset: coefficient, times scale) on every row but the first
    and last few, which are the dense rows `left` (starting at column 0) and
    `right` (ending at column n - 1): entry M[i, j] at D[w + i - j, j].  The
    entries of `left` and `right` farther than w from the diagonal must be
    zero; D is zero in every slot M has no entry for."""
    (kl, wl), (kr, wr) = np.shape(left), np.shape(right)
    D = np.zeros((2 * w + 1, n))
    inner = np.arange(kl, n - kr)
    for off, coeff in stencil.items():
        D[w - off, inner + off] = coeff * scale
    for rows, cols, vals in ((np.arange(kl), np.arange(wl), left),
                             (np.arange(n - kr, n), np.arange(n - wr, n), right)):
        i, j = np.meshgrid(rows, cols, indexing="ij")
        near = np.abs(i - j) <= w
        D[(w + i - j)[near], j[near]] = np.asarray(vals)[near]
    return D


def _build_single(n: int, h: float, deriv: int, left_nbc: int, right_nbc: int):
    """The n x n derivative operator, as its nine diagonals, plus the
    curvature-channel vectors.

    Returns (D, src_left, src_right): the discrete derivative of the unknown
    is P @ f + src_left * c_left + src_right * c_right, P[i, j] = D[4 + i - j, j]
    (`_banded`; P has bandwidth four), with c the boundary second-derivative
    data (zero unless that side carries three conditions).  Only the first
    and last max-offset rows reach a boundary node; they are assembled
    densely, the direct and ghost terms summed in the order the stencil
    visits them, so every entry is reproducible to the bit.  The rows between
    carry the plain stencil.
    """
    stencil = _STENCILS[deriv]
    scale = 1.0 / h ** deriv
    npl = _NPTS_3BC if left_nbc == 3 else _NPTS_2BC
    npr = _NPTS_3BC if right_nbc == 3 else _NPTS_2BC
    k = max(stencil)
    width = max(npl, npr, 2 * k)
    edges = np.zeros((2 * k, width))
    src_l = np.zeros(n)
    src_r = np.zeros(n)
    for r, i in enumerate([*range(k), *range(n - k, n)]):
        first = 0 if r < k else n - width   # the column of edges[r, 0]
        for off, coeff in stencil.items():
            j = i + 1 + off
            c = coeff * scale
            if 1 <= j <= n:
                edges[r, j - 1 - first] += c
            elif j < 0:
                w, gam = ghost_weights(left_nbc, npl, float(j))
                edges[r, :npl] += c * np.asarray(w)
                src_l[i] += c * gam * 0.5 * h * h
            elif j > n + 1:   # j = 0 and n + 1 are homogeneous Dirichlet values
                w, gam = ghost_weights(right_nbc, npr, float(n + 1 - j))
                edges[r, width - npr:] += c * np.asarray(w)[::-1]
                src_r[i] += c * gam * 0.5 * h * h
    return _banded(n, stencil, scale, edges[:k], edges[k:], 4), src_l, src_r


@dataclass
class OperatorSet:
    """The discrete system operator for one (params, grid) pair.

    `A_band` is the interleaved 2n x 2n A of u' = A u + B u(t - tau) +
    sources, u = (eta_1, omega_1, eta_2, ...), in the (ab, kl, ku) band
    storage of `band_storage`, kl = ku = 9: eta' rows hold -P_omega and the
    feedback -alpha outer(omega_s_influence, trace_row), omega' rows -P_eta,
    with P = D1 + a D3 + a1 D5 of each unknown with its ghost-point closure.
    The ghost values of omega near x = L are
        ghost_m = w_m . (omega_n, .., omega_{n-3}) + gamma_m * h^2/2 * s(t)
    (`ghost_weights(3, 4, -m)`) with s(t) = alpha*eta_xx(t, L)
    + beta*eta_xx(t - tau(t), L); the eta side carries the mirrored
    structure at x = 0 with datum c(t) = eta_xx(t, 0) (zero for the
    production system).  `omega_s_influence`/`eta_c_influence` are the
    columns through which unit boundary data enter P.  The delayed term
    B = -beta outer(omega_s_influence, trace_row) has rank one and is never
    assembled: steps apply it as a source, the slow mode as a secular
    equation.  `trace_row` holds the weights of `trace_eta_xx_L`.  A depends
    only on the a, a1, L and alpha of `params` (`check_params`); `shifted_lu`
    factors its shifted systems from `A_band`.
    """

    grid: Grid
    params: SystemParams
    eta_c_influence: np.ndarray
    omega_s_influence: np.ndarray
    trace_row: np.ndarray
    A_band: tuple[np.ndarray, int, int]

    def shifted_lu(self, shift, scale: float) -> BandedLU:
        """`BandedLU` of shift I - scale A, formed from `A_band` entry by entry
        as scipy.sparse forms it (0 - scale a_ij off the diagonal, shift -
        scale a_ii on it), so its factors are the sparse expression's bit for
        bit; a complex shift factors in complex arithmetic."""
        ab, kl, ku = self.A_band
        out = np.zeros(ab.shape, dtype=np.result_type(shift, float), order="F")
        np.subtract(out, scale * ab, out=out)   # 0 - 0 keeps the empty slots +0.0
        out[kl + ku] = shift - scale * ab[kl + ku]
        return BandedLU(out, kl, ku)

    def check_params(self, p: SystemParams) -> None:
        """Raise ConfigurationError unless p has the a, a1, L and alpha of A."""
        built, given = ((q.a, q.a1, q.L, q.alpha) for q in (self.params, p))
        if built != given:
            raise ConfigurationError(f"operators built for (a, a1, L, alpha) {built}, not {given}")


def trace_weights(h: float) -> np.ndarray:
    """Weights on (f_{n-2}, f_{n-1}, f_n) approximating f_xx(L)."""
    return _TRACE_W / h ** 2


def trace_eta_xx_L(eta: np.ndarray, g: Grid) -> np.ndarray | float:
    """One-sided second-order estimate of eta_xx at x = L.

    Uses eta(L) = eta_x(L) = 0; exact for quartics.  Rows stacked along
    eta's last axis (strided views too) give one value each, the bits of
    the row alone: the three-term sum has one fixed order.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1] != g.n:
        raise ConfigurationError(f"state length {eta.shape[-1]} != grid size {g.n}")
    w = trace_weights(g.h)
    return w[0] * eta[..., -3] + w[1] * eta[..., -2] + w[2] * eta[..., -1]


def trace_omega_xx_0(omega: np.ndarray, g: Grid) -> np.ndarray | float:
    """Mirrored one-sided estimate of omega_xx at x = 0, one per row when
    omega stacks rows along its last axis."""
    omega = np.asarray(omega, dtype=float)
    return omega[..., :3] @ trace_weights(g.h)[::-1]


def _interleaved(M, rows: bool, cols: bool) -> sp.csr_matrix:
    """M, assembled in (eta, omega) block form, with its rows and/or columns moved
    to the interleaved layout (eta_1, omega_1, eta_2, ...), in canonical CSR without
    explicit zeros: of 2m indices, block index k goes to 2k for k < m, else 2(k - m) + 1."""
    import scipy.sparse as sp

    M = sp.coo_matrix(M)
    r, c = M.row, M.col
    if rows:
        r = np.arange(M.shape[0]).reshape(-1, 2).T.ravel()[r]
    if cols:
        c = np.arange(M.shape[1]).reshape(-1, 2).T.ravel()[c]
    out = sp.csr_matrix((M.data, (r, c)), shape=M.shape)
    out.eliminate_zeros()
    return out


def _csr_apply(M: sp.csr_matrix):
    """The map x -> M @ x of a float CSR matrix M, by the kernel `@` calls
    (scipy's private `csr_matvec`, bound here once) into a fresh zeroed
    vector: `@`'s bits without its dispatch."""
    from scipy.sparse._sparsetools import csr_matvec

    rows, cols = M.shape

    def apply(x: np.ndarray) -> np.ndarray:
        if x.shape != (cols,):   # the kernel reads x without a bound
            raise ConfigurationError(
                f"cannot apply a {M.shape} matrix to a vector of shape {x.shape}")
        out = np.zeros(rows)
        csr_matvec(rows, cols, M.indptr, M.indices, M.data, x, out)
        return out

    return apply


def build_operators(p: SystemParams, g: Grid) -> OperatorSet:
    """Assemble P = D1 + a D3 + a1 D5 for both unknowns, the feedback
    influence channels and the system operator A from them, in (eta, omega)
    block form [[-alpha outer(g_s, T), -P_omega], [-P_eta, 0]], interleaved,
    straight into its band storage, kl = ku = 9: P's diagonals i - j = -4..4
    fill every other row, from row 9 for -P_omega (rows 2i, columns 2j + 1)
    and from row 11 for -P_eta.  Each entry is written as 0.0 - P, so the
    slots without an entry hold +0.0.

    eta carries (value, slope, curvature) data at x=0 and (value, slope) at
    x=L; omega carries (value, slope) at x=0 and (value, slope, curvature
    = feedback) at x=L.  Raises ConfigurationError when g.L != p.L, or
    naming n when the grid's arrays cannot be allocated.
    """
    if g.L != p.L:
        raise ConfigurationError(f"grid length {g.L} != domain length {p.L}")
    n, h = g.n, g.h

    def combine(parts, k):
        return parts[1][k] + p.a * parts[3][k] + p.a1 * parts[5][k]

    kl = ku = 9
    try:
        eta = {d: _build_single(n, h, d, 3, 2) for d in (1, 3, 5)}
        omega = {d: _build_single(n, h, d, 2, 3) for d in (1, 3, 5)}
        g_s = combine(omega, 2)
        T = np.concatenate([np.zeros(n - 3), trace_weights(h)])
        ab = np.zeros((2 * kl + ku + 1, 2 * n), order="F")
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot allocate the operators on n = {n} nodes: {exc}") from exc
    ab[9:26:2, 1::2] = 0.0 - combine(omega, 0)
    ab[11:28:2, 0::2] = 0.0 - combine(eta, 0)
    # the feedback on eta rows and columns: g_s lives on the last two rows
    # and T on the last three columns, so the last five rows, those within
    # the band of all three columns, hold it
    i, j = np.meshgrid(np.arange(n - 5, n), np.arange(n - 3, n), indexing="ij")
    ab[kl + ku + 2 * (i - j), 2 * j] = 0.0 - p.alpha * (g_s[i] * T[j])
    return OperatorSet(grid=g, params=p, eta_c_influence=combine(eta, 1),
                       omega_s_influence=g_s, trace_row=T, A_band=(ab, kl, ku))


def band_storage(matrix) -> tuple[np.ndarray, int, int]:
    """(ab, kl, ku): a square matrix, dense or sparse (anything `sp.coo_matrix`
    accepts; explicit zeros are dropped before the bandwidths are read), in
    the LAPACK band storage `BandedLU` factors: entry (i, j) at
    ab[kl + ku + i - j, j], the first kl rows zero, for the fill-in."""
    import scipy.sparse as sp

    m = sp.coo_matrix(matrix)
    m.sum_duplicates()
    m.eliminate_zeros()
    ii, jj = m.row, m.col
    kl = int(np.max(ii - jj, initial=0))
    ku = int(np.max(jj - ii, initial=0))
    ab = np.zeros((2 * kl + ku + 1, m.shape[0]), dtype=np.result_type(m.dtype, float), order="F")
    ab[kl + ku + ii - jj, jj] = m.data
    return ab, kl, ku


class BandedLU:
    """Reusable banded LU factorization of a square matrix in the band storage
    (ab, kl, ku) of `band_storage`: LAPACK dgbtrf/dgbtrs for real data,
    zgbtrf/zgbtrs for complex.  Every system matrix is factored here."""

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        if ab.shape[0] != 2 * kl + ku + 1:
            raise ConfigurationError(f"band storage of {ab.shape[0]} rows is not 2 kl + ku + 1 "
                                     f"for kl = {kl}, ku = {ku}")
        self.n, self.kl, self.ku = ab.shape[1], kl, ku
        gbtrf, self._gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku)
        if info != 0:
            raise NumericalError(f"banded LU factorization failed (info={info})")
        self._lu = lu
        self._ipiv = ipiv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = self._gbtrs(self._lu, self.kl, self.ku, rhs, self._ipiv)
        if info != 0:
            raise NumericalError(f"banded solve failed (info={info})")
        return x


# ---------------------------------------------------------------------------
# second-order derivatives on the full grid, boundary nodes included
# (nonlinear terms): centered stencil, coefficient * h^(-m), and the exact
# one-sided rows at nodes 0 (and 1 for m = 3) over the first nodes, mirrored
# at the right end
_FULL_STENCILS = {1: (_S1, ((-1.5, 2.0, -0.5),)),
                  2: ({-1: 1.0, 0: -2.0, 1: 1.0}, ((2.0, -5.0, 4.0, -1.0),)),
                  3: (_S3, ((-4.25, 17.75, -29.5, 24.5, -10.25, 1.75),
                            (-1.75, 6.25, -8.5, 5.5, -1.75, 0.25)))}


def derivative_matrix(N: int, h: float, m: int) -> sp.csr_matrix:
    """CSR N x N m-th derivative (m = 1, 2, 3) of samples on the full grid
    (boundary nodes included): second order, centered inside and one-sided
    on the first and last one (m < 3) or two (m = 3) rows, whose exact
    dyadic weights are tabled in `_FULL_STENCILS`."""
    if m not in _FULL_STENCILS:
        raise ConfigurationError(f"unsupported derivative order {m}")
    stencil, edges = _FULL_STENCILS[m]
    width = len(edges[0])
    if N < width:
        raise ConfigurationError(f"need at least {width} nodes, got {N}")
    import scipy.sparse as sp

    scale = 1.0 / h ** m
    left = np.array(edges) * scale
    w = width - 1
    D = _banded(N, stencil, scale, left, (left * (-1.0) ** m)[::-1, ::-1], w)
    return sp.dia_matrix((D, np.arange(w, -w - 1, -1)), shape=(N, N)).tocsr()


# G's row blocks of fields (`nonlinear_matrices`): the products' first factors, then the second
_PAIRS = (0, 0, 2, 0, 3, 2) + (2, 4, 3, 1, 4, 5)


def nonlinear_matrices(n: int, h: float, p: SystemParams
                       ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The quadratic terms as two sparse maps around one table of products.

    G (12(n+2) x 2n) takes the interleaved state to the pair table F on the
    full grid, zero boundary values included: the fields (ef, e_xx, wf, w_x,
    w_xx, w_xxx) in the row blocks _PAIRS, so F's two halves F_i and F_j hold
    the first and the second factors of the six products.  C (2n x 6(n+2))
    takes the products F_i * F_j = (ef wf, ef w_xx, wf w_x, ef e_xx, w_x w_xx,
    wf w_xxx) to the interleaved right-hand side on the interior rows,
        eta':   -(ef wf)_x - alpha_p (ef w_xx)_x
        omega': -(c_nl D2 + I) wf w_x - (ef e_xx)_x + beta_p w_x w_xx + rho_nl wf w_xxx
    so the pointwise omega terms are scaled identity blocks.  Both are built in
    (eta, omega) block form on the full grid, interleaved (`_interleaved`) and cut
    to the interior nodes, columns (rows) 2..2n+1: the zero boundary values drop out.
    """
    import scipy.sparse as sp

    N = n + 2
    I = sp.identity(N, format="csr")
    D1, D2, D3 = (derivative_matrix(N, h, m) for m in (1, 2, 3))
    fields = [[I, None], [D2, None], [None, I], [None, D1], [None, D2], [None, D3]]
    G = sp.bmat([fields[k] for k in _PAIRS])
    C = sp.bmat([[-D1, -p.alpha_p * D1, None, None, None, None],
                 [None, None, -p.c_nl * D2 - I, -D1, p.beta_p * I, p.rho_nl * I]])
    return (_interleaved(G, rows=False, cols=True)[:, 2:-2],
            _interleaved(C, rows=True, cols=False)[2:-2])
