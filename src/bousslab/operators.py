"""Discrete spatial derivative operators with the boundary conditions folded in.

Interior nodes carry second-order centered stencils for the first, third and
fifth derivatives.  Boundary conditions are imposed by ghost-point
elimination: fictitious exterior values are expressed through a one-sided
degree-6 polynomial that interpolates the known boundary data (value, slope,
and, where prescribed, curvature) plus the nearest interior nodes.  The
curvature data enter as separate affine channels, so the operators stay
linear time-invariant and the delayed feedback becomes a boundary source
vector.

The quadratic nonlinear terms use plain second-order derivative matrices on
the full grid, boundary nodes included (`derivative_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import ConfigurationError, NumericalError
from .params import Grid, SystemParams

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


def _build_single(n: int, h: float, deriv: int, left_nbc: int, right_nbc: int):
    """Sparse n x n derivative operator plus the curvature-channel vectors.

    Returns (P, src_left, src_right): the discrete derivative of the unknown
    is P @ f + src_left * c_left + src_right * c_right with c the boundary
    second-derivative data (zero unless that side carries three conditions).
    Entries landing on the same (row, col) are summed in the order the
    stencil visits them, so every entry is reproducible to the bit.
    """
    stencil = _STENCILS[deriv]
    scale = 1.0 / h ** deriv
    npl = _NPTS_3BC if left_nbc == 3 else _NPTS_2BC
    npr = _NPTS_3BC if right_nbc == 3 else _NPTS_2BC
    gl = {m: ghost_weights(left_nbc, npl, -float(m)) for m in (1, 2)}
    gr = {m: ghost_weights(right_nbc, npr, -float(m)) for m in (1, 2)}
    entries: dict[tuple[int, int], float] = {}
    src_l = np.zeros(n)
    src_r = np.zeros(n)

    def add(i, cols, vals):
        for j, v in zip(cols, vals):
            entries[i, j] = entries.get((i, j), 0.0) + v

    for i in range(n):
        for off, coeff in stencil.items():
            j = i + 1 + off
            c = coeff * scale
            if 1 <= j <= n:
                add(i, (j - 1,), (c,))
            elif j in (0, n + 1):
                continue  # homogeneous Dirichlet value
            elif j < 0:
                w, gam = gl[-j]
                add(i, range(npl), [c * wk for wk in w])
                src_l[i] += c * gam * 0.5 * h * h
            else:
                w, gam = gr[j - (n + 1)]
                add(i, range(n - npr, n), [c * wk for wk in w[::-1]])
                src_r[i] += c * gam * 0.5 * h * h
    rows, cols = zip(*entries)
    P = sp.csr_matrix((list(entries.values()), (rows, cols)), shape=(n, n))
    P.eliminate_zeros()
    return P, src_l, src_r


@dataclass
class OperatorSet:
    """The discrete spatial operators for one (params, grid) pair.

    `eta_combined`/`omega_combined` are the sparse P = D1 + a D3 + a1 D5 of
    each unknown with its ghost-point closure.  The ghost values of omega
    near x = L are
        ghost_m = w_m . (omega_n, .., omega_{n-3}) + gamma_m * h^2/2 * s(t)
    (`ghost_weights(3, 4, -m)`) with s(t) = alpha*eta_xx(t, L)
    + beta*eta_xx(t - tau(t), L); the eta side carries the mirrored
    structure at x = 0 with datum c(t) = eta_xx(t, 0) (zero for the
    production system).  `omega_s_influence`/`eta_c_influence` are the
    columns through which unit boundary data enter P, so the delayed trace
    contributes the boundary source vector beta * omega_s_influence *
    z_delayed.  `trace_row` holds the weights of `trace_eta_xx_L`.
    """

    grid: Grid
    eta_combined: sp.csr_matrix
    omega_combined: sp.csr_matrix
    eta_c_influence: np.ndarray
    omega_s_influence: np.ndarray
    trace_row: np.ndarray


def trace_weights(h: float) -> np.ndarray:
    """Weights on (f_{n-2}, f_{n-1}, f_n) approximating f_xx(L)."""
    return _TRACE_W / h ** 2


def trace_eta_xx_L(eta: np.ndarray, g: Grid) -> float:
    """One-sided second-order estimate of eta_xx at x = L.

    Uses eta(L) = eta_x(L) = 0; exact for quartics.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[0] != g.n:
        raise ConfigurationError(f"state length {eta.shape[0]} != grid size {g.n}")
    return float(trace_weights(g.h) @ eta[-3:])


def trace_omega_xx_0(omega: np.ndarray, g: Grid) -> np.ndarray | float:
    """Mirrored one-sided estimate of omega_xx at x = 0, one per row when
    omega stacks rows along its last axis."""
    omega = np.asarray(omega, dtype=float)
    return omega[..., :3] @ trace_weights(g.h)[::-1]


def build_operators(p: SystemParams, g: Grid) -> OperatorSet:
    """Assemble P = D1 + a D3 + a1 D5 for both unknowns plus the feedback
    influence channels.

    eta carries (value, slope, curvature) data at x=0 and (value, slope) at
    x=L; omega carries (value, slope) at x=0 and (value, slope, curvature
    = feedback) at x=L.
    """
    n, h = g.n, g.h
    eta = {d: _build_single(n, h, d, 3, 2) for d in (1, 3, 5)}
    omega = {d: _build_single(n, h, d, 2, 3) for d in (1, 3, 5)}

    def combine(parts, k):
        return parts[1][k] + p.a * parts[3][k] + p.a1 * parts[5][k]

    T = np.zeros(n)
    T[-3:] = trace_weights(h)
    return OperatorSet(
        grid=g,
        eta_combined=combine(eta, 0),
        omega_combined=combine(omega, 0),
        eta_c_influence=combine(eta, 1),
        omega_s_influence=combine(omega, 2),
        trace_row=T,
    )


class BandedLU:
    """Reusable banded LU factorization of a square matrix given dense or
    sparse (anything `sp.coo_matrix` accepts; explicit zeros are dropped
    before the bandwidths are read): LAPACK dgbtrf/dgbtrs for real data,
    zgbtrf/zgbtrs for complex.  Every system matrix is factored here."""

    def __init__(self, matrix):
        m = sp.coo_matrix(matrix)
        m.sum_duplicates()
        m.eliminate_zeros()
        ii, jj, vals = m.row, m.col, m.data
        self.n = m.shape[0]
        self.kl = int(np.max(ii - jj, initial=0))
        self.ku = int(np.max(jj - ii, initial=0))
        ab = np.zeros((2 * self.kl + self.ku + 1, self.n),
                      dtype=np.result_type(m.dtype, float), order="F")
        ab[self.kl + self.ku + ii - jj, jj] = vals
        gbtrf, self._gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, self.kl, self.ku)
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
    """Sparse N x N m-th derivative (m = 1, 2, 3) of samples on the full grid
    (boundary nodes included): second order, centered inside and one-sided
    on the first and last one (m < 3) or two (m = 3) rows, whose exact
    dyadic weights are tabled in `_FULL_STENCILS`."""
    if m not in _FULL_STENCILS:
        raise ConfigurationError(f"unsupported derivative order {m}")
    stencil, edges = _FULL_STENCILS[m]
    n_edge, width = len(edges), len(edges[0])
    if N < width:
        raise ConfigurationError(f"need at least {width} nodes, got {N}")
    scale = 1.0 / h ** m
    inner = np.arange(n_edge, N - n_edge)
    rows = [np.repeat(inner, len(stencil))]
    cols = [(inner[:, None] + np.array(list(stencil))).ravel()]
    vals = [np.tile(np.array(list(stencil.values())) * scale, inner.size)]
    edge = np.arange(width)
    for k, row in enumerate(edges):
        w = np.array(row) * scale
        rows += [np.full(width, k), np.full(width, N - 1 - k)]
        cols += [edge, N - width + edge]
        vals += [w, (w * (-1.0) ** m)[::-1]]
    D = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    D.eliminate_zeros()
    return D
