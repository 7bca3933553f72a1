"""Discrete spatial derivative operators with the boundary conditions folded in.

Interior nodes carry second-order centered stencils for the first, third and
fifth derivatives.  Boundary conditions are imposed by ghost-point
elimination: fictitious exterior values are expressed through a one-sided
degree-6 polynomial that interpolates the known boundary data (value, slope,
and, where prescribed, curvature) plus the nearest interior nodes.  The
curvature data enter as separate affine channels, so the operators stay
linear time-invariant and the delayed feedback becomes a boundary source
vector.
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
    """Dense n x n derivative operator plus the curvature-channel vectors.

    Returns (P, src_left, src_right): the discrete derivative of the unknown
    is P @ f + src_left * c_left + src_right * c_right with c the boundary
    second-derivative data (zero unless that side carries three conditions).
    """
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
                continue  # homogeneous Dirichlet value
            elif j < 0:
                w, gam = gl[-j]
                P[i - 1, :npl] += c * np.asarray(w)
                src_l[i - 1] += c * gam * 0.5 * h * h
            else:
                w, gam = gr[j - (n + 1)]
                P[i - 1, n - npr:] += c * np.asarray(w)[::-1]
                src_r[i - 1] += c * gam * 0.5 * h * h
    return P, src_l, src_r


@dataclass
class BandedOperator:
    """Banded derivative operator acting on interior node values.

    `bands` uses LAPACK band storage: bands[ku + i - j, j] = A[i, j].
    """

    n: int
    kl: int
    ku: int
    bands: np.ndarray
    bc_tag: str

    _csr: sp.csr_matrix | None = None

    @classmethod
    def from_dense(cls, dense: np.ndarray, bc_tag: str) -> "BandedOperator":
        n, ii, jj, vals, kl, ku = _band_entries(dense)
        bands = np.zeros((kl + ku + 1, n))
        bands[ku + ii - jj, jj] = vals
        return cls(n=n, kl=kl, ku=ku, bands=bands, bc_tag=bc_tag)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for r in range(self.bands.shape[0]):
            off = self.ku - r  # diagonal offset: j - i
            for j in range(self.n):
                i = j - off
                if 0 <= i < self.n:
                    out[i, j] = self.bands[r, j]
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self._csr is None:
            self._csr = sp.csr_matrix(self.to_dense())
        return self._csr @ np.asarray(v, dtype=float)

    __matmul__ = apply


@dataclass
class BoundaryClosure:
    """Feedback influence channels of the ghost elimination.

    The ghost values of omega near x = L are
        ghost_m = w_m . (omega_n, .., omega_{n-3}) + gamma_m * h^2/2 * s(t)
    (`ghost_weights(3, 4, -m)`) with s(t) = alpha*eta_xx(t, L)
    + beta*eta_xx(t - tau(t), L); the eta side carries the mirrored
    structure at x = 0 with datum c(t) = eta_xx(t, 0) (zero for the
    production system).  `omega_s_influence`/`eta_c_influence` are the
    columns through which unit boundary data enter the combined operator;
    the delayed trace therefore contributes the boundary source vector
    beta * omega_s_influence * z_delayed.
    """

    eta_c_influence: dict       # per derivative order and "total"
    omega_s_influence: dict
    trace_row: np.ndarray
    alpha: float
    beta: float

    def boundary_source(self, trace_now: float, trace_delayed: float) -> np.ndarray:
        """Inhomogeneous contribution of the feedback datum to d(eta)/dt rows."""
        s = self.alpha * trace_now + self.beta * trace_delayed
        return self.omega_s_influence["total"] * s


@dataclass
class OperatorSet:
    """All discrete spatial operators for one (params, grid) pair."""

    grid: Grid
    params: SystemParams
    # per-unknown banded derivative operators
    eta_d1: BandedOperator
    eta_d3: BandedOperator
    eta_d5: BandedOperator
    omega_d1: BandedOperator
    omega_d3: BandedOperator
    omega_d5: BandedOperator
    # combined P = D1 + a D3 + a1 D5 (dense, used for system assembly)
    eta_combined: np.ndarray
    omega_combined: np.ndarray
    closure: BoundaryClosure

    @property
    def trace_row(self) -> np.ndarray:
        return self.closure.trace_row


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


def trace_omega_xx_0(omega: np.ndarray, g: Grid) -> float:
    """Mirrored one-sided estimate of omega_xx at x = 0 (for diagnostics)."""
    omega = np.asarray(omega, dtype=float)
    return float(trace_weights(g.h)[::-1] @ omega[:3])


def build_operators(p: SystemParams, g: Grid) -> OperatorSet:
    """Assemble D1/D3/D5 for both unknowns plus the boundary closure.

    eta carries (value, slope, curvature) data at x=0 and (value, slope) at
    x=L; omega carries (value, slope) at x=0 and (value, slope, curvature
    = feedback) at x=L.
    """
    n, h = g.n, g.h
    eta_parts = {}
    omega_parts = {}
    eta_src = {}
    omega_src = {}
    for deriv in (1, 3, 5):
        P, sl, _ = _build_single(n, h, deriv, 3, 2)
        eta_parts[deriv] = P
        eta_src[deriv] = sl
        P, _, sr = _build_single(n, h, deriv, 2, 3)
        omega_parts[deriv] = P
        omega_src[deriv] = sr

    a, a1 = p.a, p.a1
    eta_total = eta_parts[1] + a * eta_parts[3] + a1 * eta_parts[5]
    omega_total = omega_parts[1] + a * omega_parts[3] + a1 * omega_parts[5]
    eta_src["total"] = eta_src[1] + a * eta_src[3] + a1 * eta_src[5]
    omega_src["total"] = omega_src[1] + a * omega_src[3] + a1 * omega_src[5]

    T = np.zeros(n)
    T[-3:] = trace_weights(h)

    closure = BoundaryClosure(
        eta_c_influence=eta_src,
        omega_s_influence=omega_src,
        trace_row=T,
        alpha=p.alpha,
        beta=p.beta,
    )

    def banded(parts, deriv, tag):
        return BandedOperator.from_dense(parts[deriv], tag)

    return OperatorSet(
        grid=g,
        params=p,
        eta_d1=banded(eta_parts, 1, "eta:d1"),
        eta_d3=banded(eta_parts, 3, "eta:d3"),
        eta_d5=banded(eta_parts, 5, "eta:d5"),
        omega_d1=banded(omega_parts, 1, "omega:d1"),
        omega_d3=banded(omega_parts, 3, "omega:d3"),
        omega_d5=banded(omega_parts, 5, "omega:d5"),
        eta_combined=eta_total,
        omega_combined=omega_total,
        closure=closure,
    )


def _band_entries(matrix):
    """Order, rows, columns and values of the nonzero entries of a square
    matrix (anything `sp.coo_matrix` accepts; explicit zeros dropped), and
    its lower and upper bandwidths."""
    m = sp.coo_matrix(matrix)
    m.sum_duplicates()
    m.eliminate_zeros()
    ii, jj = m.row, m.col
    kl = int(np.max(ii - jj, initial=0))
    ku = int(np.max(jj - ii, initial=0))
    return m.shape[0], ii, jj, m.data, kl, ku


class BandedLU:
    """Reusable banded LU factorization (LAPACK dgbtrf/dgbtrs) of a square
    matrix given dense or sparse."""

    def __init__(self, matrix):
        self.n, ii, jj, vals, self.kl, self.ku = _band_entries(matrix)
        ab = np.zeros((2 * self.kl + self.ku + 1, self.n), order="F")
        ab[self.kl + self.ku + ii - jj, jj] = vals
        lu, ipiv, info = lapack.dgbtrf(ab, self.kl, self.ku)
        if info != 0:
            raise NumericalError(f"banded LU factorization failed (info={info})")
        self._lu = lu
        self._ipiv = ipiv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgbtrs(self._lu, self.kl, self.ku, rhs, self._ipiv)
        if info != 0:
            raise NumericalError(f"banded solve failed (info={info})")
        return x


# ---------------------------------------------------------------------------
# generic second-order derivatives on padded node vectors (nonlinear terms)

def _fornberg(m: int, x0: float, xs: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes xs."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)
def _edge_weights(m: int, width: int, at: int = 0) -> np.ndarray:
    return _fornberg(m, float(at), np.arange(width, dtype=float))


def _padded_derivative(full: np.ndarray, h: float, m: int) -> np.ndarray:
    """m-th derivative of samples on the full grid (boundaries included),
    second order, centered inside and one-sided at the ends."""
    full = np.asarray(full, dtype=float)
    N = full.shape[0]
    out = np.empty_like(full)
    if m == 1:
        out[1:-1] = (full[2:] - full[:-2]) / (2 * h)
        width = 3
    elif m == 2:
        out[1:-1] = (full[2:] - 2 * full[1:-1] + full[:-2]) / h ** 2
        width = 4
    elif m == 3:
        out[2:-2] = (full[4:] - 2 * full[3:-1] + 2 * full[1:-3] - full[:-4]) / (2 * h ** 3)
        width = 6
    else:
        raise ConfigurationError(f"unsupported derivative order {m}")
    n_edge = 1 if m < 3 else 2
    for k in range(n_edge):
        wk = _edge_weights(m, width, k) / h ** m
        out[k] = wk @ full[:width]
        out[N - 1 - k] = (wk * (-1.0) ** m)[::-1] @ full[N - width:]
    return out


def padded(field_interior: np.ndarray, left: float = 0.0, right: float = 0.0) -> np.ndarray:
    """Interior node values extended with boundary values."""
    return np.concatenate([[left], np.asarray(field_interior, dtype=float), [right]])


def d1(full: np.ndarray, h: float) -> np.ndarray:
    return _padded_derivative(full, h, 1)


def d2(full: np.ndarray, h: float) -> np.ndarray:
    return _padded_derivative(full, h, 2)


def d3(full: np.ndarray, h: float) -> np.ndarray:
    return _padded_derivative(full, h, 3)
