import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_array

import bousslab as bl
from bousslab.errors import NumericalError
from bousslab.operators import BandedLU

# property tests draw the same examples on every run, so reruns are identical
settings.register_profile("bousslab", derandomize=True, deadline=None)
settings.load_profile("bousslab")

# acceptance-run configuration: fundamental mode time-resolved at dt=1e-3,
# L inside the certification bound, admissible gains, decay ~2.15/s
ACC = dict(a=0.1, a1=0.0065, L=1.0, alpha=0.05, beta=5e-4)
ACC_DELAY = dict(tau0=0.5, M=2.0, d=0.0)


def dense_from_band(ab, kl, ku):
    """The square matrix of the band storage (ab, kl, ku) of
    `operators.band_storage`, entry (i, j) at ab[kl + ku + i - j, j]; the
    diagonals D of `operators._banded` are (D, 0, w).  Slots outside the
    matrix are not read."""
    m = ab.shape[1]
    A = np.zeros((m, m), dtype=ab.dtype)
    for r in range(kl, ab.shape[0]):
        off = r - kl - ku   # i - j
        j = np.arange(max(0, -off), min(m, m - off))
        A[j + off, j] = ab[r, j]
    return A


def scipy_csr(M):
    """M, the CSR arrays of `operators.CSR` (a stepper's `_G` or `_C`), as a
    scipy CSR array on the same arrays: for `@`, `.toarray()` and
    `has_canonical_format`."""
    return csr_array((M.data, M.indices, M.indptr), shape=M.shape)


def failing_solve(monkeypatch, after):
    """Make every banded solve after the first `after` raise NumericalError."""
    real = BandedLU.solve
    calls = [0]

    def solve(self, rhs):
        calls[0] += 1
        if calls[0] > after:
            raise NumericalError("injected banded solve failure")
        return real(self, rhs)

    monkeypatch.setattr(BandedLU, "solve", solve)


@pytest.fixture(scope="session")
def acc_params():
    return bl.SystemParams(**ACC)


@pytest.fixture(scope="session")
def acc_delay():
    return bl.DelaySpec(**ACC_DELAY)


@pytest.fixture(scope="session")
def acc_cert(acc_params, acc_delay):
    return bl.build_certificate(acc_params, acc_delay)


def modal_run(p, dly, n, dt, T, mu1=0.0, mu2=0.0, store_fields=False):
    grid = bl.Grid(n=n, L=p.L)
    ops = bl.build_operators(p, grid)
    state, lam = bl.slow_mode_state(ops, p, dly, dt=dt)
    cfg = bl.StepConfig(dt=dt, theta=bl.suggested_theta(dt))
    rep = bl.run(state, T, cfg, p, dly, ops, mu1=mu1, mu2=mu2,
                 store_fields=store_fields)
    return rep, lam


@pytest.fixture(scope="session")
def acc_runs(acc_params, acc_delay, acc_cert):
    """The criterion 4-6 run pair: n=200/dt=1e-3 and one dyadic refinement."""
    coarse, lam_c = modal_run(acc_params, acc_delay, 200, 1e-3, 5.0,
                              mu1=acc_cert.mu1, mu2=acc_cert.mu2)
    fine, lam_f = modal_run(acc_params, acc_delay, 401, 5e-4, 5.0,
                            mu1=acc_cert.mu1, mu2=acc_cert.mu2)
    return {"coarse": coarse, "fine": fine, "lam_coarse": lam_c,
            "lam_fine": lam_f}


@pytest.fixture(scope="session")
def kato_runs(acc_params, acc_delay):
    """Three refinement levels with stored fields for the multiplier identity."""
    out = []
    for n, dt in ((100, 2e-3), (201, 1e-3), (403, 5e-4)):
        rep, _ = modal_run(acc_params, acc_delay, n, dt, 1.5, store_fields=True)
        out.append((n, rep))
    return out
