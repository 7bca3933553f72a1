import numpy as np
import pytest

import bousslab as bl
from bousslab.report import summary_text


def test_fit_decay_exact_exponential():
    t = np.arange(0.0, 3.0, 1e-2)
    E = 5.0 * np.exp(-0.7 * t)
    lam, r2 = bl.fit_decay(t, E)
    assert abs(lam - 0.7) < 1e-10
    assert r2 > 1.0 - 1e-12


def test_fit_decay_constant():
    t = np.linspace(0, 1, 50)
    lam, r2 = bl.fit_decay(t, np.full(50, 2.0))
    assert abs(lam) < 1e-12
    assert r2 == 1.0


def test_fit_decay_truncates_on_nonpositive():
    t = np.linspace(0, 1, 100)
    E = np.exp(-3 * t)
    E[-10:] = 0.0
    with pytest.warns(UserWarning):
        lam, _ = bl.fit_decay(t, E)
    assert abs(lam - 3.0) < 1e-8


def test_bound_check():
    t = np.linspace(0, 2, 40)
    E = np.exp(-1.0 * t)
    ok, ratio = bl.bound_check(t, E, lam=0.5, zeta=1.0)
    assert ok and ratio <= 1.0
    ok, ratio = bl.bound_check(t, E, lam=2.0, zeta=1.0)
    assert not ok and ratio > 1.0


def test_csv_roundtrip_columns():
    n = 4
    rep = bl.RunReport(t=np.linspace(0, 1, n), E=np.ones(n), V=np.ones(n),
                       V1=np.zeros(n), V2=np.zeros(n), trace_now=np.zeros(n),
                       trace_delayed=np.zeros(n), dissipation_rhs=np.zeros(n))
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,E,V,V1,V2,trace_now,trace_delayed"
    assert len(lines) == n + 1
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 0], rep.t)


def test_summary_contains_config_and_extras():
    rep = bl.RunReport(t=np.array([0.0]), E=np.array([1.0]), V=np.array([1.0]),
                       V1=np.array([0.0]), V2=np.array([0.0]),
                       trace_now=np.array([0.0]), trace_delayed=np.array([0.0]),
                       dissipation_rhs=np.array([0.0]),
                       config={"n": 10, "dt": 1e-3})
    text = summary_text(rep, {"lambda_obs": 1.5})
    assert "termination = completed" in text
    assert "n = 10" in text
    assert "lambda_obs = 1.5" in text
