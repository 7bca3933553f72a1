import ast
from pathlib import Path

import numpy as np
import pytest

import bousslab
from bousslab import certificate, errors
from bousslab.mms import manufactured_pair
from bousslab.operators import BandedLU, band_storage, derivative_matrix

PACKAGE = Path(bousslab.__file__).resolve().parent


def _untyped_raises(tree):
    """(line, what) of each raise whose exception is not a BousslabError
    subclass named from `bousslab.errors`; a bare re-raise counts too, since
    the type of what it re-raises cannot be read from the source."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is None:
            yield node.lineno, "bare raise"
            continue
        name = (exc.id if isinstance(exc, ast.Name)
                else exc.attr if isinstance(exc, ast.Attribute) else ast.unparse(exc))
        cls = getattr(errors, name, None)
        if not (isinstance(cls, type) and issubclass(cls, errors.BousslabError)):
            yield node.lineno, f"raise {ast.unparse(node.exc)}"


def test_library_raises_only_bousslab_errors():
    # every failure ends in a typed BousslabError
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _untyped_raises(ast.parse(path.read_text()))]
    assert found == []


def test_untyped_raises_are_found():
    source = ("raise ValueError('x')\n"
              "raise errors.ConfigurationError('x')\n"
              "raise NumericalError\n"
              "try:\n    pass\nexcept Exception:\n    raise\n")
    assert [line for line, _ in _untyped_raises(ast.parse(source))] == [1, 7]


P_EX = bousslab.SystemParams(a=1.0, a1=1.0, L=1.0, alpha=2.0, beta=1.0)
D_EX = bousslab.DelaySpec(tau0=0.5, M=1.0, d=0.0)


@pytest.mark.parametrize("make, error, match", [
    pytest.param(lambda: bousslab.SystemParams(L=0.0), errors.ConfigurationError,
                 "domain length must be positive, got 0.0", id="L = 0"),
    pytest.param(lambda: bousslab.DelaySpec(form="cubic"), errors.ConfigurationError,
                 "unknown delay form 'cubic'", id="delay form"),
    pytest.param(lambda: manufactured_pair(P_EX, "cubic"), errors.ConfigurationError,
                 "unknown manufactured family 'cubic'", id="manufactured family"),
    pytest.param(lambda: derivative_matrix(4, 0.1, 3), errors.ConfigurationError,
                 "need at least 6 nodes, got 4", id="derivative on too few nodes"),
    pytest.param(lambda: BandedLU(*band_storage(np.array([[1.0, 2.0], [2.0, 4.0]]))),
                 errors.NumericalError, r"banded LU factorization failed \(info=2\)",
                 id="singular band"),
    pytest.param(lambda: certificate.gain_threshold(P_EX, bousslab.DelaySpec(d=1.0)),
                 errors.ConfigurationError, "slope bound d must be < 1, got 1.0", id="d = 1"),
    pytest.param(lambda: certificate.zeta_overshoot(P_EX, 2.0, 0.0), errors.ConfigurationError,
                 r"max\(mu1 L, mu2\) = 2.0 must be < 1", id="zeta at mu1 L = 2"),
    pytest.param(lambda: certificate.f_of_mu1(P_EX, -1.0), errors.ConfigurationError,
                 "mu1 must be >= 0, got -1.0", id="f at mu1 < 0"),
    pytest.param(lambda: certificate.choose_mu2(P_EX, D_EX, 1.0), errors.ConfigurationError,
                 "mu1 L = 1.0 must be < 1", id="mu2 at mu1 L = 1"),
])
def test_library_refusals_name_their_input(make, error, match):
    with pytest.raises(error, match=match):
        make()
