import ast

from test_library_errors import PACKAGE

# sparse and dense factorizations that would bypass `operators.BandedLU`, and
# ARPACK, whose shift-invert mode factors its shifted matrix with SuperLU
FORBIDDEN = {"splu", "spilu", "spsolve", "factorized", "lu_factor", "solve_banded",
             "eigs"}


def _other_factorizations(tree):
    """(line, what) of each use of a FORBIDDEN name (as a name, an
    attribute or an import)."""
    for node in ast.walk(tree):
        names = ([a.name.rsplit(".", 1)[-1] for a in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 else [node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        yield from ((node.lineno, name) for name in names if name in FORBIDDEN)


def test_banded_lu_is_the_only_factorization():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _other_factorizations(ast.parse(path.read_text()))]
    assert found == []


def test_other_factorizations_are_found():
    source = ("from scipy.sparse.linalg import splu, eigs\n"
              "import scipy.linalg.lu_factor\n"
              "x = spla.spsolve(A, b)\n"
              "f = factorized\n"
              "ev = eigs(A, k=2, sigma=0.0)\n"
              "ev = spla.eigs(A, 2, sigma=0.0, OPinv=op)\n"
              "ev = eigs(A, k=2, OPinv=op)\n")
    assert sorted(_other_factorizations(ast.parse(source))) == [
        (1, "eigs"), (1, "splu"), (2, "lu_factor"), (3, "spsolve"), (4, "factorized"),
        (5, "eigs"), (6, "eigs"), (7, "eigs")]
