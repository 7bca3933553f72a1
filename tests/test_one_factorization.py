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


# the functions that form their system matrices from `OperatorSet.A_band`
# (`OperatorSet.shifted_lu`), with no scipy.sparse expression per factorization
BAND_ONLY = {"Stepper.__init__", "slow_mode_state"}


def _root_name(node):
    """"sp" of sp.linalg.splu, None of f(x).g"""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _sparse_calls(tree, prefix=""):
    """(function, line) of each call of an `sp.` name inside a BAND_ONLY
    function (nested functions included), the function named as
    Class.method or name."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _sparse_calls(node, prefix)
            continue
        name = prefix + node.name
        if name not in BAND_ONLY:
            yield from _sparse_calls(node, name + ".")
            continue
        yield from ((name, call.lineno) for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _root_name(call.func) == "sp")


def test_shifted_systems_are_formed_without_scipy_sparse():
    tree = ast.parse((PACKAGE / "stepping.py").read_text())
    defined = {f"{c.name}.{f.name}" for c in tree.body if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    defined |= {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert BAND_ONLY <= defined
    assert list(_sparse_calls(tree)) == []


def test_sparse_calls_are_found():
    source = ("class Stepper:\n"
              "    def __init__(self, ops):\n"
              "        lu = BandedLU(sp.identity(4) - ops.A)\n"
              "    def step(self):\n"
              "        return sp.identity(4)\n"
              "def slow_mode_state(ops, lam):\n"
              "    def shifted():\n"
              "        return sp.csr_matrix(ops.A).multiply(lam)\n"
              "    x = abs(ops.A).sum()\n"
              "    return sp.linalg.splu(lam * sp.eye(4) - ops.A)\n"
              "def nonlinear_matrices(n):\n"
              "    return sp.bmat([[None]])\n")
    assert sorted(_sparse_calls(ast.parse(source))) == [
        ("Stepper.__init__", 3), ("slow_mode_state", 8), ("slow_mode_state", 10),
        ("slow_mode_state", 10)]


def _sparse_imports(tree):
    """(line, module) of each import of scipy.sparse or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = ([f"scipy.{alias.name}" for alias in node.names]
                       if node.module == "scipy" else [node.module])
        else:
            continue
        yield from ((node.lineno, m) for m in modules
                    if m == "scipy.sparse" or m.startswith("scipy.sparse."))


def test_only_operators_imports_scipy_sparse():
    # one sparse module: the nonlinear maps, the CSR kernel and `band_storage`
    # live in `operators`, which imports scipy.sparse only where they need it
    found = [f"{path.name}:{line}: {module}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "operators.py"
             for line, module in _sparse_imports(ast.parse(path.read_text()))]
    assert found == []
    assert list(_sparse_imports(ast.parse((PACKAGE / "operators.py").read_text())))


def test_sparse_imports_are_found():
    source = ("import scipy.sparse\n"
              "import numpy, scipy.sparse as sp\n"
              "from scipy.sparse import csr_matrix\n"
              "from scipy.sparse._sparsetools import csr_matvec\n"
              "from scipy import linalg, sparse\n"
              "if TYPE_CHECKING:\n    import scipy.sparse.linalg\n"
              "def f():\n    from scipy import sparse as s\n"
              "import scipy.sparsetools\n"
              "from scipy.linalg import lapack\n"
              "from .sparse import x\n")
    assert sorted(_sparse_imports(ast.parse(source))) == [
        (1, "scipy.sparse"), (2, "scipy.sparse"), (3, "scipy.sparse"),
        (4, "scipy.sparse._sparsetools"), (5, "scipy.sparse"), (7, "scipy.sparse.linalg"),
        (9, "scipy.sparse")]
