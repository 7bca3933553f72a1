import ast
from pathlib import Path

import bousslab
from bousslab import errors

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
