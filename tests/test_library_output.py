import ast
from pathlib import Path

import bousslab

PACKAGE = Path(bousslab.__file__).resolve().parent


def _writes_to_console(tree):
    """(line, what) of each print call, sys.stdout/sys.stderr use or import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield node.lineno, "print()"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "sys" and node.attr in ("stdout", "stderr")):
            yield node.lineno, f"sys.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            for alias in node.names:
                if alias.name in ("stdout", "stderr"):
                    yield node.lineno, f"from sys import {alias.name}"


def test_library_never_prints():
    # library code logs through `logging`; only the CLI writes to the console
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for line, what in _writes_to_console(ast.parse(path.read_text()))]
    assert found == []
    assert list(_writes_to_console(ast.parse((PACKAGE / "cli.py").read_text())))
