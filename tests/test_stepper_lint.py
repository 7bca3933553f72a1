import ast
from pathlib import Path

from bousslab import stepping

SOURCE = Path(stepping.__file__).read_text()


def _attribute_writes(tree, cls="Stepper"):
    """(method, line, target) of each assignment, augmented or annotated
    assignment to an attribute of self (or into one, as self.x[k] = v) in a
    method of class `cls` other than __init__."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            this = method.args.args[0].arg if method.args.args else None
            for sub in ast.walk(method):
                targets = (sub.targets if isinstance(sub, ast.Assign) else
                           [sub.target] if isinstance(sub, (ast.AugAssign, ast.AnnAssign))
                           else [])
                for target in targets:
                    for t in ast.walk(target):
                        if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                and t.value.id == this):
                            yield method.name, sub.lineno, ast.unparse(t)


def test_stepper_holds_only_what_its_constructor_builds():
    # a step's result depends on its inputs alone: no Stepper method but
    # __init__ assigns to the stepper
    assert list(_attribute_writes(ast.parse(SOURCE))) == []


def test_attribute_writes_are_found():
    source = ("class Stepper:\n"
              "    def __init__(self):\n"
              "        self.a = 0\n"
              "    def f(self, x):\n"
              "        self.a, y = 1, 2\n"
              "        self.b += 1\n"
              "        self.c[0] = x\n"
              "        x.d = 1\n"
              "        self.e: int = 3\n"
              "        y = self.a\n"
              "class Other:\n"
              "    def g(self):\n"
              "        self.a = 1\n")
    found = list(_attribute_writes(ast.parse(source)))
    assert [(name, line) for name, line, _ in found] == [("f", 5), ("f", 6), ("f", 7), ("f", 9)]
    assert [target for *_, target in found] == ["self.a", "self.b", "self.c", "self.e"]
