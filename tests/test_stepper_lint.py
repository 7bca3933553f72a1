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


STATE_FIELDS = {"t", "u", "history"}


def _written(target):
    """The attributes an assignment target writes, or writes into (x.u[k])."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _written(target.value)
    elif isinstance(target, ast.Attribute):
        yield target


def _state_writes(tree):
    """(line, target) of each assignment, augmented or annotated assignment
    or for-loop target that writes the .t, .u or .history of an object, or
    into one, outside `SimState.__init__`."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "SimState"
              for init in cls.body
              if isinstance(init, ast.FunctionDef) and init.name == "__init__"
              for node in ast.walk(init)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For))
                   else [])
        for target in targets:
            for attr in _written(target):
                if attr.attr in STATE_FIELDS:
                    yield node.lineno, ast.unparse(attr)


def test_only_the_constructor_writes_a_state():
    # a state is made once, by `SimState(t, eta, omega, history)`, and no
    # code in the package moves its time, fields or line afterwards
    found = [f"{path.name}:{line}: {target}"
             for path in sorted(Path(stepping.__file__).parent.glob("*.py"))
             for line, target in _state_writes(ast.parse(path.read_text()))]
    assert found == []


def test_state_writes_are_found():
    source = ("class SimState:\n"
              "    def __init__(self, t):\n"
              "        self.t, self.u, self.history = t, 0, None\n"
              "    def move(self):\n"
              "        self.t = 1\n"
              "def f(state, x):\n"
              "    state.t, state.u, y = 0, x, 1\n"
              "    state.history = None\n"
              "    state.u[0::2] = x\n"
              "    state.u += x\n"
              "    x.tt = state.t\n"
              "    y = state.u\n"
              "    x[state.t] = 1\n"
              "    for state.t in x:\n"
              "        pass\n"
              "class Other:\n"
              "    def __init__(self):\n"
              "        self.history: list = []\n")
    found = sorted(_state_writes(ast.parse(source)))
    assert [line for line, _ in found] == [5, 7, 7, 8, 9, 10, 14, 18]
    assert [target for _, target in found] == [
        "self.t", "state.t", "state.u", "state.history", "state.u", "state.u", "state.t",
        "self.history"]
