import importlib
import pkgutil
import re
from pathlib import Path

import bousslab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the documented API fails here when it drifts from the code
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, f"{README}:Library", "exec"), ns)
    rep = ns["rep"]
    assert rep.termination == "completed"
    assert rep.t.shape == rep.E.shape == (rep.n_rows,)
    assert ns["ok"]


def test_readme_names_only_class_members_that_exist():
    # every backticked `Class.member` in the README is an attribute of a
    # class of that name in bousslab, and every bare backticked private
    # `_name` a name in a bousslab module or an attribute of one of its classes
    classes, names = {}, set()
    for module in pkgutil.iter_modules(bousslab.__path__):
        namespace = vars(importlib.import_module(f"bousslab.{module.name}"))
        classes.update((k, v) for k, v in namespace.items() if isinstance(v, type))
        names.update(namespace)
    text = README.read_text()
    named = set(re.findall(r"`([A-Z]\w*)\.(\w+)`", text))
    private = set(re.findall(r"`(_\w+)`", text))
    assert named and private
    missing = sorted(f"{c}.{m}" for c, m in named if not hasattr(classes.get(c), m))
    missing += sorted(m for m in private
                      if m not in names and not any(hasattr(c, m) for c in classes.values()))
    assert not missing, missing
