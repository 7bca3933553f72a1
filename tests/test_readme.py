import re
from pathlib import Path

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
