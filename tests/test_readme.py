"""The Python example in the README runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    # the optimum stated in the example's comment
    assert "3306853" in capsys.readouterr().out.split()
