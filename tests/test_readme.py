"""The README's Python example runs as written, and its option list names
every option the code takes."""

import re
from pathlib import Path

from timinggames.config import OPTION_SCHEMAS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    # the optimum stated in the example's comment
    assert "3306853" in capsys.readouterr().out.split()


def command_bullets() -> dict:
    """Each command's bullet in the "Per-command options" list: the list runs
    from the heading to the first blank line."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Per-command options (`options`)\n\n", 1)[1].split("\n\n", 1)[0]
    return dict(re.findall(r"^\* `([a-z-]+)`: (.*?)(?=^\* |\Z)", section,
                           re.DOTALL | re.MULTILINE))


def test_option_list_names_every_option():
    bullets = command_bullets()
    assert list(bullets) == list(OPTION_SCHEMAS)
    for command, schema in OPTION_SCHEMAS.items():
        missing = [key for key in schema if f"`{key}`" not in bullets[command]]
        assert missing == [], command
    assert "record_level" not in bullets["simulate"]
