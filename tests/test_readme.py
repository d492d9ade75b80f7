"""The README quick start runs as printed and prints what its comments say."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python code block under the Quick start heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start(capsys):
    code = quick_start()
    assert "# 31.1081..." in code
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the kite's Q radius, as the block's comment states
    assert round(float(lines[1]), 4) == 31.1081
