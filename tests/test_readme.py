"""The README's quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def documented_lines(code: str) -> list[str]:
    """The ``# ...`` comment of each ``print``, on its line or the next one,

    without a trailing ``  -- remark``.
    """
    lines = code.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        if "  # " in line:
            comment = line.split("  # ", 1)[1]
        else:
            assert lines[k + 1].startswith("# "), line
            comment = lines[k + 1][2:]
        expected.append(comment.split("  -- ", 1)[0])
    return expected


def test_readme_quick_tour_prints_its_comments():
    code = quick_tour()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    expected = documented_lines(code)
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected
