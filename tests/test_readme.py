"""The README's Python examples print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_print_what_their_comments_say():
    # the quick start said 17 while its window gave 18, a near miss
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        expected = re.findall(r"^print\(.*\)\s*#\s*(.*)$", code, re.M)
        assert expected, "each example states what it prints"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
