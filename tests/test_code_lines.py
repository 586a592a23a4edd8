import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Plan:
    """Class docstring."""

    size = 3


def f(x):
    """Function docstring,

    with a blank line inside.
    """
    text = """a string that is
    not a docstring"""
    return (x +
            len(text))
'''


def test_counts_code_lines_only():
    # import, class, size, def, text (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"
