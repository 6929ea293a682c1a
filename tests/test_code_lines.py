"""The code-line counter in tools/code_lines.py, on a synthetic source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Nine code lines: the import, the def and the class lines, the call split
# over two lines, the string that is not a docstring (two lines), the return
# and the class attribute.
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves its line a code line


# a comment line
def f(x):
    """Function docstring."""
    y = math.hypot(x,
                   1.0)
    s = """a string
that is not a docstring"""
    return y, s


class C:
    """Class docstring."""

    z = 1
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# y = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "    10  total"]
