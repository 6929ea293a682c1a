"""Count the code lines of Python sources: lines that hold a token other than
a comment, and no part of a docstring.  Blank lines, comment lines and the
docstrings of modules, classes and functions are not counted; a statement
split over several lines counts each line, and so does a string that is not
a docstring.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory, whose ``*.py`` files are counted (not
recursively); the default is ``src/sl2prop``.  Prints one line per file,
largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path("src/sl2prop")]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    counts = {f: code_lines(f.read_text(encoding="utf-8")) for f in files}
    for f, n in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{n:6d}  {f}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
