"""Count the code lines of the Python modules under a directory.

A code line is a line that holds a Python token other than a comment or
a line break, and is not part of a module, class or function docstring:
blank lines, comment lines and docstrings do not count. A token that
spans several lines (a multi-line string) counts on each of them.

    python tools/code_lines.py src/ynetr

prints one ``<lines>  <module>`` row per ``.py`` file, sorted by path,
and then the total. It uses the standard library alone.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python source file ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: code_lines.py <dir>")
    root = Path(argv[0])
    counts = {p.relative_to(root): code_lines(p) for p in sorted(root.rglob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
