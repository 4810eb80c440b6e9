#!/usr/bin/env python
"""Count logical lines of Python: the repo's one code-size measure.

A logical line is a physical line that holds at least one token, not
counting comments and docstrings (blank lines hold none).  ROADMAP and
the CHANGES.md per-package tables quote these numbers.

Usage:
    python scripts/lloc.py PATH [PATH ...]     # files or directories

Each argument prints one total (directories are walked for ``*.py``);
with several arguments a grand total follows.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def lloc(source: str) -> int:
    """Logical lines in one module's source text."""
    held = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            held.update(range(token.start[0], token.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def count(path: pathlib.Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(lloc(file.read_text()) for file in files)


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    totals = [count(pathlib.Path(arg)) for arg in argv]
    for arg, total in zip(argv, totals):
        print(f"{total:7d}  {arg}")
    if len(totals) > 1:
        print(f"{sum(totals):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
