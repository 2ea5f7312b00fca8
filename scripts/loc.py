"""Count code lines and docstring lines of Python files.

Usage::

    python scripts/loc.py [PATH ...]

PATH is a file or a directory (searched for ``*.py``); the default is
``src/ffm``.  Prints one line per file and a total::

    <code lines>  <docstring lines>  <path>

A code line holds at least one token that is not a comment and not part
of a docstring; a docstring line is a line of a module, class or
function docstring (found with ``ast``).  Blank lines and comment-only
lines count as neither.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one file."""
    source = path.read_text()
    docs = docstring_lines(source)
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/ffm"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total_code = total_docs = 0
    for path in files:
        code, docs = count(path)
        total_code += code
        total_docs += docs
        print(f"{code:6d}  {docs:6d}  {path}")
    print(f"{total_code:6d}  {total_docs:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
