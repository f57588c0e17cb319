"""Print each module's lines and code lines under ``src/periodicwalk``, then the totals:

    python tests/code_lines.py

A code line holds at least one token that is not a comment.  Blank lines,
comment lines and the docstrings of modules, classes and functions are left
out; a line that a multi-line expression or a string other than a docstring
spans counts where it holds a token.  These are the counts the ROADMAP
quotes for the source's size.  The script reads the sources and writes no
file; it always exits 0.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "periodicwalk"

#: Tokens that mark layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and not (token.type == tokenize.STRING and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(directory: Path = SOURCE) -> tuple[int, int]:
    """Print one line per module, sorted by name, then the totals, and return the totals."""
    total_lines = total_code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(directory.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:>6} {code:>6}  {path.name}")
    print(f"{total_lines:>6} {total_code:>6}  total")
    return total_lines, total_code


if __name__ == "__main__":
    main()
