"""Print each ``src/stftpr`` module's total and code line counts, and their sums.

A code line is any line that is not blank, not a comment alone and not part
of a docstring (the leading string of a module, class or function body)::

    python tools/src_lines.py            # this checkout's src/stftpr
    python tools/src_lines.py ../parent  # another checkout's

The columns are the module, its total lines and its code lines; the last row
sums them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    totals = [0, 0]
    for path in sorted((root / "src" / "stftpr").glob("*.py")):
        lines = count(path.read_text())
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{path.name:<16} {lines[0]:>6} {lines[1]:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
