"""Count source lines of code per module and runtime dependencies.

A code line is a line that holds a token other than a comment, a line break,
an indentation change or the end marker, and that is not part of a docstring
(the string statement opening a module, class or function body).  Standard
library only (tomllib: Python 3.11 or later).

Usage: python3 tools/sloc.py [REPO_ROOT]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
import tomllib
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.NEWLINE, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src" / "martfock").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:<14}{count:>6}")
    print(f"{'total':<14}{total:>6}")
    with open(root / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle)["project"].get("dependencies", [])
    print(f"runtime dependencies: {len(deps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
