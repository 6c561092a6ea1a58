"""Print the line counts of the package under ``src/``: total, docstring, other.

A docstring line is any line spanned by the docstring of a module,
class or function, found with ``ast``. A comment line is a line whose
only token is a ``tokenize`` comment. The third figure counts the lines
that are neither docstring, blank nor whole-line comment. Run it from
the repository root::

    python tools/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_counts(source: str) -> tuple:
    """``(total, docstring, other)`` line counts of one Python source."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()
    }
    blank = {k for k, line in enumerate(lines, 1) if not line.strip()}
    other = len(lines) - len(docstring | comment | blank)
    return len(lines), len(docstring), other


def main(root: Path) -> None:
    totals = [0, 0, 0]
    for path in sorted(root.rglob("*.py")):
        for k, count in enumerate(line_counts(path.read_text(encoding="utf-8"))):
            totals[k] += count
    total, docstring, other = totals
    print(f"{root}: {total} lines, {docstring} docstring, {other} neither docstring, blank nor comment")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "src"))
