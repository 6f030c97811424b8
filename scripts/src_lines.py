#!/usr/bin/env python3
"""Line counts of each ``src/salcheck`` module, split by kind.

Prints, per module and in total, its lines and how many of them are code,
docstring, comment and blank lines.  Each line is counted once: a blank line
is blank wherever it is; a docstring line is any other line of a module,
class or function docstring, found with ``ast``; a comment line is any other
line whose first non-blank character is ``#``; every other line is code.

    python3 scripts/src_lines.py
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "salcheck"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """``{"total": n, "code": n, "docstring": n, "comment": n, "blank": n}`` for ``path``."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("total", *KINDS), 0)
    for n, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("blank" if not stripped else "docstring" if n in docs
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> int:
    rows = {path.name: count(path) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {k: sum(row[k] for row in rows.values()) for k in ("total", *KINDS)}
    print(f"{'module':<14}" + "".join(f"{k:>11}" for k in ("total", *KINDS)))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[k]:>11}" for k in ("total", *KINDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
