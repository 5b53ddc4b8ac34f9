"""The size of each module of the library: lines, code lines and bytes.

A code line holds a token of code.  Blank lines, comments and docstrings (the leading string of a module, class or
function) hold none, and a string spanning several lines is code on each of them.  Refilling a docstring or a comment
changes the lines and the bytes of a module, never its code lines, so a size claim is made in code lines.

    python tests/src_size.py [DIR]

prints one row per module of DIR (src/qdisk by default), then their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qdisk"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
            tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code outside every docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def sizes(root: Path = SRC) -> list:
    """(name, lines, code lines, bytes) of each module under root, by name."""
    out = []
    for path in sorted(root.glob("*.py")):
        data = path.read_bytes()
        text = data.decode()
        out.append((path.name, len(text.splitlines()), code_lines(text), len(data)))
    return out


def main(argv: list) -> int:
    rows = sizes(Path(argv[0]) if argv else SRC)
    rows.append(("total", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'bytes':>9}")
    for name, lines, code, size in rows:
        print(f"{name:<14}{lines:>7}{code:>7}{size:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
