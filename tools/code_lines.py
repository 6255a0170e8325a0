"""Count the code lines of each ``src/`` module: lines that are not blank,
not comment-only and not part of a docstring, the size ROADMAP aim 2
tracks.  Prints one ``count  path`` line per module, then the total code
lines beside the total of ``wc -l``:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them recursively;
by default the ``src/`` directory beside this script.  A docstring is the
string-literal statement that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment and are
    not inside a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(
                    range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths
            for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [Path(__file__).parent.parent / "src"]
    code = physical = 0
    for module in _modules(paths):
        source = module.read_text()
        n = code_lines(source)
        code += n
        physical += source.count("\n")
        print(f"{n:6d}  {module}")
    print(f"{code:6d}  code lines in total ({physical} lines by wc -l)")


if __name__ == "__main__":
    main(sys.argv[1:])
