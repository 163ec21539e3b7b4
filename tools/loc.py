"""Count the code lines of each module of the ``osicsim`` package.

A code line is a source line that holds a token of code: blank lines,
comment-only lines and the lines of module, class and function docstrings
do not count. Every change reports its code size by this rule.

Usage, from the repository root:

    python3 tools/loc.py [DIR]
    python3 tools/loc.py OLD_DIR NEW_DIR

``DIR`` defaults to ``src/osicsim``. Prints one ``module lines`` row per
``*.py`` file and the total. Given two directories, say a ``git archive``
of the parent commit's package and ``src/osicsim``, it prints one
``module old new`` row per file of either, with ``-`` for a file that one
of them lacks, and the two totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code other than a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: python3 tools/loc.py [DIR] | OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    counts = [
        {path.stem: code_lines(path.read_text()) for path in sorted(Path(root).glob("*.py"))}
        for root in argv or ["src/osicsim"]
    ]
    for module in sorted(set().union(*counts)):
        print(f"{module:12s}" + "".join(f" {c.get(module, '-'):>5}" for c in counts))
    print(f"{'total':12s}" + "".join(f" {sum(c.values()):5d}" for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
