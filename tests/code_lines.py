"""Count the code lines of each ``src/finspace/*.py`` and their total.

A code line is a line that holds a token other than a comment or a
docstring.  A docstring is a string literal that is a whole statement: the
first string of a module, class or function body, or any other bare string
statement.  Blank lines, comment-only lines and docstring lines are not
counted.  Standard library only; pytest does not collect this file.

Run from the repository root::

    python3 tests/code_lines.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "finspace"
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of code lines of the Python file at ``path``."""
    with tokenize.open(path) as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type != tokenize.COMMENT]
    lines: set[int] = set()
    statement_start = True  # the next token begins a statement
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type != tokenize.NL
            continue
        after = tokens[k + 1].type if k + 1 < len(tokens) else tokenize.ENDMARKER
        bare_string = tok.type == tokenize.STRING and statement_start and after in _LAYOUT
        if not bare_string:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
