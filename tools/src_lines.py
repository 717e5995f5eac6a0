"""Count the lines of a Python source tree by kind: code, docstring,
comment and blank.

A line is read from the tokens of its file (``tokenize``):
- docstring: it lies in a string token that opens a logical line, blank
  lines inside that string included;
- comment: it holds a comment and no other token;
- blank: it holds no token;
- code: every other line.

Usage: python tools/src_lines.py [DIR ...]   (default: src)
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code of their own
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_file(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one file."""
    text = path.read_text(encoding="utf-8")
    kind: dict[int, str] = {}
    opens_line = True
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and opens_line:
            kind.update(dict.fromkeys(rows, "docstring"))
        elif tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        elif tok.type not in LAYOUT:
            kind.update({row: "code" for row in rows if kind.get(row) != "docstring"})
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            opens_line = tok.type in LAYOUT
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, len(text.splitlines()) + 1):
        counts[kind.get(row, "blank")] += 1
    return counts


def main(argv: list[str]) -> int:
    totals = dict.fromkeys(KINDS, 0)
    for root in argv or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            for k, v in count_file(path).items():
                totals[k] += v
    parts = " / ".join("%d %s" % (totals[k], k) for k in KINDS)
    print("%d lines = %s" % (sum(totals.values()), parts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
