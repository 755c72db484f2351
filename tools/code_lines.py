"""Count the code lines of a package: the lines that hold a token other
than a comment or a docstring.  Blank lines hold none.

    python tools/code_lines.py [directory]     # default: src/aschur

prints each module's count and the total.  A docstring is a string that
stands alone as a statement.
"""
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.STRING and prev.type in LAYOUT and nxt.type == tokenize.NEWLINE:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/aschur")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
