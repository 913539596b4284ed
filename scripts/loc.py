#!/usr/bin/env python3
"""Count non-blank, non-comment OCaml lines under some directories.

Usage: loc.py DIR [DIR ...]

Walks each DIR for .ml and .mli files and prints one line per DIR with its
count, then the total.  A line counts when anything other than whitespace
is left on it once comments are removed.  The lexer follows OCaml's:
comments nest, a string inside a comment is still a string (so "*)" in it
does not close the comment), quoted strings {id|...|id} are strings, and a
character literal such as '"' does not open a string, while a type
variable such as 'a is not a character literal.

Only the Python standard library is used.
"""

import os
import re
import sys

# an OCaml character literal starting at a quote: 'x', '\n', '\'', '\\',
# '\123', '\xff', '\o777'
CHAR_LIT = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")


def code_lines(text):
    """Return the set of 0-based line numbers that hold code."""
    lines = set()
    line = 0
    depth = 0  # comment nesting
    i = 0
    n = len(text)

    def mark():
        if depth == 0:
            lines.add(line)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            # a string literal, in code or inside a comment
            mark()
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    if i + 1 < n and text[i + 1] == "\n":
                        line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    line += 1
                elif not text[i].isspace():
                    mark()
                i += 1
            i += 1
            continue
        if c == "{":
            m = QUOTED_OPEN.match(text, i)
            if m:
                close = "|" + m.group(1) + "}"
                end = text.find(close, m.end())
                end = n if end < 0 else end + len(close)
                for j in range(i, end):
                    if text[j] == "\n":
                        line += 1
                    elif not text[j].isspace():
                        mark()
                i = end
                continue
        if c == "'":
            m = CHAR_LIT.match(text, i)
            if m:
                mark()
                i = m.end()
                continue
        if not c.isspace():
            mark()
        i += 1
    return lines


def count_file(path):
    with open(path, encoding="utf-8") as f:
        return len(code_lines(f.read()))


def count_dir(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        for name in sorted(filenames):
            if name.endswith((".ml", ".mli")):
                total += count_file(os.path.join(dirpath, name))
    return total


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    total = 0
    for root in argv[1:]:
        if not os.path.isdir(root):
            print(f"loc.py: not a directory: {root}", file=sys.stderr)
            return 2
        k = count_dir(root)
        total += k
        print(f"{k:>8,}  {root}")
    print(f"{total:>8,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
