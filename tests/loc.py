#!/usr/bin/env python3
"""Non-test line count of the workspace crates — the figure CHANGES.md quotes.

Usage: tests/loc.py [REPO_ROOT]

Counts every `*.rs` file under `crates/*/src` (recursively), after
  * skipping each item annotated `#[cfg(test)]` — the attribute line up to
    the brace that closes the item's first `{`, or up to the `;` / `,`
    that ends a brace-less item (a `use`, a field) — and
  * dropping blank lines and lines whose first non-blank text is `//`.
Prints one line per crate and the total, which is the last line.
"""

import pathlib
import sys


def code_lines(text):
    """Lines of `text` outside `#[cfg(test)]` items, blank and `//` lines."""
    lines = text.splitlines()
    kept = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("#[cfg(test)]"):
            i = skip_item(lines, i)
            continue
        if stripped and not stripped.startswith("//"):
            kept += 1
        i += 1
    return kept


def skip_item(lines, start):
    """Index of the first line after the item whose attribute is at `start`."""
    depth = 0  # braces
    nest = 0  # parentheses, brackets and generics, which hide a `,`
    opened = False
    # Text after the attribute on its own line belongs to the item.
    text = lines[start].strip()[len("#[cfg(test)]"):]
    i = start
    while True:
        code = text.split("//", 1)[0]
        for k, ch in enumerate(code):
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return i + 1
            elif ch in "([<":
                nest += 1
            elif ch in ")]" or (ch == ">" and code[k - 1 : k] not in ("-", "=")):
                nest -= 1
            elif not opened and depth == 0 and (ch == ";" or (ch == "," and nest == 0)):
                return i + 1
        i += 1
        if i >= len(lines):
            return i
        text = lines[i]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    total = 0
    for crate in sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir()):
        n = sum(code_lines(f.read_text()) for f in sorted((crate / "src").rglob("*.rs")))
        print(f"{crate.name:12} {n:6}")
        total += n
    print(f"{'total':12} {total:6}")


if __name__ == "__main__":
    main()
