#!/usr/bin/env python3
"""Check that the API names the docs cite still exist in the Rust sources.

Walks every tracked ``*.md`` file and finds each inline code span that is
a Rust path, such as ``HorizonProblem::build_full`` or
``dspp_solver::solve_structured()`` (a trailing ``()`` is allowed). Every
identifier of such a path must appear in the code of the tracked ``*.rs``
sources. Comments (``//`` to the end of the line, which covers ``///``
and ``//!`` docs, and ``/* … */``) are stripped first, so a leftover
comment cannot keep a removed name alive. Fenced code blocks are not
checked.

Skipped: the logs that name removed items on purpose (CHANGES.md,
CHANGELOG.md, ROADMAP.md), the imported reference material that
``check_markdown_links.py`` also skips, and everything under
``e2ebench/`` and ``vendor/``.

Exits nonzero with one line per path that names a missing identifier.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from check_markdown_links import SKIP_FILES as REFERENCE_FILES
from check_markdown_links import visible_lines

SKIP_FILES = {"CHANGES.md", "CHANGELOG.md", "ROADMAP.md"} | REFERENCE_FILES
SKIP_DIRS = ("e2ebench/", "vendor/")

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
PATH_RE = re.compile(rf"({IDENT}(?:::{IDENT})+)(?:\(\))?")
IDENT_RE = re.compile(IDENT)
# Comments, and the literals a comment marker may sit inside.
TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | r(?P<hashes>\#*)".*?"(?P=hashes)
    | b?"(?:\\.|[^"\\])*"
    | b?'(?:\\.|[^'\\\n])'
    """,
    re.S | re.X,
)


def tracked(root: Path, patterns: list[str]) -> list[str]:
    """Tracked (and not-yet-committed, unignored) files matching
    ``patterns``, relative to ``root``, that exist on disk."""
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", *patterns],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    return sorted({line for line in out.stdout.splitlines() if line and (root / line).is_file()})


def is_skipped(rel: str) -> bool:
    """Whether a markdown file is exempt from the check."""
    return Path(rel).name in SKIP_FILES or rel.startswith(SKIP_DIRS)


def strip_comments(source: str) -> str:
    """``source`` with its comments removed; string and character
    literals are kept whole, so a ``//`` inside one is not a comment."""
    return TOKEN_RE.sub(lambda m: "" if m.group("comment") else m.group(0), source)


def rust_identifiers(sources: list[str]) -> set[str]:
    """Every identifier in the code of ``sources``."""
    names: set[str] = set()
    for source in sources:
        names.update(IDENT_RE.findall(strip_comments(source)))
    return names


def code_spans(text: str) -> list[tuple[int, str]]:
    """``(line, content)`` of every inline code span outside fenced code
    blocks. A span closes at the next backtick run of the same length and
    does not cross a blank line."""
    lines = visible_lines(text)
    spans = []
    start = 0
    while start < len(lines):
        end = start
        while end < len(lines) and lines[end].strip():
            end += 1
        block = "\n".join(lines[start:end])
        i = 0
        while (i := block.find("`", i)) >= 0:
            run = len(block[i:]) - len(block[i:].lstrip("`"))
            close = re.compile(rf"(?<!`){'`' * run}(?!`)").search(block, i + run)
            if close is None:
                i += run
                continue
            line = start + 1 + block.count("\n", 0, i)
            spans.append((line, block[i + run : close.start()].strip()))
            i = close.end()
        start = end + 1
    return spans


def missing_names(markdown: dict[str, str], known: set[str]) -> tuple[int, list[str]]:
    """Checks every file of ``markdown`` (path → text) that is not
    skipped. Returns the number of paths checked and one line per path
    that names an identifier outside ``known``."""
    checked = 0
    errors = []
    for rel, text in sorted(markdown.items()):
        if is_skipped(rel):
            continue
        for line, span in code_spans(text):
            m = PATH_RE.fullmatch(span)
            if m is None:
                continue
            checked += 1
            absent = [name for name in m.group(1).split("::") if name not in known]
            if absent:
                errors.append(f"{rel}:{line}: `{span}` names {', '.join(absent)}, found in no Rust source")
    return checked, errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sources = [(root / rel).read_text(encoding="utf-8") for rel in tracked(root, ["*.rs"])]
    markdown = {rel: (root / rel).read_text(encoding="utf-8") for rel in tracked(root, ["*.md"])}
    checked, errors = missing_names(markdown, rust_identifiers(sources))
    for err in errors:
        print(err)
    print(f"checked {checked} Rust paths in markdown: {len(errors)} name a missing identifier")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
