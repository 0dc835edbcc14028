#!/usr/bin/env python3
"""Intra-repo markdown link checker.

Walks every tracked ``*.md`` file and verifies each inline link
``[text](target)``:

* relative-path targets must exist on disk (checked from the linking
  file's directory, with any ``#fragment`` stripped);
* ``#fragment`` anchors — same-file or into another markdown file —
  must match a heading in the target, using GitHub's slugification
  (lowercase, punctuation dropped, spaces to hyphens, ``-N`` suffixes
  for duplicates);
* absolute URLs (``http(s)://``, ``mailto:``) are skipped: CI must not
  depend on the network.

Links and headings inside fenced code blocks are ignored. Exits nonzero
with one line per broken link.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

# Imported reference material (paper abstracts, retrieved related work,
# exemplar snippets) is not maintained documentation — it may carry
# dangling figure references from the extraction pipeline.
SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def tracked_markdown(root: Path) -> list[Path]:
    out = subprocess.run(
        # --others --exclude-standard folds in not-yet-committed docs so
        # the gate also works pre-commit.
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.md", "**/*.md"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    )
    # A tracked file deleted from the working tree (not yet staged) has
    # nothing to check; links to it still fail as broken paths.
    return sorted(
        {
            root / line
            for line in out.stdout.splitlines()
            if line and Path(line).name not in SKIP_FILES and (root / line).is_file()
        }
    )


def visible_lines(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def github_slug(heading: str, seen: dict[str, int]) -> str:
    # Strip inline-code backticks and links before slugifying, as GitHub
    # renders the heading first.
    heading = heading.replace("`", "")
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    slug = slug.replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def anchors_of(path: Path, cache: dict[Path, set[str]]) -> set[str]:
    if path not in cache:
        seen: dict[str, int] = {}
        slugs = set()
        for line in visible_lines(path.read_text(encoding="utf-8")):
            m = HEADING_RE.match(line)
            if m:
                slugs.add(github_slug(m.group(1), seen))
        cache[path] = slugs
    return cache[path]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    anchor_cache: dict[Path, set[str]] = {}
    errors = []
    files = tracked_markdown(root)
    checked = 0
    for md in files:
        lines = visible_lines(md.read_text(encoding="utf-8"))
        for lineno, line in enumerate(lines, start=1):
            for m in LINK_RE.finditer(line):
                target = m.group(1)
                if target.startswith(EXTERNAL_PREFIXES):
                    continue
                checked += 1
                path_part, _, fragment = target.partition("#")
                if path_part:
                    dest = (md.parent / path_part).resolve()
                    if not dest.exists():
                        errors.append(
                            f"{md.relative_to(root)}:{lineno}: broken path {target!r}"
                        )
                        continue
                else:
                    dest = md
                if fragment and dest.suffix == ".md":
                    if fragment not in anchors_of(dest, anchor_cache):
                        errors.append(
                            f"{md.relative_to(root)}:{lineno}: no anchor "
                            f"#{fragment} in {dest.relative_to(root)}"
                        )
    for err in errors:
        print(err)
    print(
        f"checked {checked} intra-repo links across {len(files)} markdown "
        f"files: {len(errors)} broken"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
