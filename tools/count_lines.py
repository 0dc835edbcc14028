#!/usr/bin/env python3
"""Non-test line counter for the workspace crates.

Counts every line of ``crates/*/src/**/*.rs`` that lies outside a
``#[cfg(test)]`` item. An item is

* the ``#[cfg(test)]`` attribute itself,
* the doc comments (``///``) and attributes directly above it,
* the item below it, up to its closing brace or its ``;``.

Everything else counts, blank lines and plain ``//`` comments included,
wherever it sits in the file: production code after a test-only method
or after ``#[cfg(test)] mod oracle;`` counts like any other line. A
module declared out of line under ``#[cfg(test)]`` (``mod oracle;``) is
test code as a whole: its file ``oracle.rs`` or ``oracle/mod.rs`` and
every file below ``oracle/`` count zero.

Prints one line per production crate, the production total (every crate
except ``dspp-oracle``, the test-only home of the dense oracles), and
``dspp-oracle`` on its own line.

Usage::

    python3 tools/count_lines.py [ROOT]

``ROOT`` defaults to the repository this script lives in; pass another
checkout (a clone of the parent commit, say) to count it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ORACLE = "dspp-oracle"
CFG_TEST = "#[cfg(test)]"
NAME_RE = re.compile(r'^\s*name\s*=\s*"([^"]+)"', re.MULTILINE)
RAW_STRING_RE = re.compile(r'b?r(#*)"')
MOD_DECL_RE = re.compile(r"\s*(?:#\[[^\]]*\]\s*)*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")
OPENERS = "([{"
CLOSERS = ")]}"


def skip_literal(text: str, i: int) -> int:
    """If a comment, string or char literal starts at ``i``, return the
    index just past it; otherwise return ``i``."""
    c = text[i]
    nxt = text[i + 1] if i + 1 < len(text) else ""
    if c == "/" and nxt == "/":
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if c == "/" and nxt == "*":
        depth, j = 1, i + 2
        while j < len(text) and depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    raw = RAW_STRING_RE.match(text, i) if c in "br" else None
    if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
        close = '"' + raw.group(1)
        end = text.find(close, i + raw.end())
        return len(text) if end < 0 else end + len(close)
    if c == '"':
        j = i + 1
        while j < len(text) and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if c == "'":
        # A char literal ('x', '\n', '\''); otherwise a lifetime.
        if nxt == "\\":
            end = text.find("'", i + 3)
            return len(text) if end < 0 else end + 1
        if i + 2 < len(text) and text[i + 2] == "'":
            return i + 3
    return i


def item_end(text: str, start: int) -> int:
    """Index of the character that closes the item starting at ``start``:
    its ``;`` or the ``}`` that closes its body, both at bracket depth 0."""
    depth, i = 0, start
    while i < len(text):
        j = skip_literal(text, i)
        if j != i:
            i = j
            continue
        c = text[i]
        if c in OPENERS:
            depth += 1
        elif c in CLOSERS:
            depth -= 1
            if depth < 0:
                return i - 1
            if depth == 0 and c == "}":
                return i
        elif depth == 0 and c == ";":
            return i
        i += 1
    return len(text) - 1


def count_file(path: Path) -> tuple[int, list[str]]:
    """Lines of ``path`` outside ``#[cfg(test)]`` items, and the names of
    the modules it declares out of line under ``#[cfg(test)]``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))
    test = [False] * len(lines)
    test_mods = []
    i = 0
    while i < len(lines):
        if not lines[i].lstrip().startswith(CFG_TEST):
            i += 1
            continue
        first = i
        while first > 0 and lines[first - 1].lstrip().startswith(("///", "#[")):
            first -= 1
        body = offsets[i] + lines[i].index(CFG_TEST) + len(CFG_TEST)
        end = item_end(text, body)
        declared = MOD_DECL_RE.fullmatch(text, body, end + 1)
        if declared:
            test_mods.append(declared.group(1))
        last = i
        while last + 1 < len(lines) and offsets[last + 1] <= end:
            last += 1
        for k in range(first, last + 1):
            test[k] = True
        i = last + 1
    return test.count(False), test_mods


def module_dir(path: Path) -> Path:
    """The directory where ``mod name;`` in ``path`` finds ``name``."""
    if path.name in ("lib.rs", "main.rs", "mod.rs") or path.parent.name == "bin":
        return path.parent
    return path.parent / path.stem


def count_crate(crate: Path) -> int:
    """Non-test lines of ``crate``'s ``src`` tree."""
    src = crate / "src"
    files = sorted(src.rglob("*.rs")) if src.is_dir() else []
    counted = {path: count_file(path) for path in files}
    test_only: set[Path] = set()
    test_dirs: list[Path] = []
    for path, (_, test_mods) in counted.items():
        for name in test_mods:
            test_only.add(module_dir(path) / f"{name}.rs")
            test_dirs.append(module_dir(path) / name)
    return sum(
        n
        for path, (n, _) in counted.items()
        if path not in test_only and not any(d in path.parents for d in test_dirs)
    )


def crate_name(crate: Path) -> str:
    manifest = (crate / "Cargo.toml").read_text(encoding="utf-8")
    found = NAME_RE.search(manifest)
    return found.group(1) if found else crate.name


def main() -> int:
    if len(sys.argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(sys.argv[1]) if len(sys.argv) == 2 else Path(__file__).resolve().parent.parent
    counts = {}
    for crate in sorted((root / "crates").iterdir()):
        if not (crate / "Cargo.toml").is_file():
            continue
        counts[crate_name(crate)] = count_crate(crate)
    if not counts:
        print(f"no crates under {root / 'crates'}", file=sys.stderr)
        return 1
    width = max(len(name) for name in counts) + 2
    production = 0
    for name, n in counts.items():
        if name != ORACLE:
            production += n
            print(f"{name:<{width}}{n:>7}")
    print(f"{'production total':<{width}}{production:>7}")
    if ORACLE in counts:
        print(f"{ORACLE:<{width}}{counts[ORACLE]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
