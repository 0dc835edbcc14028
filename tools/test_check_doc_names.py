#!/usr/bin/env python3
"""Unit tests for ``tools/check_doc_names.py``.

Each test checks a small markdown document against the identifiers of a
small Rust source. Run with::

    python3 -m unittest tools/test_check_doc_names.py
"""

from __future__ import annotations

import sys
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_doc_names  # noqa: E402

SOURCE = textwrap.dedent(
    """
    /// Tuning knobs; `Settings::rate_limit` was removed.
    pub struct Settings {
        pub horizon: usize, // was next to max_rate
    }

    impl Settings {
        /* old: pub fn with_bound(self) -> Self */
        pub fn build(url: &str) -> Self {
            let _ = "http://example//not_a_comment";
            Settings { horizon: url.len() }
        }
    }
    """
)


def check(markdown: dict[str, str]) -> tuple[int, list[str]]:
    known = check_doc_names.rust_identifiers([SOURCE])
    return check_doc_names.missing_names(markdown, known)


class CheckDocNamesTest(unittest.TestCase):
    def test_present_names_pass(self) -> None:
        doc = "Call `Settings::build()` and read `Settings::horizon`.\n"
        self.assertEqual(check({"README.md": doc}), (2, []))

    def test_missing_name_is_reported_with_its_line(self) -> None:
        doc = "Intro.\n\nSet `Settings::max_reconfiguration` to cap changes.\n"
        checked, errors = check({"docs/GUIDE.md": doc})
        self.assertEqual(checked, 1)
        self.assertEqual(len(errors), 1)
        self.assertTrue(errors[0].startswith("docs/GUIDE.md:3: "), errors[0])
        self.assertIn("max_reconfiguration", errors[0])

    def test_a_name_only_in_a_comment_is_missing(self) -> None:
        for path in ["Settings::rate_limit", "Settings::max_rate", "Settings::with_bound"]:
            checked, errors = check({"DESIGN.md": f"See `{path}`.\n"})
            self.assertEqual((checked, len(errors)), (1, 1), path)
        # A `//` inside a string literal starts no comment.
        self.assertEqual(check({"DESIGN.md": "`Settings::not_a_comment`\n"}), (1, []))

    def test_skipped_files_and_fenced_blocks_are_not_checked(self) -> None:
        stale = "`Settings::max_reconfiguration`\n"
        for rel in ["CHANGES.md", "ROADMAP.md", "docs/CHANGELOG.md", "e2ebench/NOTES.md", "vendor/x/README.md"]:
            self.assertEqual(check({rel: stale}), (0, []), rel)
        fenced = "```text\n" + stale + "```\n"
        self.assertEqual(check({"README.md": fenced}), (0, []))

    def test_only_whole_paths_count(self) -> None:
        doc = "`a.b`, `Settings::build(x)`, `Vec<T>::new`, ``Settings::build``.\n"
        self.assertEqual(check({"README.md": doc}), (1, []))


if __name__ == "__main__":
    unittest.main()
