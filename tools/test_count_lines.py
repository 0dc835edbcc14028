#!/usr/bin/env python3
"""Unit tests for ``tools/count_lines.py``.

Each test writes a small crate into a temporary directory and checks the
non-test line count. Run with::

    python3 -m unittest tools/test_count_lines.py
"""

from __future__ import annotations

import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import count_lines  # noqa: E402


class CountCrateTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.crate = Path(self._tmp.name) / "demo"
        self.write("Cargo.toml", '[package]\nname = "demo"\n')

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.crate / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")

    def test_cfg_test_method_and_module_file_are_test_code(self) -> None:
        self.write(
            "src/lib.rs",
            """
            pub struct S;

            impl S {
                /// Only tests call this.
                #[cfg(test)]
                fn probe(&self) -> usize {
                    1
                }

                pub fn value(&self) -> usize {
                    2
                }
            }

            #[cfg(test)]
            mod oracle;

            pub use self::S as T;
            """,
        )
        self.write("src/oracle.rs", "pub fn dense() {}\n\npub fn slow() {}\n")
        # 18 lines in lib.rs, of which the method (5 with its doc) and the
        # module declaration (2) are test code; oracle.rs counts zero.
        self.assertEqual(count_lines.count_crate(self.crate), 18 - 5 - 2)

    def test_test_module_directory_counts_zero(self) -> None:
        self.write(
            "src/lib.rs",
            """
            pub mod api;

            #[cfg(test)]
            pub(crate) mod helpers;
            """,
        )
        self.write("src/api.rs", "pub fn call() {}\n")
        self.write("src/helpers/mod.rs", "mod deep;\npub fn help() {}\n")
        self.write("src/helpers/deep.rs", "pub fn deeper() {}\n")
        self.assertEqual(count_lines.count_crate(self.crate), 2 + 1)

    def test_production_module_of_the_same_stem_still_counts(self) -> None:
        self.write(
            "src/lib.rs",
            """
            mod a;

            #[cfg(test)]
            mod tests {
                use super::a;
            }
            """,
        )
        self.write("src/a.rs", "pub fn f() {}\n")
        self.assertEqual(count_lines.count_crate(self.crate), 2 + 1)


if __name__ == "__main__":
    unittest.main()
