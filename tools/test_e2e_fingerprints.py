#!/usr/bin/env python3
"""Unit tests for the line parsing and diffing of ``tools/e2e_fingerprints.py``.
Run with::

    python3 -m unittest tools/test_e2e_fingerprints.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_fingerprints as fp  # noqa: E402

LINE = (
    "paper_stream seed=1 fingerprint: solver_iterations=563 recovery_decisions=14 "
    "game_rounds=0 events_admitted=23995191 events_deferred=0 events_dropped=0 "
    "cost_bits=0x3fc2b7e1b3254975 served_bits=0x3ff0000000000000"
)


def with_field(line: str, name: str, value: str) -> str:
    """`line` with field `name` set to `value`."""
    return " ".join(
        f"{name}={value}" if word.startswith(f"{name}=") else word for word in line.split()
    )


class KeyTest(unittest.TestCase):
    def test_workload_and_seed_identify_a_run(self) -> None:
        self.assertEqual(fp.key(LINE), "paper_stream seed=1")
        self.assertEqual(fp.key(with_field(LINE, "solver_iterations", "500")), fp.key(LINE))


class FieldsTest(unittest.TestCase):
    def test_fields_follow_the_label_in_order(self) -> None:
        fields = fp.fields(LINE)
        self.assertEqual(
            list(fields),
            [
                "solver_iterations",
                "recovery_decisions",
                "game_rounds",
                "events_admitted",
                "events_deferred",
                "events_dropped",
                "cost_bits",
                "served_bits",
            ],
        )
        self.assertEqual(fields["solver_iterations"], "563")
        self.assertEqual(fields["cost_bits"], "0x3fc2b7e1b3254975")


class DecodeTest(unittest.TestCase):
    def test_bits_spell_the_double(self) -> None:
        self.assertEqual(fp.decode("0x3ff0000000000000"), 1.0)
        self.assertEqual(fp.decode("0xc000000000000000"), -2.0)
        self.assertEqual(fp.decode("0x0000000000000000"), 0.0)
        self.assertAlmostEqual(fp.decode("0x3fc2b7e1b3254975"), 0.14623662230821891, places=17)


class MovesTest(unittest.TestCase):
    def test_identical_lines_move_nothing(self) -> None:
        self.assertEqual(fp.moves(LINE, LINE), [])

    def test_an_iteration_move_is_one_plain_line(self) -> None:
        moved = with_field(LINE, "solver_iterations", "500")
        self.assertEqual(fp.moves(LINE, moved), ["  solver_iterations: 563 -> 500"])

    def test_a_cost_bits_move_shows_both_values_and_the_relative_change(self) -> None:
        moved = with_field(LINE, "cost_bits", "0x3fc2b7e18960ec28")
        (text,) = fp.moves(LINE, moved)
        head = "  cost_bits: 0x3fc2b7e1b3254975 -> 0x3fc2b7e18960ec28 ("
        self.assertTrue(text.startswith(head), text)
        self.assertIn("0.14623662230821891 -> 0.14623660285892126", text)
        self.assertTrue(text.endswith("relative -1.330e-07)"), text)

    def test_a_move_from_zero_is_infinite(self) -> None:
        zero = with_field(LINE, "cost_bits", "0x0000000000000000")
        (text,) = fp.moves(zero, LINE)
        self.assertTrue(text.endswith("relative +inf)"), text)

    def test_a_field_on_one_side_only_is_listed_without_values(self) -> None:
        shorter = LINE.replace(" served_bits=0x3ff0000000000000", "")
        self.assertEqual(fp.moves(shorter, LINE), ["  served_bits: None -> 0x3ff0000000000000"])
        self.assertEqual(fp.moves(LINE, shorter), ["  served_bits: 0x3ff0000000000000 -> None"])

    def test_several_moves_keep_the_line_order(self) -> None:
        moved = with_field(LINE, "cost_bits", "0x3fc2b7e18960ec28")
        moved = with_field(moved, "solver_iterations", "500")
        names = [text.split(":")[0].strip() for text in fp.moves(LINE, moved)]
        self.assertEqual(names, ["solver_iterations", "cost_bits"])


if __name__ == "__main__":
    unittest.main()
