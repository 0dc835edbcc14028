#!/usr/bin/env python3
"""Unit tests for the summary math of ``tools/e2e_ab.py``. Run with::

    python3 -m unittest tools/test_e2e_ab.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_ab  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self) -> None:
        self.assertEqual(e2e_ab.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(e2e_ab.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))

    def test_one_value_is_its_own_spread(self) -> None:
        self.assertEqual(e2e_ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class SummarizeTest(unittest.TestCase):
    BASE = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]

    def test_higher_is_better_gain_holds(self) -> None:
        change = [v * 1.2 for v in self.BASE]
        s = e2e_ab.summarize(self.BASE, change, "higher")
        self.assertEqual(s.wins, 10)
        self.assertEqual(s.pairs, 10)
        self.assertAlmostEqual(s.relative, 0.2)
        self.assertTrue(s.holds)

    def test_lower_is_better_counts_falls_as_wins(self) -> None:
        change = [v * 0.8 for v in self.BASE]
        s = e2e_ab.summarize(self.BASE, change, "lower")
        self.assertEqual(s.wins, 10)
        self.assertAlmostEqual(s.relative, -0.2)
        self.assertTrue(s.holds)
        # The same values read as higher-is-better lose every pair.
        s = e2e_ab.summarize(self.BASE, change, "higher")
        self.assertEqual(s.wins, 0)
        self.assertFalse(s.holds)

    def test_ties_are_not_wins(self) -> None:
        s = e2e_ab.summarize(self.BASE, list(self.BASE), "higher")
        self.assertEqual(s.wins, 0)
        self.assertEqual(s.relative, 0.0)
        self.assertFalse(s.holds)

    def test_eight_wins_of_ten_do_not_hold(self) -> None:
        change = [v * 1.2 for v in self.BASE]
        change[0] = change[1] = 50
        s = e2e_ab.summarize(self.BASE, change, "higher")
        self.assertEqual(s.wins, 8)
        self.assertFalse(s.holds)
        change[1] = 200
        self.assertTrue(e2e_ab.summarize(self.BASE, change, "higher").holds)

    def test_a_gap_inside_the_base_iqr_does_not_hold(self) -> None:
        # Base quartiles 99 and 101: an IQR of 2.
        self.assertEqual(e2e_ab.quartiles(self.BASE)[0], 99)
        self.assertEqual(e2e_ab.quartiles(self.BASE)[2], 101)
        small = [v + 1.5 for v in self.BASE]
        s = e2e_ab.summarize(self.BASE, small, "higher")
        self.assertEqual(s.wins, 10)
        self.assertFalse(s.holds)
        large = [v + 2.5 for v in self.BASE]
        self.assertTrue(e2e_ab.summarize(self.BASE, large, "higher").holds)

    def test_rejects_unpaired_values_and_unknown_directions(self) -> None:
        with self.assertRaises(ValueError):
            e2e_ab.summarize([1.0], [1.0, 2.0], "higher")
        with self.assertRaises(ValueError):
            e2e_ab.summarize([], [], "higher")
        with self.assertRaises(ValueError):
            e2e_ab.summarize([1.0], [2.0], "up")


class FailureTest(unittest.TestCase):
    def line(self, **run) -> str:
        return "build noise\nspeed: ...\n" + json.dumps(run) + "\n"

    def test_a_correct_run_counts(self) -> None:
        out = self.line(correct=True, failed=0, metrics={"m": {"value": 1.0}})
        self.assertIsNone(e2e_ab.failure(0, out))
        self.assertEqual(e2e_ab.result(out)["metrics"]["m"]["value"], 1.0)

    def test_failed_and_incorrect_runs_are_named(self) -> None:
        self.assertEqual(e2e_ab.failure(3, ""), "exited 3")
        self.assertIn("no result JSON", e2e_ab.failure(0, ""))
        self.assertIn("no result JSON", e2e_ab.failure(0, "not json\n"))
        self.assertEqual(
            e2e_ab.failure(0, self.line(correct=False, failed=0)), "reported correct=false"
        )
        self.assertEqual(
            e2e_ab.failure(0, self.line(correct=True, failed=2)), "2 failed operation(s)"
        )


if __name__ == "__main__":
    unittest.main()
