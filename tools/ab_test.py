#!/usr/bin/env python3
"""Checks the verdict rule of tools/ab.py on fixed samples (no benchmark).

  python3 tools/ab_test.py
"""

import os
import sys
import unittest

# The test runs from the source tree; leave no __pycache__ there.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab import digest_line, verdict  # noqa: E402

# Ten parent runs of a lower-is-better time: median 1.00, IQR 0.02.
PARENT = [0.99, 1.00, 1.01, 0.98, 1.02, 1.00, 0.99, 1.01, 1.00, 1.00]


def shifted(by):
    return [p + by for p in PARENT]


class Verdict(unittest.TestCase):
    def test_losing_nine_pairs_beyond_iqr_and_bound_is_worse(self):
        change = shifted(0.30)
        change[4] = 0.90  # one pair won: 9 of 10 lost
        v, wins, losses = verdict(PARENT, change, True, 0.25)
        self.assertEqual((v, wins, losses), ("worse", 1, 9))
        # A per-layer metric has no bound; the IQR alone decides.
        self.assertEqual(verdict(PARENT, shifted(0.05), True, None)[0],
                         "worse")

    def test_losing_only_eight_pairs_is_not_worse(self):
        change = shifted(0.30)
        change[3] = change[4] = 0.90
        self.assertNotEqual(verdict(PARENT, change, True, None)[0], "worse")

    def test_shift_within_the_bound_is_not_worse(self):
        v, _, losses = verdict(PARENT, shifted(0.10), True, 0.25)
        self.assertEqual(losses, 10)
        self.assertEqual(v, "same")

    def test_shift_smaller_than_the_iqr_is_same_or_unresolved(self):
        for bound in (None, 0.25):
            for by in (0.01, -0.01):
                v = verdict(PARENT, shifted(by), True, bound)[0]
                self.assertIn(v, ("same", "unresolved"), (bound, by))

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.5, 1.5, 1.0]
        change = [1.1, 1.3, 0.6, 1.4, 0.9, 1.0, 1.2, 0.6, 1.3, 0.9]
        self.assertEqual(verdict(wide, change, True, 0.25)[0], "unresolved")
        # Unless every change run beats every parent run.
        self.assertEqual(verdict(wide, [0.4] * 10, True, 0.25)[0], "better")

    def test_higher_is_better_direction(self):
        self.assertEqual(verdict(PARENT, shifted(-0.30), False, 0.25)[0],
                         "worse")
        self.assertEqual(verdict(PARENT, shifted(0.30), False, 0.25)[0],
                         "better")

    def test_ties_count_for_neither_side(self):
        v, wins, losses = verdict(PARENT, list(PARENT), True, 0.25)
        self.assertEqual((v, wins, losses), ("same", 0, 0))


class Digests(unittest.TestCase):
    RUNS = [(36, "%016x" % i) for i in range(10)]

    def test_equal_digests(self):
        self.assertEqual(digest_line(self.RUNS, list(self.RUNS)),
                         "radius digests equal in 10/10 pairs")

    def test_a_mismatch_in_any_pair_is_reported(self):
        for pair in range(10):
            change = list(self.RUNS)
            change[pair] = (36, "ffffffffffffffff")
            line = digest_line(self.RUNS, change)
            self.assertIn("equal in 9/10", line)
            self.assertIn("DIFFER in pair(s) %d" % (pair + 1), line)

    def test_runs_over_different_query_counts_are_not_compared(self):
        change = list(self.RUNS)
        change[2] = (35, "ffffffffffffffff")
        line = digest_line(self.RUNS, change)
        self.assertIn("equal in 9/10", line)
        self.assertNotIn("DIFFER", line)
        self.assertIn("not comparable (different query counts) in pair(s) 3",
                      line)


if __name__ == "__main__":
    unittest.main()
