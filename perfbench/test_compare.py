"""Tests of the comparison rules: python3 -m unittest discover perfbench"""

import unittest

from compare import compare, quartiles


class CompareTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(quartiles([1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75))
        self.assertEqual(quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        parent = {s: 100.0 + s % 3 for s in range(10)}
        change = {s: 110.0 + s % 3 for s in range(10)}
        r = compare(parent, change, "higher", 0.1)
        self.assertEqual((r["wins"], r["pairs"], r["verdict"]), (10, 10, "gain"))
        self.assertAlmostEqual(r["ratio"], 1.1, places=2)
        # One lost pair of ten still counts; two do not.
        change[0], change[1] = 90.0, 90.0
        self.assertNotEqual(compare(parent, change, "higher", 0.1)["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        parent = {s: 1.0 for s in range(10)}
        r = compare(parent, dict(parent), "lower", 0.1)
        self.assertEqual((r["wins"], r["verdict"]), (0, "ok"))

    def test_regression_beyond_the_bound(self):
        parent = {s: 10.0 for s in range(10)}
        change = {s: 12.0 for s in range(10)}
        self.assertEqual(compare(parent, change, "lower", 0.1)["verdict"], "regression")
        self.assertEqual(compare(parent, change, "lower", 0.25)["verdict"], "ok")

    def test_wide_parent_spread_is_unresolved_unless_every_run_wins(self):
        parent = {0: 5.0, 1: 10.0, 2: 15.0, 3: 20.0}
        change = {0: 6.0, 1: 9.0, 2: 16.0, 3: 19.0}
        self.assertEqual(compare(parent, change, "higher", 0.1)["verdict"], "unresolved")
        better = {s: 30.0 + s for s in range(4)}
        self.assertIn(compare(parent, better, "higher", 0.1)["verdict"], ("gain", "ok"))

    def test_per_layer_metrics_have_no_verdict(self):
        parent = {0: 1.0, 1: 1.1}
        self.assertEqual(compare(parent, {0: 1.0, 1: 1.2}, "lower", None)["verdict"], "-")


if __name__ == "__main__":
    unittest.main()
