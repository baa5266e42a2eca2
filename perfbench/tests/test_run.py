"""Tests for run.py's helpers: the quartile spread and metric completion."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class Spread(unittest.TestCase):
    def test_matches_the_exclusive_quartiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median, rel = run.spread(values)
        self.assertEqual(median, 10.75)
        self.assertAlmostEqual(rel, (q3 - q1) / 10.75)
        self.assertAlmostEqual(q1, 9.875)
        self.assertAlmostEqual(q3, 12.125)

    def test_steady_and_degenerate_sets(self):
        self.assertEqual(run.spread([4.0] * 5), (4.0, 0.0))
        self.assertEqual(run.spread([3.0]), (3.0, 0.0))


class CompleteMetrics(unittest.TestCase):
    END = {"round_ms_p50": {"name": "round_ms_p50", "unit": "ms", "bound": 0.15}}
    LAYER = {"a_ms": {"name": "a_ms", "unit": "ms"}, "b": {"name": "b", "unit": "count"}}

    def test_unexercised_layers_read_zero_in_benchmark_order(self):
        result = {"metrics": {"b": {"value": 3, "unit": "count"}}}
        self.assertEqual(run.complete_metrics(result, self.LAYER), [])
        self.assertEqual(list(result["metrics"]), ["a_ms", "b"])
        self.assertEqual(result["metrics"]["a_ms"], {"value": 0, "unit": "ms"})

    def test_missing_end_to_end_metric_is_an_error(self):
        self.assertEqual(run.complete_metrics({"metrics": {}}, self.END),
                         ["missing end-to-end metric round_ms_p50"])

    def test_unknown_name_and_wrong_unit_are_errors(self):
        result = {"metrics": {"round_ms_p50": {"value": 1.0, "unit": "s"},
                              "extra": {"value": 1.0, "unit": "ms"}}}
        problems = run.complete_metrics(result, self.END)
        self.assertIn("unknown metric extra", problems)
        self.assertIn("round_ms_p50 has unit s, not ms", problems)


if __name__ == "__main__":
    unittest.main()
