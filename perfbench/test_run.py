#!/usr/bin/env python3
"""Tests for the aggregation in run.py: python3 perfbench/test_run.py"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def rep(wall_s, setup_s=0.5, ops=10, ops_failed=0, layers=None):
    return {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": 2 * wall_s, "peak_rss_mb": 100.0,
        "jobs": 4, "ops": ops, "ops_failed": ops_failed, "failures": [], "layers": layers or {},
    }


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [4.0, 1.0, 3.0, 2.0, 10.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 7.0))

    def test_even_count_median_is_the_middle_mean(self):
        self.assertEqual(run.quartiles([1.0, 2.0, 3.0, 4.0])[1], 2.5)

    def test_one_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_summary_flags_values_that_repeat_exactly(self):
        self.assertTrue(run.summarise([5.0, 5.0, 5.0], "count")["exact"])
        self.assertFalse(run.summarise([5.0, 5.0, 6.0], "count")["exact"])
        self.assertIsNone(run.summarise([5.0], "count")["exact"])


class Aggregation(unittest.TestCase):
    def test_end_to_end_is_the_median_over_repetitions(self):
        reps = [rep(1.0), rep(3.0), rep(2.0)]
        units = {"wall_s": "s", "jobs_per_s": "1/s", "setup_s": "s"}
        _, line = run.result(run.end_to_end_samples(reps), units, reps)
        self.assertEqual(line["metrics"]["wall_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(line["metrics"]["jobs_per_s"]["value"], 2.0)
        self.assertEqual(set(line["metrics"]), set(units))
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 30, 0))

    def test_a_failed_check_makes_the_run_incorrect(self):
        reps = [rep(1.0), rep(1.0, ops_failed=1)]
        _, line = run.result(run.end_to_end_samples(reps), {"wall_s": "s"}, reps)
        self.assertEqual((line["correct"], line["failed"]), (False, 1))

    def test_per_layer_fills_absent_layers_and_derives_overhead(self):
        pairs = [
            (rep(2.0, setup_s=1.0), rep(4.0, setup_s=0.5, layers={"a_s": 1.0})),
            (rep(2.0, setup_s=1.0, ops_failed=2), rep(5.0, setup_s=1.0, layers={"a_s": 3.0})),
        ]
        names = {"a_s": "s", "b_s": "s", "obs.trace_overhead": "ratio", "fail_ratio": "ratio"}
        samples = run.per_layer_samples(pairs, names)
        self.assertEqual(samples["a_s"], [1.0, 3.0])
        self.assertEqual(samples["b_s"], [0.0, 0.0])
        self.assertEqual(samples["obs.trace_overhead"], [1.5, 2.0])
        self.assertEqual(samples["fail_ratio"], [2 / 40])
        _, line = run.result(samples, names, [r for p in pairs for r in p])
        self.assertEqual(line["metrics"]["a_s"]["value"], 2.0)
        self.assertEqual(line["metrics"]["obs.trace_overhead"]["value"], 1.75)


if __name__ == "__main__":
    unittest.main()
