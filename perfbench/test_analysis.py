"""Tests of the benchmark's own logic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import analysis
from analysis import Span


class PercentileSelection(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        # 376 ordinary periods in a horizon week: 18 lie beyond p95, only 3
        # beyond p99, so p95 is reported and p99 is not.
        samples = [float(i) for i in range(376)]
        self.assertEqual(analysis.samples_beyond(376, 95.0), 18)
        self.assertEqual(analysis.tail_percentile(samples, 95.0), 357.0)
        self.assertEqual(analysis.samples_beyond(376, 99.0), 3)
        self.assertIsNone(analysis.tail_percentile(samples, 99.0))

    def test_p95_withheld_below_the_tail_minimum(self):
        # One fleet day has 94 ordinary periods: 4 beyond p95.
        self.assertIsNone(analysis.tail_percentile(list(range(94)), 95.0))
        self.assertIsNone(analysis.tail_percentile([], 95.0))
        # 200 samples: rank 190, exactly 10 beyond.
        samples = list(range(200, 0, -1))
        self.assertEqual(analysis.samples_beyond(200, 95.0), 10)
        self.assertEqual(analysis.tail_percentile(samples, 95.0), 190)
        self.assertIsNone(analysis.tail_percentile(samples[:199], 95.0))

    def test_nearest_rank_median_is_a_sample(self):
        self.assertEqual(analysis.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(analysis.median([4.0, 1.0, 3.0, 2.0]), 2.0)


class SelfTime(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(analysis.union_length([(0, 10), (5, 15), (20, 25)]),
                         20)
        self.assertEqual(analysis.union_length([(0, 10), (5, 15)], 8, 12), 4)
        self.assertEqual(analysis.union_length([]), 0)

    def test_same_thread_children(self):
        spans = [Span(0, 0, 100, "fleet.period"),
                 Span(0, 10, 30, "fleet.publish"),
                 Span(0, 40, 90, "fleet.pricer"),
                 Span(0, 50, 70, "pricer.observe")]
        roots = analysis.build_forest(spans, main_tid=0)
        self.assertEqual(len(roots), 1)
        by_name = {n.span.name: n for n in analysis.walk(roots)}
        self.assertEqual(analysis.self_time(by_name["fleet.period"]), 30)
        self.assertEqual(analysis.self_time(by_name["fleet.pricer"]), 30)
        self.assertEqual(analysis.self_time(by_name["pricer.observe"]), 20)

    def test_worker_children_overlap_once(self):
        # simulate [0,100) on the main thread; the caller runs one shard
        # itself, two workers run overlapping shards.
        spans = [Span(0, 0, 100, "fleet.simulate"),
                 Span(0, 10, 40, "fleet.shard"),
                 Span(1, 5, 60, "fleet.shard"),
                 Span(2, 50, 80, "fleet.shard"),
                 Span(2, 85, 90, "fleet.shard")]
        roots = analysis.build_forest(spans, main_tid=0)
        simulate = roots[0]
        self.assertEqual(len(simulate.children), 1)
        self.assertEqual(len(simulate.cross), 3)
        # Covered: [5,80) and [85,90) -> 80; self = 100 - 80.
        self.assertEqual(analysis.self_time(simulate), 20)
        charge = analysis.attribute_layers(roots)
        self.assertEqual(charge["common"], 20)
        self.assertEqual(charge["fleet"], 80)
        self.assertEqual(sum(charge.values()), 100)

    def test_worker_span_attaches_to_innermost_main_span(self):
        spans = [Span(0, 0, 100, "bench.step.ordinary"),
                 Span(0, 20, 60, "fleet.simulate"),
                 Span(3, 25, 55, "fleet.shard"),
                 Span(3, 70, 75, "kernel.plan_build")]
        roots = analysis.build_forest(spans, main_tid=0)
        step = roots[0]
        simulate = step.children[0]
        self.assertEqual([n.span.begin for n in simulate.cross], [25])
        self.assertEqual([n.span.begin for n in step.cross], [70])
        charge = analysis.attribute_layers(roots)
        self.assertEqual(sum(charge.values()), 100)
        self.assertEqual(charge["core"], 5)
        self.assertEqual(charge["common"], 10)  # simulate minus its shard
        self.assertEqual(charge["horizon"], 55)

    def test_parse_spans_and_fleet_periods(self):
        text = ("0 0 1000 fleet.run_day\n"
                "0 10 110 fleet.period\n0 120 220 fleet.period\n"
                "0 230 330 fleet.period\n0 340 440 fleet.period\n"
                "1 20 30 fleet.shard\n")
        spans = analysis.parse_spans(text)
        self.assertEqual(spans[-1], Span(1, 20, 30, "fleet.shard"))
        ordinary, rollover = analysis.fleet_period_latencies(spans, 0, 2)
        self.assertEqual(ordinary, [110, 110])
        # Each day's last period runs to the next day's first (or the end of
        # the run), so day-boundary work counts as rollover.
        self.assertEqual(rollover, [110, 660])


class DigestComparator(unittest.TestCase):
    def test_equal_lists(self):
        self.assertEqual(analysis.digest_mismatches(["a", "b"], ["a", "b"]),
                         [])

    def test_reports_diverging_days(self):
        self.assertEqual(
            analysis.digest_mismatches(["a", "b", "c"], ["a", "x", "y"]),
            [1, 2])

    def test_length_difference_is_a_mismatch(self):
        self.assertEqual(analysis.digest_mismatches(["a", "b"], ["a"]), [1])
        self.assertEqual(analysis.digest_mismatches([], ["a"]), [0])
        self.assertEqual(analysis.digest_mismatches(["a"], []), [0])


if __name__ == "__main__":
    unittest.main()
