"""Tests of the benchmark's statistics code.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import unittest
from fractions import Fraction

import stats


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), (50, 50))
        self.assertEqual(stats.percentile(values, 99), (99, 1))
        self.assertEqual(stats.percentile(values, 100), (100, 0))

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 60), (3, 2))

    def test_fractional_percentiles_rank_exactly(self):
        self.assertEqual(stats.percentile(range(10000), 99.9), (9989, 10))
        self.assertEqual(stats.percentile(range(80), Fraction(175, 2)),
                         (69, 10))

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.percentile(range(1000), 99), (989, 10))
        q = stats.tail_percentile(1024)
        self.assertEqual(stats.percentile(range(1024), q), (1013, 10))
        # 80 samples: p87.5 leaves exactly ten beyond.
        self.assertEqual(stats.tail_percentile(80), Fraction(175, 2))

    def test_tail_percentile_keeps_ten_beyond_on_larger_samples(self):
        # Fixed from the smallest sample a run can have, the percentile
        # leaves at least ten samples beyond it on every larger one.
        q = stats.tail_percentile(80)
        for n in (80, 81, 99, 100, 101, 1000):
            self.assertGreaterEqual(stats.percentile(range(n), q)[1], 10)

    def test_no_tail_at_ten_samples_or_fewer(self):
        self.assertIsNone(stats.tail_percentile(10))
        self.assertEqual(stats.tail_percentile(20), 50)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


def job(digest="aa", ok=True, runs=3, inconsistent=0, error=""):
    return {"digest": digest, "ok": ok, "runs": runs,
            "inconsistent": inconsistent, "error": error}


class MeanOfMedians(unittest.TestCase):
    def test_mean_over_passes_of_each_pass_median(self):
        self.assertEqual(stats.mean_of_medians([[1, 2, 3], [10, 20, 30],
                                                [4, 5, 6]]), 9)

    def test_even_pass_takes_the_mean_of_its_middle_pair(self):
        self.assertEqual(stats.mean_of_medians([[1, 2, 3, 4]]), 2.5)
        self.assertEqual(stats.mean_of_medians([[1, 3], [5, 7]]), 4)

    def test_steady_where_the_pooled_median_sits_on_a_band_edge(self):
        # Two jobs per pass, one fast band (about 1) and one slow band
        # (about 9). The pooled nearest-rank p50 is the fast band's
        # slowest sample; the pass medians all sit between the bands.
        passes = [[1.0 + i / 100, 9.0 + i / 100] for i in range(10)]
        pooled = [v for p in passes for v in p]
        self.assertEqual(stats.percentile(pooled, 50)[0], 1.09)
        self.assertAlmostEqual(stats.mean_of_medians(passes), 5.045)

    def test_moves_with_the_share_of_slow_passes(self):
        # Passes twice as slow in a slower machine state: the mean tracks
        # their share; it does not jump when they become the majority.
        fast, slow = [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]
        for k in range(11):
            passes = [slow] * k + [fast] * (10 - k)
            self.assertAlmostEqual(stats.mean_of_medians(passes),
                                   2.0 + 2.0 * k / 10)

    def test_no_passes_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.mean_of_medians([])


class MeanOfPercentiles(unittest.TestCase):
    def test_mean_over_passes_of_each_pass_percentile(self):
        passes = [list(range(1, 11)), list(range(11, 21))]
        # p87.5 of ten samples is the ninth.
        self.assertEqual(stats.mean_of_percentiles(passes, 87.5), 14)

    def test_stays_inside_one_band_where_the_pooled_one_sits_on_an_edge(self):
        # Ten jobs per pass, job j's samples near j; ten passes. Pooled,
        # p90 of 100 samples is the slowest sample of job 8's band, next
        # to job 9's; per pass it is job 8's sample, so the mean is job
        # 8's mean.
        passes = [[j + i / 100 for j in range(10)] for i in range(10)]
        pooled = [v for p in passes for v in p]
        self.assertEqual(stats.percentile(pooled, 90)[0], 8.09)
        self.assertAlmostEqual(stats.mean_of_percentiles(passes, 90), 8.045)

    def test_no_passes_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.mean_of_percentiles([], 50)


class HostNormalization(unittest.TestCase):
    def test_probe_figure_is_the_geometric_mean_of_its_kernels(self):
        self.assertAlmostEqual(stats.probe_ms([0, 1.0, 4.0]), 2.0)
        self.assertAlmostEqual(stats.probe_ms([7, 2.0, 2.0, 2.0, 2.0]),
                               2.0)

    def test_probe_without_kernel_times_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.probe_ms([3])
        with self.assertRaises(ValueError):
            stats.probe_ms([3, 1.0, 0.0])

    def test_each_sample_takes_the_first_probe_after_it(self):
        # Probes after samples 0-1 (figure 1) and 2 (figure 2).
        probes = [[2, 1.0], [3, 2.0]]
        self.assertEqual(stats.host_normalized([10, 20, 30], probes, 1.0),
                         [10, 20, 15])

    def test_probe_order_in_the_record_does_not_matter(self):
        probes = [[3, 2.0], [2, 1.0]]
        self.assertEqual(stats.host_normalized([10, 20, 30], probes, 1.0),
                         [10, 20, 15])

    def test_nominal_sets_the_unit(self):
        self.assertEqual(stats.host_normalized([10], [[1, 2.0]], 0.5),
                         [2.5])

    def test_host_slowdown_cancels(self):
        # The same work on a host twice as slow: twice the latency and
        # twice the probe time give the same normalized figure.
        fast = stats.host_normalized([4.0, 6.0], [[2, 1.0, 3.0]], 1.0)
        slow = stats.host_normalized([8.0, 12.0], [[2, 2.0, 6.0]], 1.0)
        for a, b in zip(fast, slow):
            self.assertAlmostEqual(a, b)

    def test_sample_without_a_probe_after_it_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.host_normalized([10, 20], [[1, 1.0]], 1.0)


class FailureCounting(unittest.TestCase):
    def test_all_healthy_without_committed_digests(self):
        attempted, failed, reasons = stats.count_failures(
            {"a": job(), "b": job(runs=5)})
        self.assertEqual((attempted, failed, reasons), (8, 0, []))

    def test_unhealthy_job_fails_every_run(self):
        attempted, failed, reasons = stats.count_failures(
            {"a": job(ok=False, runs=4, error="deadlock"), "b": job()})
        self.assertEqual((attempted, failed), (7, 4))
        self.assertIn("deadlock", reasons[0])

    def test_inconsistent_runs_fail_alone(self):
        attempted, failed, _ = stats.count_failures(
            {"a": job(runs=6, inconsistent=2)})
        self.assertEqual((attempted, failed), (6, 2))

    def test_digest_mismatch_fails_every_run(self):
        committed = {"a": "aa", "b": "bb"}
        attempted, failed, reasons = stats.count_failures(
            {"a": job(runs=2), "b": job(digest="xx", runs=3)}, committed)
        self.assertEqual((attempted, failed), (5, 3))
        self.assertIn("b: outcome digest xx", reasons[0])

    def test_matching_digests_pass(self):
        attempted, failed, _ = stats.count_failures(
            {"a": job(), "b": job(digest="bb")}, {"a": "aa", "b": "bb"})
        self.assertEqual((attempted, failed), (6, 0))

    def test_job_missing_from_committed_set_fails(self):
        _, failed, _ = stats.count_failures({"a": job(), "c": job()},
                                            {"a": "aa"})
        self.assertEqual(failed, 3)

    def test_committed_job_that_never_ran_fails_once(self):
        attempted, failed, reasons = stats.count_failures(
            {"a": job()}, {"a": "aa", "z": "zz"})
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("never ran", reasons[0])


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(0, -1, "run", 10, 25)]),
                         {"run": 15})

    def test_parent_loses_the_part_children_cover(self):
        spans = [
            (0, -1, "job", 0, 100),
            (1, 0, "compile", 10, 30),
            (2, 0, "machine_build", 30, 40),
            (3, 0, "run", 50, 90),
        ]
        self.assertEqual(stats.self_times(spans),
                         {"job": 30, "compile": 20, "machine_build": 10,
                          "run": 40})

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            (0, -1, "job", 0, 100),
            (1, 0, "run", 0, 60),
            (2, 1, "backend", 10, 50),
        ]
        self.assertEqual(stats.self_times(spans),
                         {"job": 40, "run": 20, "backend": 40})

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            (0, -1, "job", 0, 100),
            (1, 0, "a", 10, 50),
            (2, 0, "b", 40, 70),
        ]
        self.assertEqual(stats.self_times(spans)["job"], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [(0, -1, "job", 0, 10), (1, 0, "late", 5, 30)]
        self.assertEqual(stats.self_times(spans)["job"], 5)

    def test_same_name_sums_across_spans(self):
        spans = [(0, -1, "run", 0, 10), (1, -1, "run", 20, 25)]
        self.assertEqual(stats.self_times(spans), {"run": 15})
        self.assertEqual(stats.durations(spans, "run"), 15)


if __name__ == "__main__":
    unittest.main()
