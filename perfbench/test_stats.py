"""Tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.rank(100, 50), 50)
        self.assertEqual(stats.rank(100, 90), 90)
        self.assertEqual(stats.rank(7, 50), 4)
        self.assertEqual(stats.rank(3, 1), 1)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(list(reversed(values)), 50), 50)

    def test_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 above it; of 99 samples, 9.
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.percentile(list(range(100)), 90), 89)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)
        # p99 needs 1000 samples.
        self.assertEqual(stats.beyond(1000, 99), 10)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)

    def test_tail_picks_highest_supported(self):
        self.assertEqual(stats.tail(list(range(1000)))[0], 99)
        self.assertEqual(stats.tail(list(range(200)))[0], 95)
        self.assertEqual(stats.tail(list(range(64)))[0], 75)

    def test_tail_falls_back_to_median(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.tail(values), (50, 3.0))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.rank(10, 0)
        with self.assertRaises(ValueError):
            stats.rank(0, 50)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            [1, 0, "exp", 0, 100],
            [2, 1, "engine", 10, 40],
            [3, 1, "engine", 50, 90],
            [4, 3, "adversary", 60, 70],
        ]
        self.assertEqual(stats.self_times(spans), {"exp": 30, "engine": 60, "adversary": 10})

    def test_overlapping_children_count_once(self):
        spans = [
            [1, 0, "suite", 0, 100],
            [2, 1, "dist", 10, 50],
            [3, 1, "dist", 30, 60],
            [4, 1, "dist", 90, 120],  # clipped to the parent's end
        ]
        self.assertEqual(stats.self_times(spans)["suite"], 100 - 50 - 10)

    def test_roots_sum_per_layer(self):
        spans = [[1, 0, "stream", 0, 10], [2, 0, "stream", 20, 25]]
        self.assertEqual(stats.self_times(spans), {"stream": 15})

    def test_rejects_backwards_span(self):
        with self.assertRaises(ValueError):
            stats.self_times([[1, 0, "exp", 10, 5]])


class RatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(0, 4), 0.0)

    def test_ratio_needs_a_base(self):
        with self.assertRaises(ValueError):
            stats.ratio(1, 0)
        with self.assertRaises(ValueError):
            stats.ratio(1, -2)

    def test_quartile_spread(self):
        values = [10, 10, 10, 10, 10, 10, 10, 10, 10, 10]
        self.assertEqual(stats.quartile_spread(values), 0.0)
        # quantiles(n=4) of 1..9 (exclusive method): Q1 = 2.5, Q3 = 7.5; median 5.
        self.assertEqual(stats.quartile_spread(list(range(1, 10))), 1.0)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "engine.fast_cjz.slots_per_s", "metrics.window_us_p99", "9-a", "a" * 64):
            self.assertEqual(stats.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "µs", "a" * 65, "x\n", None):
            with self.assertRaises(ValueError):
                stats.check_name(name)


class FingerprintTest(unittest.TestCase):
    BASE = {"cpu_model": "X", "nproc": 4, "build_type": "Release", "threads": 4, "workload": "overload",
            "seconds": 10, "trace": 0, "seed": 1, "source_digest": "aa"}

    def test_seed_and_digest_do_not_block(self):
        other = dict(self.BASE, seed=2, source_digest="bb")
        self.assertEqual(stats.fingerprint_mismatch(self.BASE, other), [])

    def test_thread_count_and_host_block(self):
        other = dict(self.BASE, threads=1, cpu_model="Y")
        self.assertEqual(stats.fingerprint_mismatch(self.BASE, other), ["cpu_model", "threads"])


if __name__ == "__main__":
    unittest.main()
