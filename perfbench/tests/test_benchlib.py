"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "request": -1}


class PercentileTest(unittest.TestCase):
    def test_rank_is_ceil_q_n_with_counts(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile_nearest_rank(values, 0.90), (90, 100, 10))
        self.assertEqual(benchlib.percentile_nearest_rank(values, 0.50), (50, 100, 50))
        self.assertEqual(benchlib.percentile_nearest_rank(values, 1.0), (100, 100, 0))

    def test_always_an_actual_sample(self):
        self.assertEqual(benchlib.percentile_nearest_rank([3.0, 1.0, 2.0], 0.5), (2.0, 3, 1))
        self.assertEqual(benchlib.percentile_nearest_rank([7.5], 0.9), (7.5, 1, 0))
        # ceil(0.9 * 11) = 10: the tenth smallest, one sample beyond.
        self.assertEqual(benchlib.percentile_nearest_rank(list(range(11)), 0.9), (9, 11, 1))

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            benchlib.percentile_nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.percentile_nearest_rank([1.0], 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_children(self):
        spans = [
            span("driver.rep", 0.0, 10.0, -1),
            span("exp.cell", 1.0, 4.0, 0),
            span("core.run", 2.0, 3.0, 1),
            span("exp.cell", 5.0, 9.0, 0),
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, [3.0, 2.0, 1.0, 4.0])
        self.assertAlmostEqual(sum(selfs), 10.0)
        layers = benchlib.layer_self_times(spans, range(4), selfs)
        self.assertEqual(layers, {"driver": 3.0, "exp": 6.0, "core": 1.0})

    def test_overlapping_children_count_once_and_clip(self):
        spans = [
            span("driver.rep", 0.0, 10.0, -1),
            span("a.x", 2.0, 6.0, 0),
            span("b.y", 4.0, 8.0, 0),
            span("c.z", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
        ]
        self.assertEqual(benchlib.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_split_roots_and_totals(self):
        spans = [
            span("driver.rep", 0.0, 2.0, -1),
            span("exp.parse", 0.0, 0.5, 0),
            span("driver.rep", 3.0, 4.0, -1),
            span("exp.parse", 3.0, 3.25, 2),
        ]
        trees = benchlib.split_roots(spans)
        self.assertEqual(trees, [[0, 1], [2, 3]])
        self.assertEqual(benchlib.span_totals(spans, trees[1])["exp.parse"], 0.25)


class DigestTest(unittest.TestCase):
    CSV = "app,procs,strategy\n\"mxm[R=400,C=400]\",4,GCDLB\n\"mxm[R=400,C=400]\",4,GDDLB\n"

    def test_identical_output_passes(self):
        golden = benchlib.csv_digests(self.CSV)
        self.assertEqual(len(golden), 3)
        self.assertEqual(benchlib.mismatched_digests(benchlib.csv_digests(self.CSV), golden), 0)

    def test_one_byte_change_is_one_failed_cell(self):
        golden = benchlib.csv_digests(self.CSV)
        changed = self.CSV.replace("GDDLB", "GDDLC")
        self.assertEqual(len(changed), len(self.CSV))
        self.assertEqual(benchlib.mismatched_digests(benchlib.csv_digests(changed), golden), 1)

    def test_missing_row_is_a_failed_cell(self):
        golden = benchlib.csv_digests(self.CSV)
        truncated = "".join(self.CSV.splitlines(keepends=True)[:2])
        self.assertEqual(benchlib.mismatched_digests(benchlib.csv_digests(truncated), golden), 1)

    def test_golden_file_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "golden.txt")
            benchlib.write_golden(path, self.CSV, "perfbench golden: test")
            self.assertEqual(benchlib.read_golden(path), benchlib.csv_digests(self.CSV))


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # statistics.quantiles (exclusive) of 1..9: q1 = 2.5, q3 = 7.5.
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 5.0 / 5.0)
        self.assertEqual(benchlib.spread([2.0] * 4), 0.0)


if __name__ == "__main__":
    unittest.main()
