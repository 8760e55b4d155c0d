"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest

import bootstrap

_ERROR = bootstrap.prepare()

import numpy as np  # noqa: E402  (after bootstrap pins the thread count)

import spans  # noqa: E402
import stats  # noqa: E402
import workloads as w  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self) -> None:
        # root [0, 10] has children [1, 4] and [5, 9]; the second has a
        # child [6, 7].  Self time subtracts direct children only.
        parent = np.array([-1, 0, 0, 2])
        start = np.array([0.0, 1.0, 5.0, 6.0])
        end = np.array([10.0, 4.0, 9.0, 7.0])
        np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0])

    def test_tracer_records_nesting(self) -> None:
        tracer = spans.Tracer()
        outer, inner = tracer._id("serving.outer"), tracer._id("planner.inner")
        tracer.call(outer, lambda: tracer.call(inner, lambda: sum(range(1000))))
        tracer.call(inner, lambda: None)
        summary = tracer.summary()
        self.assertEqual(summary["serving.outer"]["calls"], 1)
        self.assertEqual(summary["planner.inner"]["calls"], 2)
        self.assertEqual(list(tracer.parent), [-1, 0, -1])
        outer_span = summary["serving.outer"]
        self.assertLess(outer_span["self_s"], outer_span["total_s"])
        self.assertGreaterEqual(outer_span["self_s"], 0.0)

    @unittest.skipIf(_ERROR, _ERROR)
    def test_install_restores_class_attributes(self) -> None:
        from repro.core.histogram.equi_depth import EquiDepthHistogram
        from repro.db.cache import LRUCache
        from repro.serving import EstimationService

        before = (EstimationService.estimate, LRUCache.get, EquiDepthHistogram.__dict__.get("selectivity"))
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(EstimationService.estimate, before[0])
        self.assertIn("selectivity", EquiDepthHistogram.__dict__)
        cache = LRUCache(4, name="probe")
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        tracer.uninstall()
        after = (EstimationService.estimate, LRUCache.get, EquiDepthHistogram.__dict__.get("selectivity"))
        self.assertEqual(before, after)
        self.assertEqual(tracer.cache_lookups["probe"], [1, 1])
        self.assertEqual(tracer.summary()["cache.probe.get"]["calls"], 2)


class StatsTest(unittest.TestCase):
    def test_percentile_interpolates(self) -> None:
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4], 99), 3.97)
        self.assertEqual(stats.percentile([7], 95), 7.0)

    def test_mean_rejects_empty_sample(self) -> None:
        self.assertEqual(stats.mean([1, 2, 6]), 3.0)
        with self.assertRaises(ValueError):
            stats.mean([])

    def test_mre_skips_empty_results(self) -> None:
        self.assertAlmostEqual(stats.mre([2, 5, 7], [1, 0, 10]), (1.0 + 0.3) / 2)

    def test_qerror_floors_both_sides(self) -> None:
        np.testing.assert_allclose(stats.qerrors([0, 10, 3], [4, 5, 0]), [4.0, 2.0, 3.0])


@unittest.skipIf(_ERROR, _ERROR)
class StreamTest(unittest.TestCase):
    def test_same_seed_same_inputs(self) -> None:
        first, second = w.make_data(), w.make_data()
        for column in w.SOURCES:
            np.testing.assert_array_equal(first.columns[column], second.columns[column])
        for name in w.WORKLOADS:
            requests_a, chunks_a = w.op_stream(name, first, 7)
            requests_b, chunks_b = w.op_stream(name, second, 7)
            a, b = next(chunks_a), next(chunks_b)
            self.assertEqual(requests_a.items, requests_b.items)
            self.assertEqual(len(a), len(b))
            for x, y in zip(a, b):
                self.assertEqual(x[0], y[0])
                if x[0] == w.APPEND:
                    for column in x[1]:
                        np.testing.assert_array_equal(x[1][column], y[1][column])
                else:
                    self.assertEqual(x, y)

    def test_same_seed_same_request_sets(self) -> None:
        data = w.make_data()
        a, b = w.request_sets(data, 3), w.request_sets(data, 3)
        self.assertEqual([next(a) for _ in range(500)], [next(b) for _ in range(500)])
        other = w.request_sets(data, 4)
        self.assertNotEqual(next(w.request_sets(data, 3)), next(other))

    def test_request_sets_are_distinct_and_valid(self) -> None:
        data = w.make_data()
        sets = w.request_sets(data, 1)
        keys = set()
        for _ in range(5000):
            predicates = next(sets)
            columns = [c for c, _, _ in predicates]
            self.assertTrue(1 <= len(columns) <= w.MAX_PREDICATES)
            self.assertEqual(len(set(columns)), len(columns))
            for column, a, b in predicates:
                domain = data.domains[column]
                self.assertTrue(domain.low <= a <= b <= domain.high)
            keys.add(w.canonical(predicates))
        self.assertEqual(len(keys), 5000)

    def test_feed_continues_across_phases(self) -> None:
        data = w.make_data()
        expected = next(w.op_stream("ingest-drift", data, 5)[1])
        requests, chunks = w.op_stream("ingest-drift", data, 5)
        feed = w.Feed(requests, chunks)
        taken = []
        for _ in range(3):  # phases that stop mid-chunk
            for _ in range(len(expected) // 3):
                if not feed.ready():
                    feed.refill()
                taken.append(feed.next())
        self.assertEqual([op[0] for op in taken], [op[0] for op in expected[: len(taken)]])
        self.assertEqual(
            [op for op in taken if op[0] == w.READ],
            [op for op in expected[: len(taken)] if op[0] == w.READ],
        )
        self.assertEqual(len(requests.predicates), len(requests.items))

    def test_delete_box_holds_its_row_and_a_few_percent(self) -> None:
        table = w.make_data().table()
        for position in (0.0, 0.3, 0.999):
            box = w.delete_box(table, position)
            row = int(position * table.row_count)
            self.assertEqual(set(box), set(table.column_names))
            for column, (low, high) in box.items():
                self.assertTrue(low <= table.column(column)[row] <= high)
            self.assertLess(table.count(box), 4 * w.BATCH_ROWS)
            self.assertGreater(table.count(box), w.BATCH_ROWS // 8)

    def test_ingest_mix(self) -> None:
        data = w.make_data()
        ops = next(w.op_stream("ingest-drift", data, 1)[1])
        kinds = [op[0] for op in ops]
        writes = kinds.count(w.APPEND) + kinds.count(w.DELETE)
        self.assertEqual(kinds.count(w.READ), writes * w.READS_PER_WRITE)
        self.assertEqual(kinds.count(w.REFRESH) + kinds.count(w.MAINTAIN), writes // w.WRITES_PER_REFRESH)
        self.assertGreater(kinds.count(w.MAINTAIN), 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
