"""Tests for the database-layer caches (repro.db.cache and its users).

Covers the :class:`~repro.db.cache.LRUCache` building block with the
``cache.hit`` / ``cache.miss`` telemetry it surfaces, the statistics
the catalog holds per table (seeding, invalidation, versions), and
that plans follow re-analyzed statistics.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.data.domain import Interval
from repro.db import Catalog, Planner, RangePredicate, Table
from repro.db.cache import MISS, LRUCache

DOMAIN = Interval(0.0, 1_000.0)


def _make_table():
    rng = np.random.default_rng(0)
    x = np.clip(rng.normal(400.0, 120.0, 5_000), 0, 1_000)
    z = rng.uniform(0, 1_000, 5_000)
    return Table("points", {"x": (x, DOMAIN), "z": (z, DOMAIN)})


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=4, name="t")
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_none_is_not_a_miss(self):
        cache = LRUCache(capacity=4, name="t")
        cache.put("a", None)
        assert cache.get("a") is None

    def test_evicts_least_recently_used(self):
        cache = LRUCache(capacity=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_get_or_build_builds_once(self):
        cache = LRUCache(capacity=4, name="t")
        calls = []
        build = lambda: calls.append(1) or "value"
        assert cache.get_or_build("k", build) == "value"
        assert cache.get_or_build("k", build) == "value"
        assert len(calls) == 1

    def test_raising_builder_caches_nothing_and_allows_retry(self):
        # Regression: a builder that raises must not leave a partial
        # entry, a held lock, or a stale single-flight marker behind —
        # the very next get_or_build on the same key must run its
        # builder and succeed.
        cache = LRUCache(capacity=4, name="t")

        def boom():
            raise RuntimeError("builder failed")

        with pytest.raises(RuntimeError, match="builder failed"):
            cache.get_or_build("k", boom)
        assert len(cache) == 0
        assert cache.get("k") is MISS
        assert cache._building == {}
        # The lock is free and the key is rebuildable.
        assert cache.get_or_build("k", lambda: "recovered") == "recovered"
        assert cache.get("k") == "recovered"

    def test_get_or_build_is_single_flight_across_threads(self):
        import threading

        cache = LRUCache(capacity=4, name="t")
        release = threading.Event()
        calls = []
        lock = threading.Lock()

        def slow_build():
            with lock:
                calls.append(1)
            release.wait(timeout=5.0)
            return "built"

        results = [None] * 4

        def worker(i):
            results[i] = cache.get_or_build("k", slow_build)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        # Let the winner enter the builder, then let every waiter pile
        # up behind the single-flight event before releasing.
        deadline = 50
        while not calls and deadline:
            deadline -= 1
            release.wait(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert results == ["built"] * 4
        assert len(calls) == 1
        assert cache._building == {}

    def test_evict_by_predicate(self):
        cache = LRUCache(capacity=8, name="t")
        for key in (("a", 1), ("a", 2), ("b", 1)):
            cache.put(key, key)
        assert cache.evict(lambda key: key[0] == "a") == 2
        assert len(cache) == 1 and cache.get(("b", 1)) == ("b", 1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0, name="t")

    def test_telemetry_counters(self):
        with telemetry.session() as session:
            cache = LRUCache(capacity=4, name="unit")
            cache.get("a")
            cache.put("a", 1)
            cache.get("a")
            assert session.metrics.counter("cache.miss") == 1
            assert session.metrics.counter("cache.hit") == 1
            assert session.metrics.counter("cache.miss.unit") == 1
            assert session.metrics.counter("cache.hit.unit") == 1


class TestStatisticsCache:
    """The statistics the catalog holds per table, its only copy."""

    def test_unseeded_analyze_raises(self):
        from repro.core.base import MissingSeedError

        table = _make_table()
        catalog = Catalog(family="equi-width", sample_size=500)
        with pytest.raises(MissingSeedError):
            catalog.analyze(table, seed=None)

    def test_invalidate_forces_rebuild(self):
        table = _make_table()
        catalog = Catalog(family="equi-width", sample_size=500)
        catalog.analyze(table, seed=7)
        first = catalog.column_statistic("points", "x")
        catalog.invalidate("points")
        assert not catalog.has_statistics("points")
        catalog.analyze(table, seed=7)
        assert catalog.column_statistic("points", "x") is not first

    def test_version_bumps_on_analyze_and_invalidate(self):
        table = _make_table()
        catalog = Catalog(family="equi-width", sample_size=500)
        v0 = catalog.version
        catalog.analyze(table, seed=7)
        v1 = catalog.version
        catalog.invalidate("points")
        assert v0 < v1 < catalog.version


class TestPlannerReanalyze:
    def test_plan_after_reanalyze_matches_fresh_planner(self):
        table = _make_table()
        catalog = Catalog(family="equi-width", sample_size=500)
        catalog.analyze(table, seed=7)
        planner = Planner(catalog)
        predicates = [RangePredicate("x", 300.0, 500.0)]
        first = planner.plan(table, predicates)
        catalog.analyze(table, seed=8)  # new statistics version
        replanned = planner.plan(table, predicates)
        fresh = Planner(catalog).plan(table, predicates)
        # The new sample moves the estimate, so a stale answer would show.
        assert fresh.estimated_rows != first.estimated_rows
        assert replanned.estimated_rows == fresh.estimated_rows
        assert replanned.provenance == fresh.provenance
