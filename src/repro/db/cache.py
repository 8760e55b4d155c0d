"""Bounded, telemetry-instrumented caches for the database layer.

The serving tier memoizes answered plans per snapshot, and the
experiment harness memoizes its (relation, sample, queries) contexts.
:class:`LRUCache` is the shared building block — a bounded
least-recently-used map whose lookups surface as ``cache.hit`` /
``cache.miss`` telemetry counters (plus per-cache ``cache.hit.<name>``
segments, see docs/OBSERVABILITY.md) so traced runs show exactly how
much rebuilding was avoided.

Thread safety: all operations take an internal lock, so caches can be
shared by the parallel experiment harness workers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.telemetry import get_telemetry

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


class LRUCache:
    """A bounded least-recently-used cache with telemetry counters.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted first.
    name:
        Cache name used in the telemetry segment
        (``cache.hit.<name>`` / ``cache.miss.<name>``).
    """

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._name = name
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # In-flight get_or_build builds by key; waiters block on the
        # event instead of duplicating the build (single-flight).
        self._building: "dict[Hashable, threading.Event]" = {}
        self._hits = 0
        self._misses = 0

    @property
    def name(self) -> str:
        """Cache name (telemetry segment)."""
        return self._name

    @property
    def capacity(self) -> int:
        """Maximum number of entries."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Lookups served from the cache since creation/clear."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that found nothing since creation/clear."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (``nan`` before any).

        The local equivalent of the ``cache.hit.<name>`` /
        ``cache.miss.<name>`` counter ratio; SLO hit-rate floors read
        the same quantity from a registry snapshot.
        """
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else float("nan")

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Any:
        """The cached value, or :data:`MISS`; records hit/miss telemetry."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                value = self._data[key]
                self._hits += 1
                hit = True
            else:
                value = MISS
                self._misses += 1
                hit = False
        self._record(hit)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the oldest if full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building and caching on a miss.

        Single-flight: concurrent callers missing on the same key run
        ``build`` once — the first caller builds while the rest wait on
        an event and read the cached result.  ``build`` runs *outside*
        the cache lock (it may be arbitrarily slow — an ANALYZE pass),
        so other keys stay serviceable throughout.

        A raising builder is contained: the exception propagates to
        the builder's caller, **no** partial entry is cached, no lock
        or in-flight marker is left behind, and exactly one waiter is
        promoted to retry the build (the rest keep waiting on the new
        attempt).
        """
        while True:
            value = self.get(key)
            if value is not MISS:
                return value
            with self._lock:
                if key in self._data:
                    # Filled between the probe and now; re-probe so the
                    # hit is tallied like any other.
                    continue
                waiter = self._building.get(key)
                if waiter is None:
                    self._building[key] = threading.Event()
                    break
            waiter.wait()
        try:
            value = build()
            self.put(key, value)
            return value
        finally:
            # Runs on success *and* on a raising builder: drop the
            # in-flight marker and wake waiters, who either hit the
            # fresh entry or (after a failure) elect a new builder.
            with self._lock:
                event = self._building.pop(key, None)
            if event is not None:
                event.set()

    def evict(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the number of entries removed.  This is the explicit
        invalidation hook: the serving tier drops a poisoned result.
        """
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop all entries and reset the local hit/miss tallies."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def _record(self, hit: bool) -> None:
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        verb = "hit" if hit else "miss"
        telemetry.metrics.inc(f"cache.{verb}")
        telemetry.metrics.inc(f"cache.{verb}.{self._name}")
