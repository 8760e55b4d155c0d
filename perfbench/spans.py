"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public methods of the program's classes at class
level while installed, and records one span per call into flat arrays
(name, parent, start, end).  Self time -- a span's duration minus the
time its children cover -- is computed once, when the run ends.

Only class attributes are wrapped.  Module-level functions are left
alone: names bound by ``from ... import`` or held in tables such as
``repro.db.catalog.FAMILIES`` would not see a replacement anyway.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Estimator class -> family name (the serving ladder).
FAMILY_CLASSES = {
    "hybrid": ("repro.core.hybrid", "HybridEstimator"),
    "equi-depth": ("repro.core.histogram.equi_depth", "EquiDepthHistogram"),
    "uniform": ("repro.core.histogram.uniform", "UniformEstimator"),
}

#: (module, class, method, span name); span names start with the layer.
PLAIN_SPANS = (
    ("repro.serving.service", "EstimationService", "estimate", "serving.estimate"),
    ("repro.serving.service", "EstimationService", "register", "serving.register"),
    ("repro.serving.service", "EstimationService", "refresh_incremental", "serving.refresh_incremental"),
    ("repro.serving.service", "EstimationService", "maintain", "serving.maintain"),
    ("repro.db.planner", "Planner", "plan", "planner.plan"),
    ("repro.db.catalog", "Catalog", "analyze", "catalog.analyze"),
    ("repro.db.catalog", "Catalog", "refresh", "catalog.refresh"),
    ("repro.db.catalog", "Catalog", "maintain", "catalog.maintain"),
    ("repro.db.catalog", "Catalog", "fork", "catalog.fork"),
    ("repro.db.table", "Table", "append", "table.append"),
    ("repro.db.table", "Table", "delete_where", "table.delete_where"),
    ("repro.db.table", "Table", "deltas_since", "table.deltas_since"),
    ("repro.db.table", "Table", "sample_rows", "table.sample_rows"),
    ("repro.core.summary", "ColumnSummary", "update", "summary.update"),
    ("repro.core.summary", "ColumnSummary", "merge", "summary.merge"),
    ("repro.core.summary", "ColumnSummary", "delete", "summary.delete"),
    ("repro.core.summary", "ColumnSummary", "freeze", "summary.freeze"),
    ("repro.core.summary", "ColumnSummary", "copy", "summary.copy"),
)

LAYERS = ("serving", "planner", "catalog", "table", "cache", "summary", "estimator")


def _class(module: str, name: str) -> type:
    import importlib

    return getattr(importlib.import_module(module), name)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children are disjoint sub-intervals
    of their parent and the time they cover is the sum of their
    durations.  ``parent`` is the index of the parent span, -1 for a root.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


class Tracer:
    """Span recorder plus class-level method wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: (cache name) -> [hits, misses]
        self.cache_lookups: dict[str, list[int]] = {}
        #: family -> queries answered by outermost selectivity calls
        self.queries: dict[str, int] = {}
        self._saved: list[tuple[type, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def call(self, name_id: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``self.names[name_id]``."""
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()

    def top_name(self) -> int:
        """Name id of the innermost open span, -1 if none."""
        return self.name[self._stack[-1]] if self._stack else -1

    # -- wrappers ------------------------------------------------------

    def _replace(self, cls: type, method: str, wrapper: Callable[..., Any]) -> None:
        self._saved.append((cls, method, cls.__dict__.get(method)))
        setattr(cls, method, functools.wraps(getattr(cls, method))(wrapper))

    def install(self) -> None:
        """Wrap every traced method; :meth:`uninstall` restores them."""
        if self._saved:
            return
        for module, cls_name, method, span in PLAIN_SPANS:
            self._wrap_plain(_class(module, cls_name), method, span)
        for family, (module, cls_name) in FAMILY_CLASSES.items():
            cls = _class(module, cls_name)
            self._wrap_plain(cls, "__init__", f"estimator.{family}.build")
            self._wrap_query(cls, "selectivity", family, lambda a: 1)
            self._wrap_query(cls, "selectivities", family, lambda a: int(np.size(a)))
        self._wrap_cache(_class("repro.db.cache", "LRUCache"))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._saved.clear()

    def _wrap_plain(self, cls: type, method: str, span: str) -> None:
        fn = getattr(cls, method)
        name_id = self._id(span)
        call = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(name_id, fn, *args, **kwargs)

        self._replace(cls, method, wrapper)

    def _wrap_query(
        self, cls: type, method: str, family: str, size: Callable[[Any], int]
    ) -> None:
        # ``selectivity`` and ``selectivities`` share one span name; a
        # call made from inside another one (scalar -> batch) is part of
        # the outer span, not a span of its own.
        fn = getattr(cls, method)
        name_id = self._id(f"estimator.{family}.selectivity")
        call, top, queries = self.call, self.top_name, self.queries
        queries.setdefault(family, 0)

        def wrapper(self_: Any, a: Any, b: Any) -> Any:
            if top() == name_id:
                return fn(self_, a, b)
            queries[family] += size(a)
            return call(name_id, fn, self_, a, b)

        self._replace(cls, method, wrapper)

    def _wrap_cache(self, cls: type) -> None:
        from repro.db.cache import MISS

        fn = cls.get
        call, ids, lookups, to_id = self.call, {}, self.cache_lookups, self._id

        def wrapper(cache: Any, key: Any) -> Any:
            name = cache.name
            name_id = ids.get(name)
            if name_id is None:
                name_id = ids[name] = to_id(f"cache.{name}.get")
                lookups.setdefault(name, [0, 0])
            value = call(name_id, fn, cache, key)
            lookups[name][value is MISS] += 1
            return value

        self._replace(cls, "get", wrapper)

    # -- results -------------------------------------------------------

    def summary(self) -> "dict[str, dict[str, float]]":
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        own = self_times(parent, start, end)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=end - start, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            self.names[i]: {"calls": float(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i in range(k)
            if calls[i]
        }

    def plans_without_estimator(self) -> "tuple[int, int]":
        """(plan spans with no estimator query beneath them, plan spans)."""
        plan_id = self._ids.get("planner.plan")
        if plan_id is None:
            return 0, 0
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        plans = np.flatnonzero(name == plan_id)
        query_ids = [i for n, i in self._ids.items() if n.endswith(".selectivity")]
        touched = np.zeros(name.size, dtype=bool)
        for span in np.flatnonzero(np.isin(name, query_ids)):
            up = parent[span]
            while up >= 0 and name[up] != plan_id:
                up = parent[up]
            if up >= 0:
                touched[up] = True
        return int(plans.size - touched[plans].sum()), int(plans.size)
