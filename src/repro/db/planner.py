"""Cardinality estimation and access-path selection.

The consumer the paper's introduction describes: given a conjunction
of range predicates, estimate the result cardinality from catalog
statistics and pick the cheaper access path.  Cardinality estimation
uses joint 2-D statistics where the catalog has them and falls back to
the textbook independence assumption otherwise; the cost model is the
classic index-probe vs. sequential-scan trade-off.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.base import InvalidQueryError, validate_query
from repro.db.catalog import Catalog
from repro.db.table import Table
from repro.telemetry import get_telemetry
from repro.telemetry.quality import QualityRecord, record_quality

@dataclasses.dataclass(frozen=True)
class RangePredicate:
    """``a <= table.column <= b``."""

    column: str
    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = validate_query(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclasses.dataclass(frozen=True)
class Plan:
    """An EXPLAIN row: the chosen access path and its numbers.

    Beyond the classic EXPLAIN columns, a plan carries its own
    observability record: where each selectivity factor came from
    (``provenance``) and how long each planning stage took
    (``timings``, stage → seconds).  ``explain(analyze=True)`` renders
    both, in the spirit of ``EXPLAIN ANALYZE``.
    """

    table: str
    access_path: str
    estimated_rows: float
    estimated_cost: float
    alternatives: tuple[tuple[str, float], ...]
    provenance: tuple[str, ...] = ()
    timings: tuple[tuple[str, float], ...] = ()

    def with_provenance(self, *notes: str) -> "Plan":
        """A copy with ``notes`` appended to the provenance trail.

        The serving tier uses this to stamp plans with the tier that
        produced them and any fallback steps taken on the way — the
        plan stays immutable, the trail stays append-only.
        """
        return dataclasses.replace(self, provenance=self.provenance + tuple(notes))

    def explain(self, analyze: bool = False) -> str:
        """EXPLAIN rendering; ``analyze=True`` adds timings + provenance."""
        line = (
            f"{self.access_path} on {self.table}  "
            f"(rows~{self.estimated_rows:.0f}, cost={self.estimated_cost:.0f}"
        )
        if self.alternatives:
            others = ", ".join(f"{name}={cost:.0f}" for name, cost in self.alternatives)
            line += f"; rejected: {others}"
        line += ")"
        if not analyze:
            return line
        lines = [line]
        if self.provenance:
            lines.append("  estimates: " + "; ".join(self.provenance))
        if self.timings:
            lines.append(
                "  timings: "
                + ", ".join(f"{stage}={seconds * 1e6:.1f}us" for stage, seconds in self.timings)
            )
        return "\n".join(lines)


class Planner:
    """Cardinality estimation + two-path cost model over a catalog.

    Parameters
    ----------
    catalog:
        Statistics source (run ``analyze`` first).
    cost_seq_tuple / cost_random_tuple / cost_index_probe:
        Cost-model constants: per-row sequential read, per-row random
        read through an index, and fixed index overhead.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        cost_seq_tuple: float = 1.0,
        cost_random_tuple: float = 8.0,
        cost_index_probe: float = 500.0,
    ) -> None:
        if min(cost_seq_tuple, cost_random_tuple) <= 0 or cost_index_probe < 0:
            raise InvalidQueryError("cost constants must be positive")
        self._catalog = catalog
        self._c_seq = cost_seq_tuple
        self._c_rand = cost_random_tuple
        self._c_probe = cost_index_probe

    def selectivity(self, table: Table, predicates: "list[RangePredicate]") -> float:
        """Estimated selectivity of a conjunction of range predicates.

        Pairs covered by joint statistics are estimated jointly; the
        remaining factors multiply in (independence assumption).
        """
        return self._selectivity_with_provenance(table, predicates)[0]

    def _selectivity_with_provenance(
        self, table: Table, predicates: "list[RangePredicate]"
    ) -> tuple[float, tuple[str, ...]]:
        """Selectivity plus a human-readable source per factor."""
        if not predicates:
            return 1.0, ("no predicates: selectivity 1",)
        provenance: list[str] = []
        by_column: dict[str, RangePredicate] = {}
        for predicate in predicates:
            if predicate.column in by_column:
                # Conjunct on the same column: intersect the ranges.
                existing = by_column[predicate.column]
                a = max(existing.a, predicate.a)
                b = min(existing.b, predicate.b)
                if a > b:
                    return 0.0, (f"contradiction({predicate.column}): selectivity 0",)
                by_column[predicate.column] = RangePredicate(predicate.column, a, b)
            else:
                by_column[predicate.column] = predicate

        remaining = dict(by_column)
        total = 1.0
        # Joint statistics first (each column participates once).
        for x in list(remaining):
            if x not in remaining:
                continue
            for y in list(remaining):
                if y == x or y not in remaining or x not in remaining:
                    continue
                orientation = self._catalog.joint_orientation(table.name, x, y)
                if orientation is None:
                    continue
                first, second = orientation
                joint = self._catalog.joint_statistic(table.name, first, second)
                p_first = remaining.pop(first)
                p_second = remaining.pop(second)
                factor = joint.selectivity(p_first.a, p_first.b, p_second.a, p_second.b)
                provenance.append(
                    f"joint({first},{second})={factor:.4g} [{type(joint).__name__}]"
                )
                total *= factor
        for column, predicate in remaining.items():
            statistic = self._catalog.column_statistic(table.name, column)
            factor = statistic.selectivity(predicate.a, predicate.b)
            provenance.append(
                f"column({column})={factor:.4g} [{type(statistic).__name__}]"
            )
            total *= factor
        if len(provenance) > 1:
            provenance.append("combined under independence")
        return float(np.clip(total, 0.0, 1.0)), tuple(provenance)

    def cardinality(self, table: Table, predicates: "list[RangePredicate]") -> float:
        """Estimated result rows ``N * sigma``."""
        return self.selectivity(table, predicates) * self._catalog.row_count(table.name)

    def observe_actual(
        self,
        table: Table,
        predicates: "list[RangePredicate]",
        actual_rows: float,
    ) -> QualityRecord:
        """Feed back the executed cardinality of a planned query.

        This is the accuracy counterpart of ``EXPLAIN ANALYZE``: the
        true row count is compared (as a selectivity) against what the
        planner would estimate for the same predicate set, and the pair
        lands in the ``quality.qerror`` / ``quality.abs_error`` series
        keyed by table name.  Returns the computed record whether or
        not telemetry is enabled.
        """
        if actual_rows < 0:
            raise InvalidQueryError(f"actual row count must be >= 0, got {actual_rows}")
        row_count = self._catalog.row_count(table.name)
        estimated = self.selectivity(table, predicates)
        truth = float(actual_rows) / row_count if row_count else 0.0
        return record_quality(estimated, truth, key=table.name)

    def plan(self, table: Table, predicates: "list[RangePredicate]") -> Plan:
        """Choose the cheaper access path under the cost model.

        The returned plan records per-stage wall-clock timings
        (``estimate`` and ``costing``) and the provenance of every
        selectivity factor; a traced run additionally emits
        ``planner.plan`` / ``planner.estimate`` spans and counts
        ``planner.plan`` per produced plan.
        """
        telemetry = get_telemetry()
        with telemetry.span("planner.plan", table=table.name):
            start = time.perf_counter()
            with telemetry.span("planner.estimate", table=table.name):
                selectivity, provenance = self._selectivity_with_provenance(
                    table, predicates
                )
            rows = self._catalog.row_count(table.name)
            estimated = selectivity * rows
            estimate_seconds = time.perf_counter() - start

            start = time.perf_counter()
            seq_cost = rows * self._c_seq
            index_cost = self._c_probe + estimated * self._c_rand
            paths = {"seq scan": seq_cost, "index scan": index_cost}
            winner = min(paths, key=paths.get)
            alternatives = tuple(
                (name, cost) for name, cost in paths.items() if name != winner
            )
            costing_seconds = time.perf_counter() - start
        if telemetry.enabled:
            telemetry.metrics.inc("planner.plan")
            telemetry.metrics.observe("planner.estimate.rows", estimated)
            # Staleness gauges ride along with every traced plan, so a
            # scrape of a serving process shows how old the statistics
            # behind its current plans are.
            self._catalog.staleness_of(table.name)
        return Plan(
            table.name,
            winner,
            estimated,
            paths[winner],
            alternatives,
            provenance=provenance,
            timings=(("estimate", estimate_seconds), ("costing", costing_seconds)),
        )
