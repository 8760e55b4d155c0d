"""The statistics catalog: ANALYZE and cached per-column estimators.

A real system separates statistics *collection* (ANALYZE scans a
sample once) from *use* (the optimizer consults cached statistics on
every query).  :class:`Catalog` does the same: ``analyze(table)``
draws one row-aligned sample and builds a selectivity estimator per
column — any family from :mod:`repro.estimators` — plus optional
joint 2-D statistics for declared column pairs.

Each catalog operation runs in two steps.  The first computes a
:class:`TableStatistics` record: everything ANALYZE or refresh knows
about one table that does not depend on the estimator family (the
per-column estimator inputs, the mergeable
:class:`~repro.core.summary.ColumnSummary` reservoirs, row counts,
the absorbed table version and the joint statistics).  The second
builds the family's estimators from the record and installs both.
Records are immutable once built, so a :meth:`Catalog.fork`, or the
serving tier's per-family catalogs, share one record per table and
each pays only for its own estimator build.

* ``analyze`` = scan (:meth:`TableStatistics.scan`) → :meth:`Catalog.build`.
* ``refresh`` = :meth:`Catalog.plan_refresh` → :meth:`Catalog.apply`.
  The plan replays the table's mutation deltas into copies of the
  summaries (appends are absorbed by ``update``, deletes are
  subtracted) and re-freezes them — O(delta + reservoir) instead of
  the O(n) rescan — falling back to a rescan once the changed-row
  fraction exceeds the staleness budget, the delta log was compacted,
  deletions emptied a summary, or joint statistics are involved.
* ``maintain`` = :meth:`Catalog.plan_refresh` →
  :meth:`Catalog.apply_maintenance`: the drift monitor's KS readings
  and the table's statistics-version lag decide which tables get
  refreshed, so only drifted tables pay for a rebuild.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Mapping, Sequence

import numpy as np

from repro import estimators
from repro.core.base import InvalidQueryError, InvalidSampleError, SelectivityEstimator
from repro.core.summary import ColumnSummary
from repro.db.table import StaleDeltaLog, Table, TableDelta
from repro.multidim import KernelEstimator2D, plugin_bandwidths_2d
from repro.telemetry.drift import DriftMonitor, DriftReading, Staleness, StalenessMonitor
from repro.telemetry.runtime import get_telemetry

#: Estimator families ANALYZE can build, by name.
FAMILIES = {
    "uniform": lambda sample, domain: estimators.uniform(domain),
    "sampling": estimators.sampling,
    "equi-width": estimators.equi_width,
    "equi-depth": estimators.equi_depth,
    "v-optimal": estimators.v_optimal,
    "wavelet": estimators.wavelet,
    "kernel": lambda sample, domain: estimators.kernel(
        sample, domain, bandwidth="plug-in"
    ),
    "hybrid": estimators.hybrid,
}


def _summary_seed(table_name: str, column: str) -> int:
    """Deterministic reservoir seed per (table, column).

    Derived by hashing the names, not from the ANALYZE sampling seed,
    so summaries built by different catalogs (or serving forks) over
    the same column are always mergeable.
    """
    return zlib.crc32(f"{table_name}|{column}".encode())


@dataclasses.dataclass(frozen=True)
class TableStatistics:
    """What ANALYZE and refresh know about one table, for any family.

    ``samples`` holds each column's estimator input: the ANALYZE row
    sample, or the frozen reservoir after an incremental refresh.
    ``summaries`` holds the live reservoirs refresh replays deltas
    into.  ``version`` is the table statistics version the record has
    absorbed; ``base_rows`` and ``changed_rows`` are the row count at
    the last scan and the rows changed since (the staleness budget's
    denominator and numerator).  ``seed`` is the integer ANALYZE seed a
    rescan repeats (``None`` for a generator).

    A record is never mutated once built: refresh replays into copies
    and returns a new record, so catalogs and their forks share it.
    """

    samples: Mapping[str, np.ndarray]
    summaries: Mapping[str, ColumnSummary]
    version: int
    row_count: int
    base_rows: int
    changed_rows: int
    seed: "int | None"
    joint: "tuple[tuple[str, str], ...]"
    joint_stats: "Mapping[tuple[str, str], KernelEstimator2D]"

    @classmethod
    def scan(
        cls,
        table: Table,
        sample_size: int,
        joint: "Sequence[tuple[str, str]] | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> "TableStatistics":
        """ANALYZE's first step: sample the table and summarize every column.

        Draws one row-aligned sample of ``min(sample_size, rows)`` rows
        (``seed`` is required — ``None`` raises
        :class:`~repro.core.base.MissingSeedError`), builds the joint
        2-D statistics for the declared pairs, and rebuilds one
        reservoir per column from the full column (one vectorized O(n)
        pass each) so later mutations can be replayed instead of
        repeating this scan.
        """
        n = min(sample_size, table.row_count)
        rows = table.sample_rows(n, seed=seed)
        # Every family built from the record reads these same arrays.
        for values in rows.values():
            values.flags.writeable = False
        joint_stats: dict[tuple[str, str], KernelEstimator2D] = {}
        for x, y in joint or ():
            sample = np.column_stack([rows[x], rows[y]])
            joint_stats[(x, y)] = KernelEstimator2D(
                sample,
                bandwidths=plugin_bandwidths_2d(sample),
                domain_x=table.domain(x),
                domain_y=table.domain(y),
            )
        summaries = {
            column: ColumnSummary(
                table.domain(column), seed=_summary_seed(table.name, column), capacity=n
            ).update(table.column(column))
            for column in table.column_names
        }
        return cls(
            samples=rows,
            summaries=summaries,
            version=table.statistics_version,
            row_count=table.row_count,
            base_rows=table.row_count,
            changed_rows=0,
            seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            joint=tuple(joint or ()),
            joint_stats=joint_stats,
        )

    def replayed(
        self, table: Table, deltas: "list[TableDelta]", changed_rows: int
    ) -> "TableStatistics":
        """Refresh's incremental step: this record with ``deltas`` absorbed.

        Replays each delta into a copy of every column's reservoir
        (appends as updates, deletes as subtractions) and re-freezes
        them.  Raises :class:`~repro.core.base.InvalidSampleError` when
        a reservoir cannot be frozen (deletions emptied it).
        """
        summaries: dict[str, ColumnSummary] = {}
        samples: dict[str, np.ndarray] = {}
        for column in table.column_names:
            working = self.summaries[column].copy()
            for delta in deltas:
                batch = delta.rows[column]
                if delta.kind == "append":
                    working.update(batch)
                else:
                    working.delete(batch)
            summaries[column] = working
            samples[column] = working.freeze()
        return dataclasses.replace(
            self,
            samples=samples,
            summaries=summaries,
            version=table.statistics_version,
            row_count=table.row_count,
            changed_rows=changed_rows,
        )


class RefreshPlan:
    """One table-level refresh decision, shared by every catalog applying it.

    ``mode`` is ``"fresh"``, ``"incremental"`` or ``"full"`` and
    ``statistics`` the record it produced (see :meth:`Catalog.plan_refresh`).
    :meth:`rescan` is the full ANALYZE a catalog falls back to when its
    build fails on the replayed sample, or when a drift alarm fires on
    a fresh table; it runs at most once per plan, whichever catalog
    asks first.
    """

    def __init__(
        self,
        table: Table,
        mode: str,
        statistics: TableStatistics,
        *,
        sample_size: int,
        seed: "int | np.random.Generator | None",
    ) -> None:
        self.table = table
        self.mode = mode
        self.statistics = statistics
        self._sample_size = sample_size
        self._seed = seed
        self._rescanned = statistics if mode == "full" else None

    def rescan(self) -> TableStatistics:
        """A fresh scan of the table, computed once per plan."""
        if self._rescanned is None:
            self._rescanned = TableStatistics.scan(
                self.table, self._sample_size, self.statistics.joint, self._seed
            )
        return self._rescanned

    @property
    def latest(self) -> TableStatistics:
        """The newest record this plan produced: the rescan, if one ran."""
        return self.statistics if self._rescanned is None else self._rescanned


@dataclasses.dataclass(frozen=True)
class _Installed:
    """One table's record and the family's estimators built from it."""

    statistics: TableStatistics
    estimators: Mapping[str, SelectivityEstimator]


class Catalog:
    """Per-table statistics built by ANALYZE.

    Parameters
    ----------
    family:
        Estimator family used for single-column statistics (a key of
        :data:`FAMILIES`).
    sample_size:
        Rows scanned per ANALYZE (the paper's 2,000 by default).
    staleness_budget:
        Changed-row fraction beyond which refresh rescans the table.
    """

    def __init__(
        self,
        family: str = "kernel",
        sample_size: int = 2_000,
        staleness_budget: float = 0.5,
    ) -> None:
        if family not in FAMILIES:
            raise InvalidQueryError(
                f"unknown estimator family {family!r}; available: {', '.join(FAMILIES)}"
            )
        if sample_size < 2:
            raise InvalidQueryError(f"sample size must be >= 2, got {sample_size}")
        if not 0.0 < staleness_budget <= 1.0:
            raise InvalidQueryError(
                f"staleness budget must be in (0, 1], got {staleness_budget}"
            )
        self._family = family
        self._sample_size = sample_size
        self._staleness_budget = staleness_budget
        # One entry per analyzed table, replaced (never mutated) by one
        # reference swap, so a reader racing an ANALYZE sees either the
        # old statistics set or the new one, never a mixture.
        self._tables: dict[str, _Installed] = {}
        self._version = 0
        # Serving-grade monitors: every ANALYZE stamps the staleness
        # monitor and baselines the drift monitor on its sample, so a
        # long-lived catalog can report how old and how wrong its
        # statistics have become.
        self.drift = DriftMonitor()
        self.staleness = StalenessMonitor()

    @property
    def family(self) -> str:
        """Estimator family ANALYZE builds."""
        return self._family

    @property
    def staleness_budget(self) -> float:
        """Changed-row fraction beyond which refresh falls back to a rescan."""
        return self._staleness_budget

    def analyze(
        self,
        table: Table,
        joint: "list[tuple[str, str]] | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        """Collect statistics for a table (replacing any previous ones).

        Parameters
        ----------
        table:
            The table to scan.
        joint:
            Column pairs to additionally cover with joint 2-D kernel
            statistics (for correlated attributes).
        seed:
            Sampling seed: an integer or a ready
            ``np.random.Generator``.  Required — ``None`` raises
            :class:`~repro.core.base.MissingSeedError` when the scan
            draws its sample, so every ANALYZE is reproducible.

        The replacement is atomic with respect to concurrent readers
        (see :meth:`build`), and a build failure leaves the catalog
        exactly as it was.
        """
        self.build(table, TableStatistics.scan(table, self._sample_size, joint, seed))

    def build(self, table: Table, statistics: TableStatistics) -> None:
        """Build this family's estimators from a record and install both.

        ANALYZE's second step.  Every estimator is built before
        anything is installed, and the install is one reference swap,
        so readers see the old statistics set or the new one and a
        failed build changes nothing.
        """
        make = FAMILIES[self._family]
        built: dict[str, SelectivityEstimator] = {
            column: make(statistics.samples[column], table.domain(column))
            for column in table.column_names
        }
        self._tables = {**self._tables, table.name: _Installed(statistics, built)}
        self._version += 1
        self.staleness.on_analyze(table.name, self._version)
        self._emit_version_gauge(table.name, statistics.version)
        for column in table.column_names:
            self.drift.set_baseline(table.name, column, statistics.samples[column])

    @property
    def version(self) -> int:
        """Monotonic statistics version.

        Bumped by every :meth:`analyze` and :meth:`invalidate`, so a
        cache keyed on it ages out entries computed from superseded
        statistics.
        """
        return self._version

    def statistics(self, table_name: str) -> TableStatistics:
        """The table record the installed estimators were built from."""
        self._require(table_name)
        return self._tables[table_name].statistics

    def refresh(self, table: Table, seed: "int | np.random.Generator | None" = None) -> str:
        """Bring the table's statistics up to date; returns the mode used.

        Modes:

        ``"fresh"``
            Nothing to do — the summaries already cover the table's
            current statistics version.
        ``"incremental"``
            The mutation deltas since the last absorbed version were
            replayed into the live summaries (appends as updates,
            deletes as subtractions), the summaries re-frozen,
            and the estimators rebuilt from the frozen summaries —
            O(delta + reservoir), no table rescan.
        ``"full"``
            Fallback to a complete :meth:`analyze` rescan: first-ever
            refresh, compacted delta log, changed-row fraction beyond
            the staleness budget, deletions that emptied a summary,
            declared joint statistics (which need row-aligned pairs
            a per-column summary cannot provide), or a frozen sample
            this family cannot build from.

        ``seed`` is only needed for the full path; it defaults to the
        seed recorded by the previous ``analyze``.
        """
        return self.apply(self._plan(table, seed))

    def apply(self, plan: RefreshPlan) -> str:
        """Refresh's second step: adopt a plan's record; returns the mode.

        ``"fresh"`` when this catalog already holds the plan's record.
        A catalog holding an older record (a serving tier that missed a
        refresh) rebuilds from the plan's record and reports
        ``"incremental"``.  If this family cannot build from a replayed
        sample, the catalog falls back to the plan's shared rescan and
        reports ``"full"``.
        """
        table = plan.table
        current = self._tables.get(table.name)
        if plan.mode == "fresh" and current is not None and current.statistics is plan.statistics:
            self._emit_refresh("fresh")
            return "fresh"
        mode = "incremental" if plan.mode == "fresh" else plan.mode
        try:
            self.build(table, plan.statistics)
        except InvalidSampleError:
            # Degenerate replayed samples (e.g. deletions left one
            # value) cannot support every family; rescan instead.
            if mode != "incremental":
                raise
            self.build(table, plan.rescan())
            mode = "full"
        self._emit_refresh(mode)
        return mode

    def maintain(
        self,
        tables: "list[Table]",
        ks_threshold: float = 0.15,
        seed: "int | np.random.Generator | None" = None,
    ) -> "dict[str, str]":
        """Drift- and lag-triggered selective refresh.

        For every analyzed table, consult the KS drift readings of its
        columns and its statistics-version lag; refresh only the
        tables that drifted past ``ks_threshold`` or have unabsorbed
        mutations — the rest keep their statistics untouched.  Returns
        the mode per table (``"fresh"`` when nothing was needed).
        Drift-triggered refreshes additionally count on
        ``catalog.refresh.drift``.
        """
        return {
            table.name: self.apply_maintenance(self._plan(table, seed), ks_threshold)
            for table in tables
            if self.has_statistics(table.name)
        }

    def apply_maintenance(self, plan: RefreshPlan, ks_threshold: float) -> str:
        """Maintenance's second step for one analyzed table; returns the mode.

        Applies ``plan`` when the table drifted past ``ks_threshold`` or
        lags this catalog's record, and keeps the statistics otherwise.
        """
        table = plan.table
        name = table.name
        drifted = any(
            (reading := self.drift.reading(name, column)) is not None
            and reading.ks >= ks_threshold
            for column in table.column_names
        )
        lagging = self.statistics(name).version != table.statistics_version
        if not (drifted or lagging):
            return "fresh"
        mode = self.apply(plan)
        if mode == "fresh" and drifted:
            # The statistics cover the table's current version, yet the
            # observed workload drifted past the KS threshold — the
            # build-time sample misrepresents the data (unlucky draw,
            # or mutations the delta log cannot explain).  Rescan; the
            # build also re-baselines the drift monitor, so one rebuild
            # settles the alarm instead of re-firing forever.
            self.build(table, plan.rescan())
            self._emit_refresh("full")
            mode = "full"
        if drifted:
            self._emit_refresh("drift")
        return mode

    def fork(self) -> "Catalog":
        """Copy-on-refresh clone for atomic snapshot publication.

        The fork shares the immutable table records and estimators and
        the thread-safe drift/staleness monitors.  Refresh never
        mutates a record (it replays into copies and installs a new
        one), so refreshing the fork leaves every already-published
        serving snapshot, and readers pinned to it, untouched.
        """
        out = Catalog(self._family, self._sample_size, self._staleness_budget)
        out._tables = dict(self._tables)
        out._version = self._version
        out.drift = self.drift
        out.staleness = self.staleness
        return out

    def plan_refresh(
        self,
        table: Table,
        statistics: "TableStatistics | None",
        seed: "int | np.random.Generator | None" = None,
    ) -> RefreshPlan:
        """Refresh's first step: decide the mode and compute the record.

        Plans from ``statistics``, the table's current record (``None``
        if it was never analyzed), under this catalog's sample size and
        staleness budget.  :meth:`refresh` and :meth:`maintain` pass
        this catalog's own record; the serving tier plans once per
        table and hands the plan to every tier's :meth:`apply`.

        ``"fresh"`` keeps ``statistics`` (it covers the table's current
        version).  ``"incremental"`` replays the deltas since the
        absorbed version (:meth:`TableStatistics.replayed`).  ``"full"``
        rescans: no record yet, declared joint statistics (which need
        row-aligned pairs a per-column reservoir cannot provide), a
        compacted delta log, a changed-row fraction beyond the
        staleness budget, or a reservoir that cannot be frozen.
        ``seed`` defaults to the record's ANALYZE seed.
        """
        if seed is None and statistics is not None:
            seed = statistics.seed

        def plan(mode: str, record: TableStatistics) -> RefreshPlan:
            return RefreshPlan(table, mode, record, sample_size=self._sample_size, seed=seed)

        def rescan() -> RefreshPlan:
            joint = None if statistics is None else statistics.joint
            return plan("full", TableStatistics.scan(table, self._sample_size, joint, seed))

        if statistics is None:
            return rescan()
        if statistics.version == table.statistics_version:
            return plan("fresh", statistics)
        if statistics.joint or any(c not in statistics.summaries for c in table.column_names):
            return rescan()
        try:
            deltas = table.deltas_since(statistics.version)
        except (StaleDeltaLog, InvalidQueryError):
            return rescan()
        changed = statistics.changed_rows + sum(delta.row_count for delta in deltas)
        if changed / max(statistics.base_rows, 1) > self._staleness_budget:
            return rescan()
        try:
            return plan("incremental", statistics.replayed(table, deltas, changed))
        except InvalidSampleError:
            return rescan()

    def _plan(self, table: Table, seed: "int | np.random.Generator | None") -> RefreshPlan:
        current = self._tables.get(table.name)
        return self.plan_refresh(table, None if current is None else current.statistics, seed)

    def _emit_refresh(self, mode: str) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.inc(f"catalog.refresh.{mode}")

    def _emit_version_gauge(self, table_name: str, version: int) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.set_gauge(
                f"catalog.statistics_version.{table_name}", float(version)
            )

    def invalidate(self, table_name: str) -> None:
        """Drop all statistics for a table (explicit data-change hook).

        Removes the table's record and estimators and bumps
        :attr:`version`; a subsequent ``analyze`` rebuilds from
        scratch.
        """
        self._tables = {
            name: entry for name, entry in self._tables.items() if name != table_name
        }
        self._version += 1
        self.staleness.forget(table_name)

    def has_statistics(self, table_name: str) -> bool:
        """Whether ANALYZE has run for the table."""
        return table_name in self._tables

    def observe_values(
        self, table_name: str, column: str, values: np.ndarray
    ) -> "DriftReading | None":
        """Feed recently seen attribute values to the drift monitor.

        Call this from wherever fresh data is visible (ingest paths,
        executed scans, the feedback loop); once enough values
        accumulate, the KS distance against the build-time sample is
        available via the returned reading and (in traced runs) the
        ``drift.ks.<table>.<column>`` gauge.
        """
        return self.drift.ingest(table_name, column, values)

    def staleness_of(self, table_name: str) -> "Staleness | None":
        """Current staleness of the table's statistics, if stamped."""
        return self.staleness.observe(table_name, self._version)

    def row_count(self, table_name: str) -> int:
        """Cached row count."""
        return self.statistics(table_name).row_count

    def column_statistic(self, table_name: str, column: str) -> SelectivityEstimator:
        """The cached single-column estimator."""
        self._require(table_name)
        built = self._tables[table_name].estimators
        if column not in built:
            raise InvalidQueryError(f"no statistics for {table_name}.{column}")
        return built[column]

    def joint_statistic(
        self, table_name: str, x: str, y: str
    ) -> "KernelEstimator2D | None":
        """The cached joint estimator for a column pair, if any.

        Order-insensitive: ``(x, y)`` and ``(y, x)`` resolve to the
        same statistic (with axes swapped by the caller as needed).
        """
        return self.statistics(table_name).joint_stats.get((x, y))

    def joint_orientation(self, table_name: str, x: str, y: str) -> "tuple[str, str] | None":
        """The stored axis order covering ``{x, y}``, if any pair does."""
        installed = self._tables.get(table_name)
        if installed is None:
            return None
        joint_stats = installed.statistics.joint_stats
        if (x, y) in joint_stats:
            return (x, y)
        if (y, x) in joint_stats:
            return (y, x)
        return None

    def _require(self, table_name: str) -> None:
        if table_name not in self._tables:
            raise InvalidQueryError(
                f"no statistics for table {table_name!r}; run analyze() first"
            )
