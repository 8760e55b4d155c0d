"""The statistics catalog: ANALYZE and cached per-column estimators.

A real system separates statistics *collection* (ANALYZE scans a
sample once) from *use* (the optimizer consults cached statistics on
every query).  :class:`Catalog` does the same: ``analyze(table)``
draws one row-aligned sample and builds a selectivity estimator per
column — any family from :mod:`repro.estimators` — plus optional
joint 2-D statistics for declared column pairs.

ANALYZE is **delta-aware**: alongside the estimators it maintains one
mergeable :class:`~repro.core.summary.ColumnSummary` per column.
:meth:`Catalog.refresh` replays the table's mutation deltas into those
summaries (appends are absorbed by ``update``, deletes are
subtracted), re-freezes, and rebuilds the estimators from the frozen
summaries — O(delta + reservoir) instead of the O(n) rescan — falling
back to a full rebuild once the changed-row fraction exceeds the
staleness budget, the delta log was compacted, deletions emptied a
summary, or joint statistics are involved.
:meth:`Catalog.maintain` drives the policy: the drift monitor's KS
readings and the table's statistics-version lag decide which tables
get refreshed, so only drifted tables pay for a rebuild.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import estimators
from repro.core.base import InvalidQueryError, InvalidSampleError, SelectivityEstimator
from repro.core.summary import ColumnSummary
from repro.db.table import StaleDeltaLog, Table
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

class Catalog:
    """Per-table statistics built by ANALYZE.

    Parameters
    ----------
    family:
        Estimator family used for single-column statistics (a key of
        :data:`FAMILIES`).
    sample_size:
        Rows scanned per ANALYZE (the paper's 2,000 by default).
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
        self._column_stats: dict[tuple[str, str], SelectivityEstimator] = {}
        self._joint_stats: dict[tuple[str, str, str], KernelEstimator2D] = {}
        self._row_counts: dict[str, int] = {}
        self._version = 0
        # Incremental-refresh state: live mergeable summaries per
        # (table, column), the table statistics version they have
        # absorbed, the row count at the last full rebuild and the
        # rows changed since (the staleness-budget numerator), plus
        # the ANALYZE parameters needed to repeat a full rebuild.
        self._summaries: dict[tuple[str, str], ColumnSummary] = {}
        self._applied: dict[str, int] = {}
        self._base_rows: dict[str, int] = {}
        self._changed_rows: dict[str, int] = {}
        self._analyze_seeds: dict[str, "int | None"] = {}
        self._joint_specs: dict[str, "list[tuple[str, str]]"] = {}
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

    @staticmethod
    def _summary_seed(table_name: str, column: str) -> int:
        """Deterministic reservoir seed per (table, column).

        Derived by hashing the names, not from the ANALYZE sampling
        seed, so summaries built by different catalogs (or serving
        forks) over the same column are always mergeable.
        """
        return zlib.crc32(f"{table_name}|{column}".encode())

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

        The replacement is atomic with respect to concurrent readers:
        every statistic is built into a staging map first and installed
        with one reference swap per map at the end, so a reader racing
        an ANALYZE sees either the old statistics set or the new one —
        never a half-rebuilt mixture — and a build failure leaves the
        catalog exactly as it was.
        """
        n = min(self._sample_size, table.row_count)
        # One row-aligned sample shared by every statistic.
        rows = table.sample_rows(n, seed=seed)
        build = FAMILIES[self._family]
        new_columns: dict[tuple[str, str], SelectivityEstimator] = {
            (table.name, column): build(rows[column], table.domain(column))
            for column in table.column_names
        }
        new_joints: dict[tuple[str, str, str], KernelEstimator2D] = {}
        for x, y in joint or []:
            sample = np.column_stack([rows[x], rows[y]])
            new_joints[(table.name, x, y)] = KernelEstimator2D(
                sample,
                bandwidths=plugin_bandwidths_2d(sample),
                domain_x=table.domain(x),
                domain_y=table.domain(y),
            )
        # Delta-aware substrate: rebuild the live mergeable summaries
        # from the full columns (one vectorized O(n) pass each) so
        # subsequent mutations can be folded in incrementally by
        # refresh() instead of repeating this scan.
        table_version = table.statistics_version
        new_summaries: dict[tuple[str, str], ColumnSummary] = {}
        for column in table.column_names:
            summary = ColumnSummary(
                table.domain(column),
                seed=self._summary_seed(table.name, column),
                capacity=n,
            )
            summary.update(table.column(column))
            new_summaries[(table.name, column)] = summary
        # Atomic install: replace the table's statistics with one
        # reference swap per map (reads racing this see old-or-new,
        # never a mixture; nothing above mutated catalog state, so a
        # failed build changed nothing).
        column_stats = {
            key: value for key, value in self._column_stats.items() if key[0] != table.name
        }
        column_stats.update(new_columns)
        joint_stats = {
            key: value for key, value in self._joint_stats.items() if key[0] != table.name
        }
        joint_stats.update(new_joints)
        summaries = {
            key: value for key, value in self._summaries.items() if key[0] != table.name
        }
        summaries.update(new_summaries)
        self._column_stats = column_stats
        self._joint_stats = joint_stats
        self._summaries = summaries
        self._row_counts = {**self._row_counts, table.name: table.row_count}
        self._applied = {**self._applied, table.name: table_version}
        self._base_rows = {**self._base_rows, table.name: table.row_count}
        self._changed_rows = {**self._changed_rows, table.name: 0}
        self._analyze_seeds = {
            **self._analyze_seeds,
            table.name: seed if isinstance(seed, (int, np.integer)) else None,
        }
        self._joint_specs = {**self._joint_specs, table.name: list(joint or [])}
        self._version += 1
        self.staleness.on_analyze(table.name, self._version)
        self._emit_version_gauge(table.name, table_version)
        for column in table.column_names:
            self.drift.set_baseline(table.name, column, rows[column])

    @property
    def version(self) -> int:
        """Monotonic statistics version.

        Bumped by every :meth:`analyze` and :meth:`invalidate`, so a
        cache keyed on it ages out entries computed from superseded
        statistics.
        """
        return self._version

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
            or declared joint statistics (which need row-aligned pairs
            a per-column summary cannot provide).

        ``seed`` is only needed for the full path; it defaults to the
        seed recorded by the previous ``analyze``.
        """
        name = table.name
        if seed is None:
            seed = self._analyze_seeds.get(name)
        applied = self._applied.get(name)
        if not self.has_statistics(name) or applied is None:
            return self._full_refresh(table, seed)
        if applied == table.statistics_version:
            self._emit_refresh("fresh")
            return "fresh"
        if self._joint_specs.get(name):
            return self._full_refresh(table, seed)
        try:
            deltas = table.deltas_since(applied)
        except (StaleDeltaLog, InvalidQueryError):
            return self._full_refresh(table, seed)
        changed = self._changed_rows.get(name, 0) + sum(d.row_count for d in deltas)
        base = max(self._base_rows.get(name, table.row_count), 1)
        if changed / base > self._staleness_budget:
            return self._full_refresh(table, seed)
        # Stage the new summaries and estimators fully before
        # installing anything, same reference-swap discipline as
        # analyze(): a failed build leaves the catalog untouched and
        # readers never see a half-merged summary.
        build = FAMILIES[self._family]
        staged: dict[tuple[str, str], ColumnSummary] = {}
        rebuilt: dict[tuple[str, str], SelectivityEstimator] = {}
        frozen_by_column: dict[str, np.ndarray] = {}
        try:
            for column in table.column_names:
                live = self._summaries.get((name, column))
                if live is None:
                    return self._full_refresh(table, seed)
                working = live.copy()
                for delta in deltas:
                    batch = delta.rows[column]
                    if delta.kind == "append":
                        working.update(batch)
                    else:
                        working.delete(batch)
                frozen = working.freeze()
                staged[(name, column)] = working
                frozen_by_column[column] = frozen
                rebuilt[(name, column)] = build(frozen, table.domain(column))
        except InvalidSampleError:
            # Degenerate summaries (e.g. deletions emptied a reservoir)
            # cannot support a rebuild; rescan instead.
            return self._full_refresh(table, seed)
        self._column_stats = {**self._column_stats, **rebuilt}
        self._summaries = {**self._summaries, **staged}
        self._row_counts = {**self._row_counts, name: table.row_count}
        self._applied = {**self._applied, name: table.statistics_version}
        self._changed_rows = {**self._changed_rows, name: changed}
        self._version += 1
        self.staleness.on_analyze(name, self._version)
        # Re-baseline drift on the refreshed summary samples: the new
        # statistics now represent the mutated data, so KS must be
        # measured against them, not the superseded ANALYZE sample.
        for column, frozen in frozen_by_column.items():
            self.drift.set_baseline(name, column, frozen)
        self._emit_refresh("incremental")
        self._emit_version_gauge(name, table.statistics_version)
        return "incremental"

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
        modes: dict[str, str] = {}
        for table in tables:
            name = table.name
            if not self.has_statistics(name):
                continue
            drifted = any(
                (reading := self.drift.reading(name, column)) is not None
                and reading.ks >= ks_threshold
                for column in table.column_names
            )
            lagging = self._applied.get(name) != table.statistics_version
            if drifted or lagging:
                mode = self.refresh(table, seed=seed)
                if mode == "fresh" and drifted:
                    # The statistics cover the table's current version,
                    # yet the observed workload drifted past the KS
                    # threshold — the build-time sample misrepresents
                    # the data (unlucky draw, or mutations the delta
                    # log cannot explain).  Rescan; analyze() also
                    # re-baselines the drift monitor so one rebuild
                    # settles the alarm instead of re-firing forever.
                    mode = self._full_refresh(
                        table,
                        seed if seed is not None else self._analyze_seeds.get(name),
                    )
                modes[name] = mode
                if drifted:
                    self._emit_refresh("drift")
            else:
                modes[name] = "fresh"
        return modes

    def fork(self) -> "Catalog":
        """Copy-on-refresh clone for atomic snapshot publication.

        The fork shares the (immutable, frozen-after-build) estimator
        objects and the thread-safe drift/staleness monitors, but
        deep-copies the live mergeable summaries — so refreshing the
        fork never mutates state referenced by an already-published
        serving snapshot, and readers pinned to the old snapshot keep
        a consistent statistics set.
        """
        out = Catalog(self._family, self._sample_size, self._staleness_budget)
        out._column_stats = dict(self._column_stats)
        out._joint_stats = dict(self._joint_stats)
        out._row_counts = dict(self._row_counts)
        out._version = self._version
        out._summaries = {key: summary.copy() for key, summary in self._summaries.items()}
        out._applied = dict(self._applied)
        out._base_rows = dict(self._base_rows)
        out._changed_rows = dict(self._changed_rows)
        out._analyze_seeds = dict(self._analyze_seeds)
        out._joint_specs = {name: list(spec) for name, spec in self._joint_specs.items()}
        out.drift = self.drift
        out.staleness = self.staleness
        return out

    def _full_refresh(self, table: Table, seed: "int | np.random.Generator | None") -> str:
        self.analyze(table, joint=self._joint_specs.get(table.name), seed=seed)
        self._emit_refresh("full")
        return "full"

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

        Removes the table's estimators, summaries and row count and
        bumps :attr:`version`; a subsequent ``analyze`` rebuilds from
        scratch.
        """
        # Same reference-swap discipline as analyze(): concurrent
        # readers see the table's statistics all present or all gone.
        self._row_counts = {
            name: count for name, count in self._row_counts.items() if name != table_name
        }
        self._column_stats = {
            key: value for key, value in self._column_stats.items() if key[0] != table_name
        }
        self._joint_stats = {
            key: value for key, value in self._joint_stats.items() if key[0] != table_name
        }
        self._summaries = {
            key: value for key, value in self._summaries.items() if key[0] != table_name
        }
        self._applied = {
            name: version for name, version in self._applied.items() if name != table_name
        }
        self._version += 1
        self.staleness.forget(table_name)

    def has_statistics(self, table_name: str) -> bool:
        """Whether ANALYZE has run for the table."""
        return table_name in self._row_counts

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
        self._require(table_name)
        return self._row_counts[table_name]

    def column_statistic(self, table_name: str, column: str) -> SelectivityEstimator:
        """The cached single-column estimator."""
        self._require(table_name)
        key = (table_name, column)
        if key not in self._column_stats:
            raise InvalidQueryError(f"no statistics for {table_name}.{column}")
        return self._column_stats[key]

    def joint_statistic(
        self, table_name: str, x: str, y: str
    ) -> "KernelEstimator2D | None":
        """The cached joint estimator for a column pair, if any.

        Order-insensitive: ``(x, y)`` and ``(y, x)`` resolve to the
        same statistic (with axes swapped by the caller as needed).
        """
        self._require(table_name)
        if (table_name, x, y) in self._joint_stats:
            return self._joint_stats[(table_name, x, y)]
        return None

    def joint_orientation(self, table_name: str, x: str, y: str) -> "tuple[str, str] | None":
        """The stored axis order covering ``{x, y}``, if any pair does."""
        if (table_name, x, y) in self._joint_stats:
            return (x, y)
        if (table_name, y, x) in self._joint_stats:
            return (y, x)
        return None

    def _require(self, table_name: str) -> None:
        if table_name not in self._row_counts:
            raise InvalidQueryError(
                f"no statistics for table {table_name!r}; run analyze() first"
            )
