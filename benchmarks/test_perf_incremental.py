"""Perf: incremental statistics refresh vs a full ANALYZE rebuild.

The point of the mergeable-summary lifecycle (docs/STREAMING.md) is
that absorbing a mutation batch costs O(delta + reservoir) instead of
the O(table) rescan a full ANALYZE pays.  This module times both paths
over the same mutated table so the perf gate can fail CI whenever the
incremental path stops being at least 5x cheaper
(``--overhead perf_refresh.full_rebuild:perf_refresh.incremental``
with a cap of 0.2 — the loaded/base ratio reads as "incremental must
cost at most 20% of a rebuild").

Both timed paths run against a fork of the same analyzed catalog, and
every full-rebuild round pays the whole O(table) ANALYZE rescan.  The
scan's own layer, one ``ColumnSummary.update`` over the analyzed
column, is timed on its own as ``perf_refresh.summary_update``.

The served path is recorded too: an ``EstimationService`` with the
default tier ladder over a 4-column, 100k-row table drawn from the
serving benchmark's paper files.  Before each round the table takes
one 4,000-row append (mirrored records, like the benchmark's drifted
appends) and one delete; the round then times
``refresh_incremental`` (``perf_refresh.service_incremental``) or the
full re-ANALYZE ``refresh`` (``perf_refresh.service_full``).  Each
round starts from a freshly registered service, so every round does
the same work.
"""

import numpy as np
import pytest

from repro.core.summary import ColumnSummary
from repro.data import registry
from repro.data.domain import Interval
from repro.db import Catalog, Table
from repro.serving import EstimationService, ServiceConfig

DOMAIN = Interval(0.0, 1_000_000.0)
N_ROWS = 200_000
N_DELTA = 2_000
FAMILY = "equi-depth"
SAMPLE_SIZE = 2_000


def _mutated_fixture():
    """A large analyzed table with one small unabsorbed delta batch."""
    rng = np.random.default_rng(0)
    base = np.clip(rng.normal(400_000.0, 120_000.0, N_ROWS), DOMAIN.low, DOMAIN.high)
    table = Table("events", {"x": (base, DOMAIN)})
    catalog = Catalog(family=FAMILY, sample_size=SAMPLE_SIZE)
    catalog.analyze(table, seed=3)
    delta = np.clip(
        np.random.default_rng(1).normal(800_000.0, 40_000.0, N_DELTA),
        DOMAIN.low,
        DOMAIN.high,
    )
    table.append({"x": delta})
    return table, catalog


@pytest.fixture(scope="module")
def mutated():
    return _mutated_fixture()


def test_perf_refresh_incremental(benchmark, mutated, perf_export):
    table, catalog = mutated

    def refresh_once():
        return catalog.fork().refresh(table)

    mode = benchmark(refresh_once)
    assert mode == "incremental"
    perf_export.record("perf_refresh", "incremental", benchmark.stats.stats)


def test_perf_refresh_full_rebuild(benchmark, mutated, perf_export):
    table, catalog = mutated

    def rebuild_once():
        fork = catalog.fork()
        # A fresh generator per round: every round draws the same sample.
        fork.analyze(table, seed=np.random.default_rng(3))
        return fork

    rebuilt = benchmark(rebuild_once)
    assert rebuilt.has_statistics("events")
    perf_export.record("perf_refresh", "full_rebuild", benchmark.stats.stats)


def test_perf_refresh_summary_update(benchmark, mutated, perf_export):
    table, _ = mutated
    # The analyzed rows, without the unabsorbed delta appended after them.
    column = table.column("x")[:N_ROWS]

    def update_once():
        return ColumnSummary(DOMAIN, seed=3, capacity=SAMPLE_SIZE).update(column)

    summary = benchmark(update_once)
    assert summary.row_count == N_ROWS
    assert summary.distinct_tracked == SAMPLE_SIZE
    perf_export.record("perf_refresh", "summary_update", benchmark.stats.stats)


#: Column -> paper file of the served table (the serving benchmark's).
SERVED_SOURCES = {"n": "n(20)", "e": "e(20)", "rr1": "rr1(22)", "iw": "iw"}
SERVED_ROWS = 100_000
SERVED_BATCH = 4_000
SERVED_ROUNDS = 8


@pytest.fixture(scope="module")
def served_columns():
    rng = np.random.default_rng(0)
    columns = {}
    for column, source in SERVED_SOURCES.items():
        relation = registry.load(source)
        values = np.asarray(relation.values, dtype=np.float64)
        columns[column] = (values[rng.choice(values.size, SERVED_ROWS, replace=False)], relation.domain)
    return columns


def _served_round(columns):
    """A registered service whose table has one unabsorbed append and delete."""
    table = Table("served", columns)
    service = EstimationService(ServiceConfig(), seed=1)
    service.register(table, seed=0)
    rng = np.random.default_rng(1)
    pick = rng.integers(0, SERVED_ROWS, SERVED_BATCH)
    table.append(
        {
            column: domain.low + domain.high - table.column(column)[pick]
            for column, (_, domain) in columns.items()
        }
    )
    n = np.sort(table.column("n"))
    table.delete_where({"n": (float(n[SERVED_ROWS // 2]), float(n[SERVED_ROWS // 2 + SERVED_BATCH]))})
    return (service,), {}


def test_perf_refresh_service_incremental(benchmark, served_columns, perf_export):
    def refresh(service):
        return service.refresh_incremental("served")[1]

    modes = benchmark.pedantic(
        refresh, setup=lambda: _served_round(served_columns), rounds=SERVED_ROUNDS, iterations=1
    )
    assert set(modes.values()) == {"incremental"}
    perf_export.record("perf_refresh", "service_incremental", benchmark.stats.stats)


def test_perf_refresh_service_full(benchmark, served_columns, perf_export):
    def refresh(service):
        return service.refresh("served")

    version = benchmark.pedantic(
        refresh, setup=lambda: _served_round(served_columns), rounds=SERVED_ROUNDS, iterations=1
    )
    assert version == 2
    perf_export.record("perf_refresh", "service_full", benchmark.stats.stats)


def test_incremental_matches_full_rebuild(mutated):
    """The timed paths must agree on the estimates — speed without drift."""
    table, catalog = mutated
    incremental = catalog.fork()
    assert incremental.refresh(table) == "incremental"
    full = catalog.fork()
    full.analyze(table, seed=np.random.default_rng(3))
    inc_stat = incremental.column_statistic("events", "x")
    full_stat = full.column_statistic("events", "x")
    for a in np.linspace(50_000.0, 900_000.0, 9):
        assert inc_stat.selectivity(a, a + 80_000.0) == pytest.approx(
            full_stat.selectivity(a, a + 80_000.0), abs=0.02
        )
