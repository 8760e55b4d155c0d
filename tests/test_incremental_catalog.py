"""The incremental statistics lifecycle, end to end.

Covers the delta-aware layers the streaming refactor threads together
(docs/STREAMING.md): table mutations recording deltas, the catalog's
fresh/incremental/full refresh policy and its staleness budget,
drift-triggered selective maintenance, fork-and-publish isolation for
the serving tier, and the online-learning correction layer that
survives statistics re-freezes.  The headline acceptance check lives
in :class:`TestRefreshAccuracy`: on a drifted workload, incremental
refresh must keep q-error within 1.1x of a full rebuild.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.base import InvalidQueryError, InvalidSampleError
from repro.data.domain import Interval
from repro.core.summary import ColumnSummary
from repro.db import Catalog, Planner, RangePredicate, Table
from repro.db.table import MAX_DELTA_LOG, StaleDeltaLog
from repro.online import OnlineLearningEstimator
from repro.serving import EstimationService, FaultInjector, FaultRule, ServiceConfig

DOMAIN = Interval(0.0, 1_000.0)


def _table(seed=0, rows=6_000, name="metrics", loc=400.0, scale=120.0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(loc, scale, rows), 0.0, 1_000.0)
    return Table(name, {"x": (x, DOMAIN)})


def _drift_batch(seed=1, rows=2_000, loc=800.0, scale=40.0):
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(loc, scale, rows), 0.0, 1_000.0)


def _true_selectivity(table, a, b):
    x = table.column("x")
    return float(np.mean((x >= a) & (x <= b)))


def _qerrors(catalog, table, queries, eps=1e-4):
    statistic = catalog.column_statistic(table.name, "x")
    out = []
    for a, b in queries:
        est = max(statistic.selectivity(a, b), eps)
        true = max(_true_selectivity(table, a, b), eps)
        out.append(max(est / true, true / est))
    return np.array(out)


class TestTableMutation:
    def test_append_bumps_version_and_rows(self):
        table = _table()
        assert table.statistics_version == 0
        version = table.append({"x": _drift_batch(rows=500)})
        assert version == 1 == table.statistics_version
        assert table.row_count == 6_500

    def test_append_validates_columns(self):
        table = _table()
        with pytest.raises(InvalidSampleError):
            table.append({"y": np.array([1.0])})
        with pytest.raises(InvalidSampleError):
            table.append({"x": np.array([])})
        with pytest.raises(InvalidSampleError):
            table.append({"x": np.array([5_000.0])})  # out of domain
        assert table.statistics_version == 0  # failed appends change nothing

    def test_delete_where_removes_matches(self):
        table = _table()
        before = table.row_count
        removed = table.delete_where({"x": (0.0, 300.0)})
        assert removed > 0
        assert table.row_count == before - removed
        assert table.statistics_version == 1
        assert _true_selectivity(table, 0.0, 300.0) == 0.0

    def test_unmatched_delete_is_free(self):
        table = _table()
        assert table.delete_where({"x": (999.5, 1_000.0)}) == 0
        assert table.statistics_version == 0

    def test_delete_everything_is_refused(self):
        table = _table()
        with pytest.raises(InvalidQueryError):
            table.delete_where({"x": (0.0, 1_000.0)})

    def test_deltas_since_orders_and_bounds(self):
        table = _table()
        table.append({"x": _drift_batch(rows=10)})
        table.delete_where({"x": (0.0, 100.0)})
        deltas = table.deltas_since(0)
        assert [d.version for d in deltas] == [1, 2]
        assert [d.kind for d in deltas] == ["append", "delete"]
        assert table.deltas_since(2) == []
        with pytest.raises(InvalidQueryError):
            table.deltas_since(3)  # ahead of the table

    def test_compacted_log_raises_stale(self):
        table = _table(rows=500)
        for _ in range(MAX_DELTA_LOG + 5):
            table.append({"x": np.array([500.0])})
        with pytest.raises(StaleDeltaLog):
            table.deltas_since(0)
        # Recent history is still replayable.
        assert len(table.deltas_since(table.statistics_version - 3)) == 3


class TestCatalogRefresh:
    def test_fresh_when_nothing_changed(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        assert catalog.refresh(table) == "fresh"

    def test_incremental_after_small_append(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        table.append({"x": _drift_batch(rows=800)})
        with telemetry.session() as session:
            assert catalog.refresh(table) == "incremental"
            assert session.metrics.counter("catalog.refresh.incremental") == 1
            assert (
                session.metrics.gauge("catalog.statistics_version.metrics") == 1.0
            )
        assert catalog.refresh(table) == "fresh"

    def test_incremental_after_delete(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        table.delete_where({"x": (0.0, 250.0)})
        assert catalog.refresh(table) == "incremental"
        statistic = catalog.column_statistic("metrics", "x")
        assert statistic.selectivity(0.0, 250.0) == pytest.approx(0.0, abs=0.02)

    def test_full_beyond_staleness_budget(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000, staleness_budget=0.25)
        catalog.analyze(table, seed=3)
        table.append({"x": _drift_batch(rows=3_000)})  # 50% of base > 25% budget
        with telemetry.session() as session:
            assert catalog.refresh(table) == "full"
            assert session.metrics.counter("catalog.refresh.full") == 1

    def test_full_when_joint_statistics_declared(self):
        rng = np.random.default_rng(5)
        x = np.clip(rng.normal(400.0, 120.0, 4_000), 0.0, 1_000.0)
        table = Table("pairs", {"x": (x, DOMAIN), "y": (x + 1.0, Interval(0.0, 1_001.0))})
        catalog = Catalog(family="kernel", sample_size=1_000)
        catalog.analyze(table, joint=[("x", "y")], seed=3)
        table.append({"x": np.array([500.0]), "y": np.array([501.0])})
        assert catalog.refresh(table) == "full"

    def test_full_when_delta_log_compacted(self):
        table = _table(rows=800)
        catalog = Catalog(family="equi-depth", sample_size=400)
        catalog.analyze(table, seed=3)
        for _ in range(MAX_DELTA_LOG + 1):
            table.append({"x": np.array([500.0])})
        assert catalog.refresh(table) == "full"

    def test_changed_rows_accumulate_across_refreshes(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000, staleness_budget=0.3)
        catalog.analyze(table, seed=3)
        table.append({"x": _drift_batch(rows=1_000)})
        assert catalog.refresh(table) == "incremental"
        table.append({"x": _drift_batch(seed=2, rows=1_000)})
        # 2,000 accumulated changes against a 6,000-row base > 0.3.
        assert catalog.refresh(table) == "full"
        table.append({"x": _drift_batch(seed=3, rows=1_000)})
        # The full rebuild reset the budget against the new base.
        assert catalog.refresh(table) == "incremental"

    def test_invalidate_drops_statistics_bumps_version(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=500)
        catalog.analyze(table, seed=3)
        version = catalog.version
        catalog.invalidate("metrics")
        assert catalog.version == version + 1
        assert not catalog.has_statistics("metrics")
        with pytest.raises(InvalidQueryError):
            catalog.column_statistic("metrics", "x")

    def test_fork_refreshes_in_isolation(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        baseline_version = catalog.version
        fork = catalog.fork()
        table.append({"x": _drift_batch(rows=500)})
        assert fork.refresh(table) == "incremental"
        # The original catalog never saw the refresh...
        assert catalog.version == baseline_version
        # ...and still refreshes independently afterwards.
        assert catalog.refresh(table) == "incremental"


class TestMaintain:
    def test_untouched_tables_stay_fresh(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        assert catalog.maintain([table]) == {"metrics": "fresh"}

    def test_version_lag_triggers_refresh(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        table.append({"x": _drift_batch(rows=400)})
        assert catalog.maintain([table]) == {"metrics": "incremental"}

    def test_drift_triggers_selectively(self):
        stable = _table(seed=10, name="stable")
        drifting = _table(seed=11, name="drifting")
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(stable, seed=3)
        catalog.analyze(drifting, seed=3)
        # Feed the monitors: the stable table sees in-distribution
        # values, the drifting one a shifted distribution.
        rng = np.random.default_rng(12)
        catalog.observe_values(
            "stable", "x", np.clip(rng.normal(400.0, 120.0, 512), 0, 1_000)
        )
        catalog.observe_values("drifting", "x", _drift_batch(seed=13, rows=512))
        with telemetry.session() as session:
            modes = catalog.maintain([stable, drifting], ks_threshold=0.15)
            assert modes["stable"] == "fresh"
            assert modes["drifting"] in {"incremental", "full"}
            assert session.metrics.counter("catalog.refresh.drift") == 1

    def test_drift_rescan_settles_the_alarm(self):
        table = _table()
        catalog = Catalog(family="equi-depth", sample_size=1_000)
        catalog.analyze(table, seed=3)
        # The table is unchanged but the observed values drifted, so
        # maintain rescans at the same statistics version.
        catalog.observe_values("metrics", "x", _drift_batch(seed=13, rows=512))
        assert catalog.maintain([table]) == {"metrics": "full"}
        # The rescan re-baselined the monitor: one rebuild settles the
        # alarm instead of re-firing on every later maintain.
        assert catalog.drift.reading("metrics", "x") is None
        assert catalog.maintain([table]) == {"metrics": "fresh"}


class TestRefreshAccuracy:
    """Acceptance: incremental refresh tracks a full rebuild on drift."""

    @pytest.mark.parametrize("family", ["equi-depth", "kernel", "hybrid"])
    def test_incremental_qerror_within_1_1x_of_full(self, family):
        table = _table(rows=8_000)
        incremental = Catalog(family=family, sample_size=2_000)
        incremental.analyze(table, seed=3)
        # Drifted workload: a second mode appears at the top of the
        # domain, 25% of the original mass — inside the default budget.
        table.append({"x": _drift_batch(rows=2_000)})
        assert incremental.refresh(table) == "incremental"
        full = Catalog(family=family, sample_size=2_000)
        full.analyze(table, seed=3)
        starts = np.linspace(50.0, 850.0, 17)
        queries = [(a, a + 100.0) for a in starts] + [(700.0, 900.0), (0.0, 500.0)]
        inc_q = _qerrors(incremental, table, queries)
        full_q = _qerrors(full, table, queries)
        assert inc_q.mean() <= 1.1 * full_q.mean()


class TestServingLifecycle:
    def _service(self, table, *, faults=None):
        service = EstimationService(
            ServiceConfig(sample_size=1_000),
            seed=5,
            faults=faults,
            sleep=lambda _s: None,
        )
        service.register(table, seed=7)
        return service

    def test_refresh_incremental_publishes_new_snapshot(self):
        table = _table()
        service = self._service(table)
        v0 = service.snapshot_version
        table.append({"x": _drift_batch(rows=800)})
        version, modes = service.refresh_incremental("metrics")
        assert version == v0 + 1
        assert set(modes.values()) == {"incremental"}
        result = service.estimate("metrics", [RangePredicate("x", 700.0, 900.0)])
        true = _true_selectivity(table, 700.0, 900.0) * table.row_count
        assert result.plan.estimated_rows == pytest.approx(true, rel=0.35)

    def test_pinned_readers_keep_the_old_snapshot(self):
        table = _table()
        service = self._service(table)
        with service._store.pin() as snapshot:
            old_tiers = snapshot.payload["metrics"].tiers
            table.append({"x": _drift_batch(rows=400)})
            service.refresh_incremental("metrics")
            # The pinned payload still references the pre-refresh tier
            # objects (forks never mutate shared state).
            assert snapshot.payload["metrics"].tiers is old_tiers

    def test_maintain_skips_fresh_tables_without_publishing(self):
        table = _table()
        service = self._service(table)
        v0 = service.snapshot_version
        report = service.maintain()
        assert report == {"metrics": {f: "fresh" for f in ("hybrid", "equi-depth", "uniform")}}
        assert service.snapshot_version == v0
        table.append({"x": _drift_batch(rows=400)})
        report = service.maintain()
        assert all(mode == "incremental" for mode in report["metrics"].values())
        assert service.snapshot_version == v0 + 1

    def test_faulted_tier_keeps_previous_statistics(self):
        table = _table()
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.refresh", kind="error", every=1)],
            sleep=lambda _s: None,
        )
        service = self._service(table, faults=faults)
        table.append({"x": _drift_batch(rows=400)})
        version, modes = service.refresh_incremental("metrics")
        assert modes["hybrid"].startswith("failed:")
        assert modes["equi-depth"] == "incremental"
        # The hybrid tier still serves (stale but consistent).
        result = service.estimate("metrics", [RangePredicate("x", 300.0, 500.0)])
        assert result.tier == "hybrid"
        assert np.isfinite(result.plan.estimated_rows)


def _wide_table(seed=30, rows=6_000):
    """Four columns of different shapes, like the serving benchmark's."""
    rng = np.random.default_rng(seed)
    columns = {
        "n": np.clip(rng.normal(500.0, 120.0, rows), 0.0, 1_000.0),
        "e": np.clip(rng.exponential(150.0, rows), 0.0, 1_000.0),
        "d": np.round(rng.uniform(0.0, 1_000.0, rows) / 50.0) * 50.0,
        "b": np.clip(
            np.where(rng.random(rows) < 0.5, rng.normal(200.0, 30.0, rows), rng.normal(800.0, 30.0, rows)),
            0.0,
            1_000.0,
        ),
    }
    return Table("wide", {name: (values, DOMAIN) for name, values in columns.items()})


def _wide_batch(table, seed, rows):
    """Rows drawn from the table's own columns, mirrored within the domain."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, table.row_count, rows)
    return {
        name: DOMAIN.high - table.column(name)[pick] for name in table.column_names
    }


class TestSharedTableRecord:
    """The service computes one record per table; tiers differ only in their build."""

    FAMILIES = ("hybrid", "equi-depth", "uniform")

    def _service(self, table, *, faults=None):
        service = EstimationService(
            ServiceConfig(families=self.FAMILIES, sample_size=1_000),
            seed=5,
            faults=faults,
            sleep=lambda _s: None,
        )
        service.register(table, seed=7)
        return service

    @staticmethod
    def _tiers(service, table_name):
        return {tier.family: tier.catalog for tier in service._store.current().payload[table_name].tiers}

    @staticmethod
    def _assert_same_statistics(tier, standalone, table):
        queries = np.linspace(0.0, 900.0, 31)
        for column in table.column_names:
            assert (
                tier.statistics(table.name).samples[column].tobytes()
                == standalone.statistics(table.name).samples[column].tobytes()
            )
            got = tier.column_statistic(table.name, column).selectivities(queries, queries + 100.0)
            want = standalone.column_statistic(table.name, column).selectivities(
                queries, queries + 100.0
            )
            assert got.tobytes() == want.tobytes()
        assert tier.row_count(table.name) == standalone.row_count(table.name)

    def test_tiers_equal_standalone_catalogs(self):
        table = _wide_table()
        service = self._service(table)
        standalone = {family: Catalog(family, sample_size=1_000) for family in self.FAMILIES}
        for catalog in standalone.values():
            catalog.analyze(table, seed=7)

        def check(modes=None, expected=None):
            assert modes == expected
            tiers = self._tiers(service, "wide")
            for family, catalog in standalone.items():
                self._assert_same_statistics(tiers[family], catalog, table)
            # One record per table: every tier holds the same object.
            assert len({id(tier.statistics("wide")) for tier in tiers.values()}) == 1

        check()
        table.append(_wide_batch(table, 1, 400))
        table.delete_where({"n": (0.0, 150.0)})
        _, modes = service.refresh_incremental("wide")
        check(modes, {f: c.refresh(table) for f, c in standalone.items()})
        assert set(modes.values()) == {"incremental"}
        table.append(_wide_batch(table, 2, 4_000))  # beyond the staleness budget
        _, modes = service.refresh_incremental("wide")
        check(modes, {f: c.refresh(table) for f, c in standalone.items()})
        assert set(modes.values()) == {"full"}
        table.append(_wide_batch(table, 3, 300))
        report = service.maintain()["wide"]
        check(report, {f: c.maintain([table])["wide"] for f, c in standalone.items()})
        assert set(report.values()) == {"incremental"}
        report = service.maintain()["wide"]
        check(report, {f: c.maintain([table])["wide"] for f, c in standalone.items()})
        assert set(report.values()) == {"fresh"}

    def test_one_replay_per_table(self, monkeypatch):
        calls = {"update": 0, "delete": 0, "sample_rows": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(ColumnSummary, "update")
        counting(ColumnSummary, "delete")
        counting(Table, "sample_rows")
        table = _wide_table()
        service = self._service(table)
        columns = len(table.column_names)
        # One scan: one row sample and one reservoir per column, not per tier.
        assert calls == {"update": columns, "delete": 0, "sample_rows": 1}
        table.append(_wide_batch(table, 1, 300))
        table.delete_where({"e": (0.0, 20.0)})
        table.append(_wide_batch(table, 2, 300))
        calls.update(update=0, delete=0)
        _, modes = service.refresh_incremental("wide")
        assert set(modes.values()) == {"incremental"}
        # One call per (column, delta): two appends and one delete.
        assert calls == {"update": 2 * columns, "delete": columns, "sample_rows": 1}

    def test_faulted_tier_heals_from_the_current_record(self):
        table = _wide_table()
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.refresh", kind="error", times=1)],
            sleep=lambda _s: None,
        )
        service = self._service(table, faults=faults)
        standalone = Catalog("hybrid", sample_size=1_000)
        standalone.analyze(table, seed=7)
        registered = self._tiers(service, "wide")["hybrid"].statistics("wide")
        table.append(_wide_batch(table, 1, 400))
        _, modes = service.refresh_incremental("wide")
        assert modes["hybrid"].startswith("failed:")
        assert modes["equi-depth"] == modes["uniform"] == "incremental"
        tiers = self._tiers(service, "wide")
        # The faulted tier keeps its old statistics; the others advanced.
        assert tiers["hybrid"].statistics("wide") is registered
        current = tiers["equi-depth"].statistics("wide")
        assert current.version == table.statistics_version
        _, modes = service.refresh_incremental("wide")
        assert modes == {"hybrid": "incremental", "equi-depth": "fresh", "uniform": "fresh"}
        tiers = self._tiers(service, "wide")
        assert tiers["hybrid"].statistics("wide") is current
        assert standalone.refresh(table) == "incremental"
        self._assert_same_statistics(tiers["hybrid"], standalone, table)

    def test_tier_rescan_becomes_the_current_record(self):
        table = _wide_table()
        service = self._service(table)
        hybrid = self._tiers(service, "wide")["hybrid"]
        hybrid.observe_values("wide", "n", _drift_batch(seed=13, rows=512))
        report = service.maintain()["wide"]
        assert report == {"hybrid": "full", "equi-depth": "fresh", "uniform": "fresh"}
        rescanned = self._tiers(service, "wide")["hybrid"].statistics("wide")
        assert service._store.current().payload["wide"].statistics is rescanned
        # The other tiers adopt the rescan at the next refresh, after
        # which the table has one record again.
        _, modes = service.refresh_incremental("wide")
        assert modes == {"hybrid": "fresh", "equi-depth": "incremental", "uniform": "incremental"}
        tiers = self._tiers(service, "wide")
        assert all(tier.statistics("wide") is rescanned for tier in tiers.values())
        _, modes = service.refresh_incremental("wide")
        assert set(modes.values()) == {"fresh"}


class TestOnlineLearning:
    def _setup(self, seed=20):
        rng = np.random.default_rng(seed)
        data = np.clip(rng.normal(300.0, 80.0, 6_000), 0.0, 1_000.0)
        table = Table("learn", {"x": (data, DOMAIN)})
        catalog = Catalog(family="equi-width", sample_size=500)
        catalog.analyze(table, seed=3)
        base = catalog.column_statistic("learn", "x")
        return table, catalog, OnlineLearningEstimator(base, DOMAIN, learning_rate=0.4)

    def _feedback_rounds(self, table, learner, seeds):
        rng = np.random.default_rng(seeds)
        errors = []
        for _ in range(200):
            a = float(rng.uniform(0.0, 900.0))
            b = float(min(a + rng.uniform(20.0, 150.0), 1_000.0))
            errors.append(abs(learner.observe(a, b, _true_selectivity(table, a, b))))
        return np.array(errors)

    def test_feedback_shrinks_error(self):
        table, _, learner = self._setup()
        errors = self._feedback_rounds(table, learner, 21)
        assert errors[-50:].mean() < errors[:50].mean()
        assert learner.observations == 200
        assert learner.correction_mass > 0.0

    def test_corrections_survive_rebind(self):
        table, catalog, learner = self._setup()
        self._feedback_rounds(table, learner, 22)
        mass_before = learner.correction_mass
        table.append({"x": _drift_batch(seed=23, rows=500)})
        catalog.refresh(table)
        learner.rebind(catalog.column_statistic("learn", "x"))
        assert learner.rebinds == 1
        assert 0.0 < learner.correction_mass < mass_before
        # Still a valid, clipped probability after the swap.
        sel = learner.selectivities(np.array([100.0, 250.0]), np.array([400.0, 600.0]))
        assert np.all((sel >= 0.0) & (sel <= 1.0))

    def test_rejects_invalid_feedback(self):
        _, _, learner = self._setup()
        with pytest.raises(InvalidQueryError):
            learner.observe(100.0, 200.0, 1.5)
        with pytest.raises(InvalidSampleError):
            OnlineLearningEstimator(learner.base, DOMAIN, bins=1)
        with pytest.raises(InvalidSampleError):
            OnlineLearningEstimator(learner.base, DOMAIN, learning_rate=0.0)

    def test_telemetry_counters(self):
        table, _, learner = self._setup()
        with telemetry.session() as session:
            learner.observe(100.0, 300.0, _true_selectivity(table, 100.0, 300.0))
            learner.rebind(learner.base)
            assert session.metrics.counter("online.feedback") == 1
            assert session.metrics.counter("online.rebind") == 1
            assert session.metrics.gauge("online.learning.correction") >= 0.0
