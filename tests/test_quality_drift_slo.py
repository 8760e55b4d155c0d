"""Tests for quality tracking, drift monitors, SLOs and exporters."""

import json
import math
import pathlib

import numpy as np
import pytest

from repro import telemetry
from repro.data.domain import Interval
from repro.telemetry import (
    DriftMonitor,
    JsonlEventLog,
    MetricsRegistry,
    QualityTracker,
    ReservoirSample,
    SLOSpec,
    StalenessMonitor,
    evaluate_bench,
    evaluate_registry,
    evaluate_snapshot,
    iter_events,
    ks_distance,
    parse_exposition,
    prometheus_exposition,
    qerror,
    qerrors,
    record_quality,
    render_report,
)
from repro.telemetry.slo import DEFAULT_SLOS, load_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestQError:
    def test_symmetric_ratio(self):
        assert qerror(0.2, 0.1) == pytest.approx(2.0)
        assert qerror(0.1, 0.2) == pytest.approx(2.0)
        assert qerror(0.3, 0.3) == pytest.approx(1.0)

    def test_zero_truth_stays_finite(self):
        value = qerror(0.5, 0.0)
        assert math.isfinite(value)
        assert value == pytest.approx(0.5 / 1e-6)

    def test_vectorized_matches_scalar(self):
        est = np.array([0.1, 0.5, 0.0])
        true = np.array([0.2, 0.5, 0.25])
        batch = qerrors(est, true)
        scalar = [qerror(e, t) for e, t in zip(est, true)]
        assert batch == pytest.approx(scalar)


class TestQualityTracker:
    def test_record_emits_series_and_counter(self):
        with telemetry.session() as t:
            record = record_quality(0.2, 0.1, key="points")
        assert record.qerror == pytest.approx(2.0)
        assert record.abs_error == pytest.approx(0.1)
        assert t.metrics.counter("quality.observations") == 1
        assert t.metrics.summary("quality.qerror").count == 1
        assert t.metrics.summary("quality.qerror.points").count == 1
        assert t.metrics.summary("quality.abs_error.points").count == 1

    def test_record_batch_uses_one_series_write(self):
        est = np.array([0.1, 0.2, 0.4])
        true = np.array([0.2, 0.2, 0.1])
        with telemetry.session() as t:
            q = telemetry.record_quality_batch(est, true, key="Kernel")
        assert q == pytest.approx([2.0, 1.0, 4.0])
        assert t.metrics.counter("quality.observations") == 3
        assert t.metrics.summary("quality.qerror.Kernel").count == 3

    def test_record_batch_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            telemetry.record_quality_batch(np.zeros(3), np.zeros(4))

    def test_disabled_telemetry_returns_record_without_metrics(self):
        assert telemetry.get_telemetry().enabled is False
        record = record_quality(0.5, 0.25)
        assert record.qerror == pytest.approx(2.0)
        assert telemetry.get_telemetry().metrics.snapshot()["counters"] == {}

    def test_event_log_receives_quality_events(self, tmp_path):
        log = JsonlEventLog(tmp_path / "events.jsonl")
        tracker = QualityTracker(event_log=log)
        tracker.record(0.2, 0.1, key="t")
        log.close()
        events = list(iter_events(tmp_path / "events.jsonl"))
        assert len(events) == 1
        assert events[0]["kind"] == "quality"
        assert events[0]["qerror"] == pytest.approx(2.0)


class TestReservoirAndKS:
    def test_reservoir_bounds_memory(self):
        reservoir = ReservoirSample(capacity=32, seed=0)
        reservoir.extend(np.arange(10_000, dtype=float))
        assert reservoir.values().size == 32
        assert reservoir.seen == 10_000

    def test_reservoir_is_deterministic(self):
        a, b = ReservoirSample(16, seed=5), ReservoirSample(16, seed=5)
        values = np.random.default_rng(0).normal(size=500)
        a.extend(values)
        b.extend(values)
        assert a.values() == pytest.approx(b.values())

    def test_ks_identical_samples_is_zero(self):
        values = np.random.default_rng(1).normal(size=200)
        assert ks_distance(values, values) == 0.0

    def test_ks_disjoint_samples_is_one(self):
        assert ks_distance(np.zeros(10), np.ones(10) * 5) == 1.0

    def test_ks_empty_raises(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.ones(3))


class TestDriftMonitor:
    def test_detects_distribution_shift(self):
        rng = np.random.default_rng(3)
        monitor = DriftMonitor(capacity=256, min_recent=32)
        baseline = rng.normal(0.0, 1.0, 1_000)
        monitor.set_baseline("t", "x", baseline)

        monitor.ingest("t", "x", rng.normal(0.0, 1.0, 500))
        same = monitor.reading("t", "x")
        assert same is not None and same.ks < 0.15

        shifted = DriftMonitor(capacity=256, min_recent=32)
        shifted.set_baseline("t", "x", baseline)
        shifted.ingest("t", "x", rng.normal(3.0, 1.0, 500))
        moved = shifted.reading("t", "x")
        assert moved is not None and moved.ks > 0.8

    def test_no_reading_before_baseline_or_min_recent(self):
        monitor = DriftMonitor(min_recent=16)
        assert monitor.ingest("t", "x", np.ones(100)) is None  # no baseline
        monitor.set_baseline("t", "x", np.zeros(50))
        monitor.ingest("t", "x", np.ones(4))
        assert monitor.reading("t", "x") is None  # underfed

    def test_gauge_emitted_when_traced(self):
        rng = np.random.default_rng(4)
        monitor = DriftMonitor(min_recent=16)
        monitor.set_baseline("t", "x", rng.normal(size=200))
        with telemetry.session() as t:
            monitor.ingest("t", "x", rng.normal(size=64))
        assert t.metrics.counter("drift.values") == 64
        assert math.isfinite(t.metrics.gauge("drift.ks.t.x"))


class TestStalenessMonitor:
    def test_age_and_version_lag(self):
        monitor = StalenessMonitor()
        monitor.on_analyze("t", version=3, timestamp=100.0)
        staleness = monitor.observe("t", current_version=7, now=160.0)
        assert staleness is not None
        assert staleness.age_seconds == pytest.approx(60.0)
        assert staleness.version_lag == 4

    def test_unknown_table_is_none(self):
        assert StalenessMonitor().observe("ghost", 1) is None

    def test_forget_drops_stamps(self):
        monitor = StalenessMonitor()
        monitor.on_analyze("t", 1, timestamp=0.0)
        monitor.forget("t")
        assert monitor.observe("t", 2) is None

    def test_gauges_emitted_when_traced(self):
        monitor = StalenessMonitor()
        monitor.on_analyze("t", 1, timestamp=0.0)
        with telemetry.session() as t:
            monitor.observe("t", 3, now=10.0)
        assert t.metrics.gauge("drift.staleness.age.t") == pytest.approx(10.0)
        assert t.metrics.gauge("drift.staleness.lag.t") == pytest.approx(2.0)


class TestCatalogAndPlannerWiring:
    @pytest.fixture()
    def setup(self):
        from repro.db import Catalog, Planner, RangePredicate, Table

        rng = np.random.default_rng(0)
        domain = Interval(0.0, 1_000.0)
        table = Table("points", {"x": (rng.uniform(0, 1_000, 2_000), domain)})
        catalog = Catalog(sample_size=400)
        # ANALYZE draws its sample and seeds the drift baselines from it.
        catalog.analyze(table, seed=np.random.default_rng(1))
        return catalog, Planner(catalog), table, RangePredicate

    def test_analyze_stamps_staleness_and_baseline(self, setup):
        catalog, _, table, _ = setup
        staleness = catalog.staleness_of("points")
        assert staleness is not None
        assert staleness.version_lag == 0
        assert catalog.drift.has_baseline("points", "x")

    def test_observe_values_produces_drift_reading(self, setup):
        catalog, _, table, _ = setup
        shifted = np.random.default_rng(2).uniform(900, 1_000, 200)
        reading = catalog.observe_values("points", "x", shifted)
        assert reading is not None
        assert reading.ks > 0.5

    def test_invalidate_forgets_staleness(self, setup):
        catalog, _, _, _ = setup
        catalog.invalidate("points")
        assert catalog.staleness_of("points") is None

    def test_observe_actual_records_quality_by_table(self, setup):
        _, planner, table, RangePredicate = setup
        predicates = [RangePredicate("x", 100.0, 200.0)]
        with telemetry.session() as t:
            record = planner.observe_actual(table, predicates, actual_rows=180.0)
        assert record.truth == pytest.approx(0.09)
        assert record.qerror >= 1.0
        assert t.metrics.summary("quality.qerror.points").count == 1

    def test_observe_actual_negative_rows_raises(self, setup):
        from repro.core.base import InvalidQueryError

        _, planner, table, RangePredicate = setup
        with pytest.raises(InvalidQueryError):
            planner.observe_actual(table, [RangePredicate("x", 0.0, 1.0)], -5.0)

    def test_plan_emits_staleness_gauges(self, setup):
        _, planner, table, RangePredicate = setup
        with telemetry.session() as t:
            planner.plan(table, [RangePredicate("x", 0.0, 500.0)])
        assert math.isfinite(t.metrics.gauge("drift.staleness.lag.points"))


class TestFeedbackWiring:
    def test_adaptive_histogram_records_quality_and_shift(self):
        from repro.feedback import AdaptiveHistogram

        model = AdaptiveHistogram(Interval(0.0, 1.0), bins=16)
        assert model.distribution_shift == 0.0
        with telemetry.session() as t:
            model.observe(0.0, 0.25, true_selectivity=0.8)
        assert model.distribution_shift > 0.0
        assert t.metrics.summary("quality.qerror.AdaptiveHistogram").count == 1
        gauge = t.metrics.gauge("drift.feedback.shift.AdaptiveHistogram")
        assert gauge == pytest.approx(model.distribution_shift)

    def test_feedback_kernel_records_quality_and_shift(self):
        from repro.feedback import FeedbackKernelEstimator

        sample = np.random.default_rng(0).uniform(0.0, 1.0, 300)
        model = FeedbackKernelEstimator(sample, bandwidth=0.05, domain=Interval(0.0, 1.0))
        assert model.distribution_shift == pytest.approx(0.0)
        with telemetry.session() as t:
            model.observe(0.0, 0.25, true_selectivity=0.9)
        assert model.distribution_shift > 0.0
        assert t.metrics.summary("quality.qerror.FeedbackKernelEstimator").count == 1
        gauge = t.metrics.gauge("drift.feedback.shift.FeedbackKernelEstimator")
        assert gauge == pytest.approx(model.distribution_shift)

    def test_evaluation_path_records_quality(self):
        from repro import estimators
        from repro.data.relation import Relation
        from repro.workload.metrics import mean_relative_error
        from repro.workload.queries import generate_query_file

        values = np.random.default_rng(0).uniform(0.0, 100.0, 3_000)
        relation = Relation(values, Interval(0.0, 100.0), name="r")
        queries = generate_query_file(relation, 0.05, n_queries=40, seed=1)
        estimator = estimators.equi_width(values[:500], relation.domain)
        with telemetry.session() as t:
            mean_relative_error(estimator, queries)
        summary = t.metrics.summary("quality.qerror.EquiWidthHistogram")
        assert summary.count == 40
        assert t.metrics.counter("quality.observations") == 40


class TestSLO:
    def _snapshot(self):
        registry = MetricsRegistry()
        for value in np.linspace(0.001, 0.010, 100):
            registry.observe("quality.qerror", 1.0 + value)
        registry.inc("cache.hit.context", 70)
        registry.inc("cache.miss.context", 30)
        return registry

    def test_quantile_spec_passes_and_burns(self):
        spec = SLOSpec(
            name="q", kind="quantile", metric="quality.qerror",
            objective="p90", threshold=2.0,
        )
        [result] = evaluate_registry([spec], self._snapshot())
        assert result.passed is True
        assert 0.0 < result.burn < 1.0

    def test_quantile_spec_fails_when_over_budget(self):
        spec = SLOSpec(
            name="q", kind="quantile", metric="quality.qerror",
            objective="p90", threshold=1.001,
        )
        [result] = evaluate_registry([spec], self._snapshot())
        assert result.passed is False
        assert result.burn > 1.0

    def test_hit_rate_floor(self):
        spec = SLOSpec(
            name="hr", kind="hit_rate", metric="context", objective="ratio",
            threshold=0.6, direction="ge",
        )
        [result] = evaluate_registry([spec], self._snapshot())
        assert result.passed is True
        assert result.observed == pytest.approx(0.7)

    def test_min_count_skips_underfed_spec(self):
        spec = SLOSpec(
            name="q", kind="quantile", metric="quality.qerror",
            objective="p90", threshold=2.0, min_count=1_000,
        )
        [result] = evaluate_registry([spec], self._snapshot())
        assert result.passed is None
        assert result.status == "skipped"

    def test_missing_series_skips(self):
        spec = SLOSpec(
            name="q", kind="quantile", metric="nothing.here",
            objective="p99", threshold=1.0,
        )
        [result] = evaluate_snapshot([spec], {"counters": {}, "values": {}})
        assert result.status == "skipped"

    def test_record_writes_burn_gauge_and_violations(self):
        registry = self._snapshot()
        specs = [
            SLOSpec(name="ok", kind="quantile", metric="quality.qerror",
                    objective="p90", threshold=2.0),
            SLOSpec(name="bad", kind="quantile", metric="quality.qerror",
                    objective="p90", threshold=1.001),
        ]
        evaluate_registry(specs, registry, record=True)
        assert math.isfinite(registry.gauge("slo.burn.ok"))
        assert registry.gauge("slo.burn.bad") > 1.0
        assert registry.counter("slo.violations") == 1

    def test_bench_slos_evaluate_against_committed_perf_file(self):
        bench = load_bench(REPO_ROOT / "BENCH_perf.json")
        results = evaluate_bench(DEFAULT_SLOS, bench)
        evaluated = [result for result in results if result.passed is not None]
        assert evaluated, "no bench SLO evaluated against BENCH_perf.json"
        assert all(result.passed for result in evaluated), render_report(results)

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="nope", metric="m", objective="p50", threshold=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="quantile", metric="m", objective="p12", threshold=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="quantile", metric="m", objective="p50", threshold=-1.0)

    def test_render_report_mentions_every_spec(self):
        registry = self._snapshot()
        specs = [
            SLOSpec(name="alpha", kind="quantile", metric="quality.qerror",
                    objective="p90", threshold=2.0),
            SLOSpec(name="beta", kind="quantile", metric="missing",
                    objective="p90", threshold=2.0),
        ]
        report = render_report(evaluate_registry(specs, registry))
        assert "alpha" in report and "beta" in report
        assert "PASS" in report and "SKIPPED" in report


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("planner.plan", 5)
        registry.set_gauge("drift.ks.points.x", 0.25)
        for value in (0.001, 0.002, 0.003, 0.004):
            registry.observe("span.planner.plan", value)
        return registry

    def test_round_trips_through_parser(self):
        snapshot = self._registry().snapshot()
        text = prometheus_exposition(snapshot, labels={"experiment": "fig04"})
        samples = parse_exposition(text)
        counter = samples["repro_planner_plan_total"]
        assert counter[0].value == 5.0
        assert counter[0].labels == {"experiment": "fig04"}
        gauge = samples["repro_drift_ks_points_x"]
        assert gauge[0].value == pytest.approx(0.25)
        summary = {s.labels["quantile"]: s.value for s in samples["repro_span_planner_plan"]}
        assert set(summary) == {"0.5", "0.9", "0.99"}
        assert samples["repro_span_planner_plan_count"][0].value == 4.0
        assert samples["repro_span_planner_plan_sum"][0].value == pytest.approx(0.010)
        assert text.rstrip().endswith("# EOF")

    def test_label_values_are_escaped(self):
        text = prometheus_exposition(
            {"counters": {"c": 1.0}, "gauges": {}, "values": {}},
            labels={"note": 'quo"te\\slash'},
        )
        samples = parse_exposition(text)
        assert samples["repro_c_total"][0].labels["note"] == 'quo"te\\slash'

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is { not an exposition")

    def test_nan_gauge_renders_and_parses(self):
        text = prometheus_exposition(
            {"counters": {}, "gauges": {"g": float("nan")}, "values": {}}
        )
        [sample] = parse_exposition(text)["repro_g"]
        assert math.isnan(sample.value)


class TestJsonlEventLog:
    def test_emit_and_iterate(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlEventLog(path) as log:
            log.emit("slo", name="a", passed=True)
            log.emit("drift", table="t", ks=0.5)
        events = list(iter_events(path))
        assert [event["kind"] for event in events] == ["slo", "drift"]
        assert all("ts" in event for event in events)

    def test_iter_skips_torn_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "ok", "ts": 1}\n{"kind": "torn...\n')
        events = list(iter_events(path))
        assert len(events) == 1

    def test_iter_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_events(tmp_path / "absent.jsonl")) == []

    def test_default_event_log_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVENT_LOG", raising=False)
        assert telemetry.default_event_log() is None
        monkeypatch.setenv("REPRO_EVENT_LOG", str(tmp_path / "ev.jsonl"))
        log = telemetry.default_event_log()
        assert log is not None and log.path == tmp_path / "ev.jsonl"
