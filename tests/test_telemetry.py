"""Tests for the telemetry subsystem (repro.telemetry)."""

# repro: allow-file[telemetry-naming] — synthetic span/metric names exercise the tracing machinery itself

import json

import numpy as np
import pytest

from repro import estimators, telemetry
from repro.bandwidth.scale import clamp_bandwidth
from repro.data.domain import Interval
from repro.telemetry import (
    BenchmarkExporter,
    MetricsRegistry,
    Telemetry,
    get_telemetry,
    set_telemetry,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    aggregate_manifests,
    load_manifests,
    to_jsonable,
    write_manifest,
)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.inc("b", 0.5)
        assert registry.counter("a") == 3.0
        assert registry.counter("b") == 0.5
        assert registry.counter("missing") == 0.0

    def test_observe_and_summary(self):
        registry = MetricsRegistry()
        for value in [1.0, 2.0, 3.0, 4.0]:
            registry.observe("v", value)
        summary = registry.summary("v")
        assert summary.count == 4
        assert summary.total == 10.0
        assert summary.mean == 2.5
        assert summary.min == 1.0
        assert summary.max == 4.0
        assert summary.p50 == 2.5

    def test_percentiles_interpolate(self):
        registry = MetricsRegistry()
        for value in range(101):  # 0..100
            registry.observe("v", float(value))
        summary = registry.summary("v")
        assert summary.p50 == 50.0
        assert summary.p90 == 90.0
        assert summary.p99 == 99.0

    def test_summary_of_unknown_series_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().summary("nothing")

    def test_time_context_manager_records_duration(self):
        registry = MetricsRegistry()
        with registry.time("t"):
            pass
        summary = registry.summary("t")
        assert summary.count == 1
        assert summary.total >= 0.0

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("v", 1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["values"]["v"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "values": {}}

    def test_gauges_set_and_read(self):
        registry = MetricsRegistry()
        assert np.isnan(registry.gauge("g"))
        registry.set_gauge("g", 0.25)
        registry.set_gauge("g", 0.75)  # last write wins
        assert registry.gauge("g") == 0.75
        assert registry.snapshot()["gauges"] == {"g": 0.75}

    def test_observe_many_matches_observe(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        values = np.linspace(0.0, 1.0, 50)
        a.observe_many("v", values)
        for value in values:
            b.observe("v", float(value))
        assert a.summary("v").as_dict() == b.summary("v").as_dict()

    def test_values_empty_after_sketch_spill(self):
        from repro.telemetry.metrics import RAW_SAMPLE_CAP

        registry = MetricsRegistry()
        registry.observe_many("v", np.linspace(1.0, 2.0, RAW_SAMPLE_CAP + 10))
        summary = registry.summary("v")
        assert summary.count == RAW_SAMPLE_CAP + 10
        assert summary.exact is False
        assert registry.values("v") == ()
        # Exact scalars survive the spill; percentiles come from the sketch.
        assert summary.min == 1.0
        assert summary.max == 2.0
        assert abs(summary.p50 - 1.5) / 1.5 <= 0.02

    def test_merge_combines_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.observe_many("v", np.array([1.0, 2.0]))
        b.observe_many("v", np.array([3.0, 4.0]))
        b.set_gauge("g", 1.5)
        a.merge(b)
        assert a.counter("c") == 5.0
        assert a.summary("v").count == 4
        assert a.summary("v").total == 10.0
        assert a.gauge("g") == 1.5
        # Source registry is unchanged.
        assert b.counter("c") == 3.0


class TestSpans:
    def test_nesting_builds_a_tree(self):
        t = Telemetry(enabled=True)
        with t.span("outer", tag="x"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        assert len(t.roots) == 1
        root = t.roots[0]
        assert root.name == "outer"
        assert root.tags == {"tag": "x"}
        assert [child.name for child in root.children] == ["inner", "inner"]
        assert root.duration >= sum(child.duration for child in root.children)

    def test_spans_by_name_and_render(self):
        t = Telemetry(enabled=True)
        with t.span("a"):
            with t.span("b"):
                pass
        assert len(t.spans_by_name("b")) == 1
        rendered = t.render_spans()
        assert "a" in rendered and "b" in rendered and "ms" in rendered

    def test_exception_inside_span_still_closes_it(self):
        t = Telemetry(enabled=True)
        with pytest.raises(RuntimeError):
            with t.span("broken"):
                raise RuntimeError("boom")
        assert t.roots[0].duration is not None

    def test_in_span(self):
        t = Telemetry(enabled=True)
        assert not t.in_span("a")
        with t.span("a"):
            assert t.in_span("a")
        assert not t.in_span("a")

    def test_snapshot_aggregates_by_name(self):
        t = Telemetry(enabled=True)
        for _ in range(3):
            with t.span("s"):
                pass
        by_name = t.snapshot()["spans"]["by_name"]
        assert by_name["s"]["count"] == 3

    def test_to_json_round_trips(self):
        t = Telemetry(enabled=True)
        with t.span("s"):
            t.metrics.inc("c")
        parsed = json.loads(t.to_json())
        assert parsed["metrics"]["counters"] == {"c": 1.0}

    def test_memory_peak_parent_covers_children(self):
        # A child span resetting the tracemalloc watermark must not erase
        # the parent's earlier high-water mark: the big allocation happens
        # in the parent *before* the child opens, so parent >= child and
        # parent >= the allocation size must both hold.
        t = Telemetry(enabled=True, trace_memory=True)
        try:
            with t.span("parent"):
                big = np.ones(2_000_000)  # ~16 MB, tracked by tracemalloc
                del big
                with t.span("child"):
                    small = np.ones(1_000)
                    del small
        finally:
            t.close()
        parent = t.spans_by_name("parent")[0]
        child = t.spans_by_name("child")[0]
        assert parent.memory_peak is not None and child.memory_peak is not None
        assert parent.memory_peak >= child.memory_peak
        assert parent.memory_peak >= 2_000_000 * 8


class TestDisabledMode:
    def test_global_default_is_disabled(self):
        assert get_telemetry().enabled is False

    def test_disabled_span_records_nothing(self):
        t = Telemetry(enabled=False)
        with t.span("s"):
            pass
        assert t.roots == ()
        assert t.snapshot()["spans"]["tree"] == []

    def test_disabled_span_reuses_null_context(self):
        t = Telemetry(enabled=False)
        assert t.span("a") is t.span("b")

    def test_session_swaps_and_restores_global(self):
        before = get_telemetry()
        with telemetry.session() as active:
            assert get_telemetry() is active
            assert active.enabled
        assert get_telemetry() is before

    def test_set_telemetry_returns_previous(self):
        before = get_telemetry()
        replacement = Telemetry(enabled=True)
        assert set_telemetry(replacement) is before
        assert set_telemetry(before) is replacement


class TestEstimatorInstrumentation:
    DOMAIN = Interval(0.0, 100.0)

    @pytest.fixture()
    def sample(self):
        return np.random.default_rng(3).uniform(0.0, 100.0, 400)

    def test_build_and_query_recorded(self, sample):
        with telemetry.session() as t:
            estimator = estimators.equi_width(sample, self.DOMAIN)
            estimator.selectivity(10.0, 20.0)
            estimator.selectivities(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        counters = t.metrics.snapshot()["counters"]
        assert counters["estimator.build"] == 1
        assert counters["estimator.query"] == 3  # 1 scalar + 2 batched
        builds = t.spans_by_name("estimator.build")
        assert len(builds) == 1
        assert builds[0].tags["class"] == "EquiWidthHistogram"
        assert t.metrics.values("estimator.bins.EquiWidthHistogram")

    def test_nested_estimators_count_once(self, sample):
        with telemetry.session() as t:
            estimators.kernel(sample, self.DOMAIN)
        # BoundaryKernelEstimator.__init__ runs the (also instrumented)
        # KernelSelectivityEstimator.__init__; only the outermost
        # construction is an estimator.build event.
        assert t.metrics.counter("estimator.build") == 1
        assert len(t.spans_by_name("estimator.build")) == 1

    def test_kernel_records_bandwidth(self, sample):
        with telemetry.session() as t:
            estimator = estimators.kernel(sample, self.DOMAIN)
        values = t.metrics.values(f"estimator.bandwidth.{type(estimator).__name__}")
        assert values and values[0] == pytest.approx(estimator.bandwidth)

    def test_disabled_telemetry_records_nothing(self, sample):
        assert get_telemetry().enabled is False
        estimator = estimators.equi_width(sample, self.DOMAIN)
        estimator.selectivity(10.0, 20.0)
        assert get_telemetry().metrics.snapshot() == {"counters": {}, "gauges": {}, "values": {}}

    def test_clamp_counter(self):
        with telemetry.session() as t:
            assert clamp_bandwidth(1_000.0, 100.0) == pytest.approx(49.9)
            assert clamp_bandwidth(1.0, 100.0) == 1.0
        assert t.metrics.counter("estimator.bandwidth.clamp") == 1


class TestManifests:
    def _run_traced(self, tmp_path):
        from repro.experiments import fig04
        from repro.experiments.harness import ExperimentConfig, run_traced

        config = ExperimentConfig(n_queries=30, sample_size=200)
        return run_traced(
            "fig04",
            lambda cfg: fig04.run(cfg, bin_grid=np.array([4, 16])),
            config,
            manifest_directory=tmp_path,
        )

    def test_run_traced_writes_manifest(self, tmp_path):
        result, path, session = self._run_traced(tmp_path)
        assert path.exists()
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["experiment"] == "fig04"
        assert manifest["figure_id"] == result.figure_id
        assert manifest["rows"]
        counters = manifest["telemetry"]["metrics"]["counters"]
        assert counters["estimator.build"] >= 2
        assert counters["harness.experiment"] == 1
        assert any(
            name.startswith("estimator.build.seconds.")
            for name in manifest["telemetry"]["metrics"]["values"]
        )
        # The traced session is detached: the global is back to no-op.
        assert get_telemetry().enabled is False
        assert session.spans_by_name("harness.experiment")

    def test_load_and_aggregate(self, tmp_path):
        self._run_traced(tmp_path)
        self._run_traced(tmp_path)
        manifests = load_manifests(tmp_path)
        assert len(manifests) == 2
        rows = aggregate_manifests(tmp_path)
        assert len(rows) == 1
        assert rows[0]["experiment"] == "fig04"
        assert rows[0]["runs"] == 2
        assert rows[0]["builds"] >= 2

    def test_load_skips_foreign_files(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "other.json").write_text('{"schema": "something-else"}')
        assert load_manifests(tmp_path) == []
        assert aggregate_manifests(tmp_path) == []

    def test_write_manifest_unique_names(self, tmp_path):
        first = write_manifest(
            {"schema": MANIFEST_SCHEMA, "experiment": "x", "created_unix": 1.0},
            tmp_path,
        )
        second = write_manifest(
            {"schema": MANIFEST_SCHEMA, "experiment": "x", "created_unix": 2.0},
            tmp_path,
        )
        assert first != second

    def test_to_jsonable_handles_numpy(self):
        converted = to_jsonable(
            {"a": np.float64(1.5), "b": np.arange(3), "c": (np.int32(2), "s")}
        )
        assert converted == {"a": 1.5, "b": [0, 1, 2], "c": [2, "s"]}
        json.dumps(converted)


class TestBenchmarkExporter:
    class _Stats:
        mean = 0.5
        min = 0.4
        max = 0.6
        stddev = 0.01
        median = 0.5
        rounds = 7

    def test_export_and_merge(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        exporter = BenchmarkExporter()
        exporter.record("group", "one", self._Stats())
        assert exporter.export(path) == path
        other = BenchmarkExporter()
        other.record_seconds("group", "two", 1.25)
        other.export(path)
        data = json.loads(path.read_text())
        assert set(data["benchmarks"]) == {"group.one", "group.two"}
        assert data["benchmarks"]["group.one"]["mean_s"] == 0.5
        assert data["benchmarks"]["group.one"]["rounds"] == 7
        assert data["benchmarks"]["group.two"]["mean_s"] == 1.25

    def test_empty_export_touches_nothing(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        assert BenchmarkExporter().export(path) is None
        assert not path.exists()

    def test_corrupt_existing_file_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text("{broken")
        exporter = BenchmarkExporter()
        exporter.record_seconds("g", "n", 2.0)
        exporter.export(path)
        assert json.loads(path.read_text())["benchmarks"]["g.n"]["mean_s"] == 2.0

    def test_entries_are_typed(self):
        exporter = BenchmarkExporter()
        exporter.record("g", "timed", self._Stats())
        exporter.record_seconds("g", "single", 0.25)
        entries = exporter.entries
        for name in ("g.timed", "g.single"):
            assert entries[name]["kind"] == "timing"
            assert entries[name]["unit"] == "seconds"

    def test_record_value_for_ratios_and_rates(self):
        exporter = BenchmarkExporter()
        exporter.record_value("g", "speedup_x", 12.5, kind="ratio", unit="x")
        exporter.record_value(
            "g", "qps_x", 48_000.0, kind="rate", unit="per_second"
        )
        entries = exporter.entries
        assert entries["g.speedup_x"] == {
            "value": 12.5, "rounds": 1, "kind": "ratio", "unit": "x",
        }
        assert entries["g.qps_x"]["kind"] == "rate"
        # Dimensioned entries must NOT masquerade as seconds.
        assert "mean_s" not in entries["g.speedup_x"]

    def test_record_value_direction_override(self):
        exporter = BenchmarkExporter()
        exporter.record_value(
            "g", "overhead_x", 1.04, kind="ratio", unit="x", better="lower"
        )
        assert exporter.entries["g.overhead_x"]["better"] == "lower"

    def test_record_value_rejects_bad_kind_and_direction(self):
        exporter = BenchmarkExporter()
        with pytest.raises(ValueError):
            exporter.record_value("g", "n", 1.0, kind="latency", unit="s")
        with pytest.raises(ValueError):
            exporter.record_value(
                "g", "n", 1.0, kind="ratio", unit="x", better="sideways"
            )

    def test_entry_kind_inference(self):
        from repro.telemetry import entry_direction, entry_kind

        assert entry_kind("perf.speedup_x", {}) == "ratio"
        assert entry_kind("perf.build", {}) == "timing"
        assert entry_kind("perf.build", {"kind": "rate"}) == "rate"
        assert entry_direction("perf.speedup_x", {}) == "higher"
        assert entry_direction("perf.build", {}) == "lower"
        assert entry_direction("x", {"kind": "ratio", "better": "lower"}) == "lower"

    def test_bench_exposition_units(self):
        from repro.telemetry import bench_exposition

        text = bench_exposition(
            {
                "perf_batch.kernel_100": {
                    "median_s": 0.0003, "kind": "timing", "unit": "seconds",
                },
                "perf_batch.speedup_10000_x": {
                    "value": 22.0, "kind": "ratio", "unit": "x",
                },
                "perf_serving.qps_sustained_x": {
                    "value": 48_000.0, "kind": "rate", "unit": "per_second",
                },
                # Legacy mislabeled ratio: renders with the honest unit.
                "perf_telemetry.overhead_x": {"mean_s": 1.06, "rounds": 1},
            }
        )
        assert "repro_bench_perf_batch_kernel_100_seconds 0.0003" in text
        assert "repro_bench_perf_batch_speedup_10000_x_ratio 22.0" in text
        assert "repro_bench_perf_serving_qps_sustained_x_per_second 48000.0" in text
        assert "repro_bench_perf_telemetry_overhead_x_ratio 1.06" in text
        assert "_x_seconds" not in text
        assert text.endswith("# EOF\n")

    def test_bench_exposition_accepts_whole_perf_file(self):
        """The natural `json.load(BENCH_perf.json)` shape must render too."""
        from repro.telemetry import bench_exposition

        wrapped = {
            "schema": "repro.telemetry.bench/v1",
            "updated_unix": 1_700_000_000,
            "benchmarks": {
                "perf_batch.kernel_100": {
                    "median_s": 0.0003, "kind": "timing", "unit": "seconds",
                },
            },
        }
        text = bench_exposition(wrapped)
        assert "repro_bench_perf_batch_kernel_100_seconds 0.0003" in text


class TestPlannerTelemetry:
    @pytest.fixture()
    def planned(self):
        from repro.db import Catalog, Planner, RangePredicate, Table

        domain = Interval(0.0, 1_000.0)
        rng = np.random.default_rng(0)
        table = Table(
            "points",
            {
                "x": (rng.uniform(0, 1_000, 2_000), domain),
                "z": (rng.uniform(0, 1_000, 2_000), domain),
            },
        )
        catalog = Catalog(sample_size=500)
        catalog.analyze(table, seed=1)
        planner = Planner(catalog)
        predicates = [RangePredicate("x", 100.0, 120.0), RangePredicate("z", 0.0, 800.0)]
        return planner, table, predicates

    def test_plan_carries_timings_and_provenance(self, planned):
        planner, table, predicates = planned
        plan = planner.plan(table, predicates)
        stages = dict(plan.timings)
        assert set(stages) == {"estimate", "costing"}
        assert all(seconds >= 0 for seconds in stages.values())
        assert any("column(x)" in entry for entry in plan.provenance)
        assert any("independence" in entry for entry in plan.provenance)

    def test_explain_analyze_renders_details(self, planned):
        planner, table, predicates = planned
        plan = planner.plan(table, predicates)
        plain = plan.explain()
        analyzed = plan.explain(analyze=True)
        assert "estimates:" not in plain
        assert "estimates:" in analyzed and "timings:" in analyzed

    def test_planner_spans_when_traced(self, planned):
        planner, table, predicates = planned
        with telemetry.session() as t:
            planner.plan(table, predicates)
        assert t.metrics.counter("planner.plan") == 1
        assert len(t.spans_by_name("planner.estimate")) == 1


class TestOnlineTelemetry:
    def test_batches_recorded(self):
        from repro.data.relation import Relation

        values = np.random.default_rng(0).uniform(0.0, 100.0, 3_000)
        relation = Relation(values, Interval(0.0, 100.0), name="r")
        from repro.online.aggregator import OnlineAggregator

        with telemetry.session() as t:
            stream = OnlineAggregator(relation, seed=0)
            stream.advance(1_000)
            stream.advance(1_000)
        counters = t.metrics.snapshot()["counters"]
        assert counters["online.batch"] == 2
        assert counters["online.records"] == 2_000
        fractions = t.metrics.values("online.scan.fraction")
        assert fractions == (pytest.approx(1 / 3), pytest.approx(2 / 3))
