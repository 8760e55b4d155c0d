"""End-to-end serving benchmark of the selectivity-estimation service.

    python3 perfbench/run.py --workload optimizer-cold --seed 1 --seconds 15 --trace 0

Builds the workload's table, registers it with a fresh
``EstimationService`` and drives the service from one client thread in
a closed loop (each request is sent when the previous one returned)
for ``--seconds`` of measured time, split into phases.  Between phases,
outside the timed phase, a reference replay checks every answer: the
same ops are applied to a copy of the table, and each non-degraded
answer must equal the estimate of an independently built ``Catalog`` +
``Planner`` on the same table version.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: The measured time is split into this many phases.  Verification and
#: the set-up probes run in the gaps, so the phases sample the machine
#: across the run's whole wall time.
PHASES = 8
#: ``estimate_p50_us`` averages the median latency of windows this long.
WINDOW_S = 1.0
#: Traced runs alternate untraced and traced blocks of this length.
BLOCK_S = 0.5
#: Ops in the maintenance probe of the read-only workloads: the
#: ingest-drift write stream's first 64 writes and 16 refreshes.
PROBE_OPS = 80
#: Accuracy is scored on this many first reads, the same requests in
#: every run of a seed, so machine speed cannot move it.
ACCURACY_READS = 6_000
#: Relative tolerance of the reference comparison.
TOLERANCE = 1e-12
#: Flag bits of a read record.
CACHED, DEGRADED, FAILED, TRACED = 1, 2, 4, 8


class Recorder:
    """What happened in the timed phases, in execution order."""

    def __init__(self, families: "tuple[str, ...]") -> None:
        self.families = families
        #: Per executed op: a read index (>= 0) or ``-1 - maintenance index``.
        self.order = array("i")
        self.request = array("i")
        self.latency = array("d")
        #: Measured seconds into the run at which each read returned.
        self.clock = array("d")
        self.rows = array("d")
        self.wait = array("d")
        self.attempts = array("i")
        self.flags = array("b")
        self.tier = array("b")
        #: Maintenance ops: (op, seconds, {family: mode} or None, failed, traced)
        self.maintenance: list[tuple] = []
        self.measured_s = 0.0


def execute(service, table, op) -> "dict[str, str] | None":
    """Apply one maintenance op; returns the refresh mode per family."""
    import workloads as w

    kind = op[0]
    if kind == w.APPEND:
        table.append(op[1])
    elif kind == w.DELETE:
        table.delete_where(op[1])
    elif kind == w.REFRESH:
        return service.refresh_incremental(w.TABLE)[1]
    elif kind == w.MAINTAIN:
        return service.maintain().get(w.TABLE, {})
    else:
        raise ValueError(f"unknown op {kind!r}")
    return None


def drive(service, table, feed, rec, *, seconds=math.inf, limit=None, tracer=None):
    """Run ops from ``feed`` for ``seconds`` of measured time or ``limit`` ops.

    Refilling the feed and switching the tracer on or off are excluded
    from the measured time, which is added to ``rec.measured_s``.
    """
    import workloads as w

    predicates = feed.requests.predicates
    offset = rec.measured_s
    paused = 0.0
    done = 0
    # Blocks follow the run's measured clock, across phases.
    traced = tracer is not None and int(offset / BLOCK_S) % 2 == 1
    if traced:
        tracer.install()
    next_toggle = BLOCK_S - offset % BLOCK_S
    begin = now = time.perf_counter()
    while True:
        measured = now - begin - paused
        if measured >= seconds or done == limit:
            break
        if tracer is not None and measured >= next_toggle:
            t = time.perf_counter()
            traced = not traced
            tracer.install() if traced else tracer.uninstall()
            next_toggle += BLOCK_S
            paused += time.perf_counter() - t
        if not feed.ready():
            t = time.perf_counter()
            feed.refill()
            paused += time.perf_counter() - t
        op = feed.next()
        done += 1
        if op[0] == w.READ:
            flags = TRACED if traced else 0
            start = time.perf_counter()
            try:
                result = service.estimate(w.TABLE, predicates[op[1]])
            except Exception:  # counted as a failed request; the run goes on
                result = None
            now = time.perf_counter()
            rec.order.append(len(rec.latency))
            rec.request.append(op[1])
            rec.latency.append(now - start)
            rec.clock.append(offset + now - begin - paused)
            if result is None:
                rec.rows.append(math.nan)
                rec.wait.append(0.0)
                rec.attempts.append(0)
                rec.flags.append(flags | FAILED)
                rec.tier.append(-1)
            else:
                rec.rows.append(result.plan.estimated_rows)
                rec.wait.append(result.wait_s)
                rec.attempts.append(result.attempts)
                rec.flags.append(
                    flags | (CACHED if result.cached else 0) | (DEGRADED if result.degraded else 0)
                )
                rec.tier.append(rec.families.index(result.tier))
        else:
            if op[0] == w.DELETE:
                t = time.perf_counter()
                op = (w.DELETE, w.delete_box(table, op[1]))
                paused += time.perf_counter() - t
            start = time.perf_counter()
            try:
                modes, failed = execute(service, table, op), False
            except Exception:  # counted as a failed op; the run goes on
                modes, failed = None, True
            now = time.perf_counter()
            rec.order.append(-1 - len(rec.maintenance))
            rec.maintenance.append((op, now - start, modes, failed, traced))
    if tracer is not None:
        tracer.uninstall()
    rec.measured_s = offset + now - begin - paused


def maintenance_only(chunks):
    """The write and refresh ops of an op stream, without its reads."""
    import workloads as w

    for chunk in chunks:
        yield [op for op in chunk if op[0] != w.READ]


class Reference:
    """An independent replay of a run, checked op by op.

    A copy of the table receives the same writes.  A ``Catalog`` and
    ``Planner`` of the service's first tier family receive the same
    refresh and maintain calls.  The service's ANALYZE results are
    evicted from the process-wide statistics cache first, so the
    reference builds its own statistics.

    Per read it records the exact row count at the moment the read was
    made (``truths``) and whether the read failed (``bad``): it raised,
    answered other than a finite row count in [0, N], or answered
    non-degraded but unequal to the reference planner.  ``failed_ops``
    counts maintenance ops that raised or returned another refresh mode
    than the reference catalog.
    """

    def __init__(self, data, family: str) -> None:
        from repro.db.catalog import Catalog
        from repro.db.planner import Planner

        import workloads as w

        self.family = family
        self.table = data.table()
        Catalog(family).invalidate(w.TABLE)
        self.catalog = Catalog(family)
        self.catalog.analyze(self.table, seed=w.DATA_SEED)
        self.planner = Planner(self.catalog)
        self.truths = array("d")
        self.bad = array("b")
        self.failed_ops = 0
        self._replayed = 0
        #: request index -> [truth, reference rows or None] at this table version
        self._memo: dict[int, list] = {}

    def replay(self, rec, predicates) -> None:
        """Check every op recorded since the previous call."""
        import workloads as w

        table = self.table
        for slot in rec.order[self._replayed :]:
            if slot >= 0:
                self.bad.append(not self._check_read(rec, slot, predicates))
                continue
            op, _, modes, failed, _ = rec.maintenance[-1 - slot]
            self.failed_ops += failed
            if op[0] == w.APPEND:
                table.append(op[1])
                self._memo.clear()
            elif op[0] == w.DELETE:
                table.delete_where(op[1])
                self._memo.clear()
            else:
                if op[0] == w.REFRESH:
                    mode = self.catalog.refresh(table, seed=w.DATA_SEED)
                else:
                    mode = self.catalog.maintain([table]).get(w.TABLE, "fresh")
                self.failed_ops += modes is None or modes.get(self.family) != mode
        self._replayed = len(rec.order)

    def _check_read(self, rec, slot: int, predicates) -> bool:
        import workloads as w

        index = rec.request[slot]
        entry = self._memo.get(index)
        if entry is None:
            truth = self.table.count({p.column: (p.a, p.b) for p in predicates[index]})
            entry = self._memo[index] = [truth, None]
        self.truths.append(entry[0])
        flags, rows = rec.flags[slot], rec.rows[slot]
        if flags & FAILED or not (math.isfinite(rows) and 0.0 <= rows <= self.catalog.row_count(w.TABLE)):
            return False
        if flags & DEGRADED:
            return True
        if rec.families[rec.tier[slot]] != self.family:
            return False
        if entry[1] is None:
            entry[1] = self.planner.plan(self.table, predicates[index]).estimated_rows
        return abs(rows - entry[1]) <= TOLERANCE * max(1.0, abs(entry[1]))


def setup_probe(seed: int) -> float:
    """Seconds of one cold ``register`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(rec, reference, maintenance, setup_s: float) -> dict:
    import numpy as np

    import stats
    import workloads as w

    latency = np.frombuffer(rec.latency, dtype=np.float64)
    window = np.floor(np.frombuffer(rec.clock, dtype=np.float64) / WINDOW_S)
    groups = np.split(latency, np.flatnonzero(np.diff(window)) + 1)
    bad = np.frombuffer(reference.bad, dtype=np.int8).astype(bool)
    truths = np.frombuffer(reference.truths, dtype=np.float64)
    rows = np.frombuffer(rec.rows, dtype=np.float64)
    scored = ~bad
    scored[ACCURACY_READS:] = False
    # Refreshes by the mode the service's first tier reported, so each
    # mean covers one kind of work.
    refresh = {"incremental": [], "full": []}
    for op, seconds, modes, _, _ in maintenance:
        mode = modes.get(reference.family) if modes else None
        if op[0] in (w.REFRESH, w.MAINTAIN) and mode in refresh:
            refresh[mode].append(seconds)
    writes = [s for op, s, *_ in maintenance if op[0] in (w.APPEND, w.DELETE)]
    return {
        "estimate_p50_us": metric(np.mean([np.median(g) for g in groups]) * 1e6, "us"),
        "estimate_p99_us": metric(stats.percentile(latency, 99) * 1e6, "us"),
        "estimate_qps": metric(latency.size / rec.measured_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "mre": metric(stats.mre(rows[scored], truths[scored]), "ratio"),
        "qerror_p95": metric(stats.percentile(stats.qerrors(rows[scored], truths[scored]), 95), "ratio"),
        "answered_frac": metric(1.0 - bad.mean(), "ratio"),
        "refresh_incremental_ms": metric(stats.mean(refresh["incremental"]) * 1e3, "ms"),
        "refresh_full_ms": metric(stats.mean(refresh["full"]) * 1e3, "ms"),
        "write_mean_us": metric(stats.mean(writes) * 1e6, "us"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec, tracer, setup_tracer) -> dict:
    import numpy as np

    import spans
    import stats

    out: dict = {}
    flags = np.frombuffer(rec.flags, dtype=np.int8)
    latency = np.frombuffer(rec.latency, dtype=np.float64)
    traced = (flags & TRACED) != 0
    served = traced & ((flags & FAILED) == 0)
    count = max(int(served.sum()), 1)
    summary = tracer.summary()

    def span(name: str) -> dict:
        return summary.get(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})

    def mean(name: str, field: str, scale: float) -> float:
        s = span(name)
        return s[field] / s["calls"] * scale if s["calls"] else 0.0

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out["serving.estimate.calls"] = metric(span("serving.estimate")["calls"], "count")
    out["serving.estimate.self_us"] = metric(mean("serving.estimate", "self_s", 1e6), "us")
    out["serving.result_cache.hit_frac"] = metric(
        ((flags & CACHED) != 0)[served].sum() / count, "ratio"
    )
    out["serving.degraded_frac"] = metric(((flags & DEGRADED) != 0)[served].sum() / count, "ratio")
    out["serving.attempts_mean"] = metric(
        np.frombuffer(rec.attempts, dtype=np.int32)[served].sum() / count, "count"
    )
    out["serving.wait_us"] = metric(
        np.frombuffer(rec.wait, dtype=np.float64)[served].sum() / count * 1e6, "us"
    )
    skipped, plan_calls = tracer.plans_without_estimator()
    out["planner.plan.calls"] = metric(span("planner.plan")["calls"], "count")
    out["planner.plan.self_us"] = metric(mean("planner.plan", "self_s", 1e6), "us")
    out["planner.estimate_cache.hit_frac"] = metric(frac(skipped, plan_calls), "ratio")
    for family in spans.FAMILY_CLASSES:
        query = f"estimator.{family}.selectivity"
        out[f"{query}.calls"] = metric(span(query)["calls"], "count")
        out[f"{query}.self_us"] = metric(mean(query, "self_s", 1e6), "us")
        out[f"{query}.queries_per_call"] = metric(
            frac(tracer.queries.get(family, 0), span(query)["calls"]), "ratio"
        )
        out[f"estimator.{family}.build_ms"] = metric(mean(f"estimator.{family}.build", "total_s", 1e3), "ms")
    for method in ("update", "merge", "delete", "freeze"):
        out[f"summary.{method}_us"] = metric(mean(f"summary.{method}", "total_s", 1e6), "us")
    out["catalog.analyze_ms"] = metric(mean("catalog.analyze", "total_s", 1e3), "ms")
    out["catalog.refresh_ms"] = metric(mean("catalog.refresh", "total_s", 1e3), "ms")
    out["catalog.fork_us"] = metric(mean("catalog.fork", "total_s", 1e6), "us")
    modes = [m for op, _, ms, _, t in rec.maintenance if t and ms for m in ms.values()]
    for mode in ("incremental", "full"):
        out[f"catalog.refresh.{mode}_frac"] = metric(frac(modes.count(mode), len(modes)), "ratio")
    for method, unit, scale in (
        ("append", "us", 1e6),
        ("delete_where", "us", 1e6),
        ("deltas_since", "us", 1e6),
        ("sample_rows", "ms", 1e3),
    ):
        out[f"table.{method}_{unit}"] = metric(mean(f"table.{method}", "total_s", scale), unit)
    for name in ("serving", "planner", "statistics"):
        hits, misses = tracer.cache_lookups.get(name, (0, 0))
        out[f"cache.{name}.hit_frac"] = metric(frac(hits, hits + misses), "ratio")
    total_self = sum(s["self_s"] for s in summary.values())
    for layer in spans.LAYERS:
        own = sum(s["self_s"] for n, s in summary.items() if n.split(".")[0] == layer)
        out[f"layer.{layer}.self_frac"] = metric(frac(own, total_self), "ratio")
    setup = setup_tracer.summary()
    for layer in spans.LAYERS:
        own = sum(s["self_s"] for n, s in setup.items() if n.split(".")[0] == layer)
        out[f"setup.{layer}.self_ms"] = metric(own * 1e3, "ms")
    base = stats.percentile(latency[~traced & ((flags & FAILED) == 0)], 50)
    out["trace.overhead_frac"] = metric(
        (stats.percentile(latency[served], 50) - base) / base, "ratio"
    )
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = bootstrap.prepare()
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    from repro.serving import EstimationService, ServiceConfig

    import spans
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)}", file=sys.stderr)
        return 2

    data = w.make_data()
    table = data.table()
    config = ServiceConfig()
    service = EstimationService(config, seed=args.seed)
    setup_tracer = spans.Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        service.register(table, seed=w.DATA_SEED)
    finally:
        setup_tracer.uninstall()

    requests, chunks = w.op_stream(args.workload, data, args.seed)
    feed = w.Feed(requests, chunks)
    rec = Recorder(config.families)
    if args.workload == "optimizer-hot":
        warm = w.Feed(requests, iter([[(w.READ, i) for i in range(w.HOT_SETS)]]))
        drive(service, table, warm, Recorder(config.families), limit=w.HOT_SETS)
    reference = Reference(data, service.tiers(w.TABLE)[0])
    checked = [(rec, reference, requests)]
    probe = None
    if args.workload != "ingest-drift" and not args.trace:
        # The maintenance probe gets its own table and service, so its
        # writes never reach the reads being measured.
        probe_table = data.table()
        probe_service = EstimationService(config, seed=args.seed)
        probe_service.register(probe_table, seed=w.DATA_SEED)
        probe_requests, probe_chunks = w.op_stream("ingest-drift", data, args.seed)
        probe_feed = w.Feed(probe_requests, maintenance_only(probe_chunks))
        probe = Recorder(config.families)
        checked.append((probe, Reference(data, probe_service.tiers(w.TABLE)[0]), probe_requests))
    tracer = spans.Tracer() if args.trace else None
    setup_samples: list[float] = []
    for _ in range(PHASES):
        gc.collect()
        drive(service, table, feed, rec, seconds=args.seconds / PHASES, tracer=tracer)
        if probe is not None:
            drive(probe_service, probe_table, probe_feed, probe, limit=PROBE_OPS // PHASES)
        for recorder, ref, reqs in checked:
            ref.replay(recorder, reqs.predicates)
        if not args.trace and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args.seed))

    failures = sum(sum(ref.bad) + ref.failed_ops for _, ref, _ in checked)
    if args.trace:
        metrics = per_layer(rec, tracer, setup_tracer)
    else:
        maintenance = (probe or rec).maintenance
        metrics = end_to_end(rec, reference, maintenance, statistics.median(setup_samples))
    described = {
        "workload": args.workload,
        "reads": len(rec.latency),
        "distinct_sets": len(requests.items),
        "maintenance_ops": len((probe or rec).maintenance),
        "rows_end": table.row_count,
    }
    print(json.dumps(described), file=sys.stderr)
    attempted = sum(len(recorder.order) for recorder, _, _ in checked)
    result = {"correct": failures == 0, "attempted": attempted, "failed": failures, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
