"""The canonical registry of telemetry span and metric names.

Every dotted name the instrumented code records under — span names,
counter names, observed-value series — is declared here, in one place.
The registry exists for two consumers:

* **humans** reading ``docs/OBSERVABILITY.md`` and dashboards, who need
  one authoritative list of what the system emits, and
* the **static analyzer** (:mod:`repro.analysis`, rule
  ``telemetry-naming``), which checks every string literal passed to
  ``metrics.inc`` / ``metrics.observe`` / ``metrics.time`` /
  ``telemetry.span`` against this registry at lint time, so a typo like
  ``harness.cel`` is caught in CI instead of silently splitting a
  metric series.

Names follow DESIGN.md §"Telemetry conventions": dotted, lowercase,
``subsystem.noun[.verb]``.  Names with a dynamic last segment (a class
name, a cell tag, a cache name) are registered as *prefixes*: the
static part up to the dynamic segment must match a
:data:`REGISTERED_PREFIXES` entry.

Adding a new instrumentation site therefore takes two lines: the call
site and the registry entry.  The analyzer fails CI until both exist.
"""

from __future__ import annotations

#: Exact span/metric names recorded by the instrumented code.
REGISTERED_NAMES: frozenset[str] = frozenset(
    {
        # -- estimator lifecycle (repro.core.base) --------------------
        "estimator.build",
        "estimator.query",
        "estimator.query_batch",
        "estimator.query_batch.size",
        "estimator.bandwidth.clamp",
        # -- planner (repro.db.planner) -------------------------------
        "planner.plan",
        "planner.estimate",
        "planner.estimate.rows",
        # -- experiment harness (repro.experiments.harness) -----------
        "harness.experiment",
        "harness.cell",
        "harness.cell.error",
        "harness.load_context",
        "harness.context.load",
        # -- serving tier (repro.serving) ------------------------------
        "serving.request",
        "serving.request.seconds",
        "serving.wait.seconds",
        "serving.rejected",
        "serving.retry",
        "serving.shed",
        "serving.poisoned",
        "serving.degraded",
        "serving.unavailable",
        "serving.deadline.exceeded",
        "serving.queue.depth",
        "serving.inflight",
        "serving.fault",
        "serving.snapshot.publish",
        "serving.snapshot.version",
        # -- online aggregation (repro.online.aggregator) -------------
        "online.batch",
        "online.records",
        "online.batch.records",
        "online.scan.fraction",
        "online.resmooth",
        "online.bandwidth",
        # -- online-learning corrections (repro.online.learning) ------
        "online.feedback",
        "online.rebind",
        # -- mergeable column summaries (repro.core.summary) ----------
        "summary.update",
        "summary.delete",
        "summary.delete.unaccounted",
        "summary.merge",
        "summary.freeze",
        # -- delta-aware ANALYZE / refresh policy (repro.db.catalog) --
        "catalog.refresh.full",
        "catalog.refresh.incremental",
        "catalog.refresh.fresh",
        "catalog.refresh.drift",
        # -- accuracy tracking (repro.telemetry.quality) ---------------
        "quality.observations",
        # -- drift / staleness monitors (repro.telemetry.drift) --------
        "drift.values",
        # -- SLO evaluation (repro.telemetry.slo) ----------------------
        "slo.violations",
    }
)

#: Name families whose last segment(s) are dynamic (class names, cell
#: tags, cache names, span names).  A recorded name must equal the
#: prefix or extend it with further dotted segments.
REGISTERED_PREFIXES: frozenset[str] = frozenset(
    {
        # per-estimator-class series (repro.core.base)
        "estimator.build.seconds",
        "estimator.query.seconds",
        "estimator.query.latency",
        "estimator.bandwidth",
        "estimator.bins",
        # per-cell harness timings
        "harness.cell.seconds",
        # cache verbs + per-cache-name tallies (repro.db.cache)
        "cache.hit",
        "cache.miss",
        # per-table statistics-version gauges (repro.db.catalog)
        "catalog.statistics_version",
        # per-correction-model gauges (repro.online.learning)
        "online.learning",
        # q-error / absolute-error series, optionally keyed by
        # estimator class or table (repro.telemetry.quality)
        "quality.qerror",
        "quality.abs_error",
        # per-(table, column) KS gauges + per-table staleness gauges
        # (repro.telemetry.drift)
        "drift.ks",
        "drift.staleness.age",
        "drift.staleness.lag",
        # per-estimator-class distribution-shift gauges (repro.feedback)
        "drift.feedback.shift",
        # per-spec SLO burn gauges (repro.telemetry.slo)
        "slo.burn",
        # serving tier (repro.serving): per-table degradation tallies,
        # per-(table, tier) breaker gauges/counters, per-kind injected
        # faults, per-family served-tier tallies
        "serving.degraded",
        "serving.breaker.state",
        "serving.breaker.open",
        "serving.fault",
        "serving.tier",
        # every span auto-mirrors into a ``span.<name>`` series
        # (repro.telemetry.runtime)
        "span",
    }
)


def registered_names() -> frozenset[str]:
    """All exact registered names."""
    return REGISTERED_NAMES


def registered_prefixes() -> frozenset[str]:
    """All registered dynamic-suffix prefixes."""
    return REGISTERED_PREFIXES


def is_registered(name: str) -> bool:
    """Whether a *complete* dotted name is covered by the registry."""
    if name in REGISTERED_NAMES:
        return True
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in REGISTERED_PREFIXES
    )


def is_registered_prefix(static_prefix: str) -> bool:
    """Whether a *partial* name (the static head of an f-string) is plausible.

    Used by the analyzer for names like ``f"harness.cell.seconds.{tag}"``:
    the static head ``"harness.cell.seconds."`` must itself extend a
    registered name or prefix.  An empty static head is unverifiable and
    is accepted (the analyzer reports those separately in verbose mode).
    """
    if not static_prefix:
        return True
    head = static_prefix.rstrip(".")
    if is_registered(head):
        return True
    # The static head may stop mid-segment ("estimator.ba" + dynamic):
    # accept when some registered name/prefix starts with it.
    candidates = REGISTERED_NAMES | REGISTERED_PREFIXES
    return any(entry.startswith(static_prefix) for entry in candidates)
