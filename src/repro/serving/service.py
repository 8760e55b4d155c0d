"""The fault-tolerant estimation service.

:class:`EstimationService` wraps the catalog/planner stack for
concurrent callers who need an answer *now*, every time — the paper's
accuracy-vs-cost comparison turned into a graceful-degradation ladder:

* Each registered table carries one estimator **tier** per configured
  family, best first (default ``hybrid`` → ``equi-depth`` →
  ``uniform``: the paper's most accurate estimator backed by the
  ~13 µs histogram answer and the free uniform prior).
* Requests pass a bounded **admission queue**: at most ``max_inflight``
  execute, at most ``max_queue`` wait, and a full queue rejects with a
  typed :class:`~repro.serving.errors.Overloaded` carrying a
  retry-after hint — the service never blocks a caller without bound.
* Every request has a **deadline**; it is enforced while queued,
  before every tier attempt and before every retry sleep, so a
  request that cannot finish in time fails with
  :class:`~repro.serving.errors.DeadlineExceeded` instead of late.
* Transient tier failures **retry** with seeded jittered exponential
  backoff; repeated failures trip the per-(table, tier) **circuit
  breaker**, taking the broken tier out of the rotation until its
  cooldown probes succeed.
* A tier that fails (or is breaker-blocked, or shed) **falls back** to
  the next tier; each step is recorded in the returned plan's
  provenance and in ``serving.degraded`` metrics.  SLO burn measured
  by :mod:`repro.telemetry.slo` can preemptively shed the primary
  tier, trading accuracy for latency before the queue melts.
* ANALYZE never blocks readers: :meth:`register` builds the new tier
  set aside and publishes it through an atomic
  :class:`~repro.serving.snapshot.SnapshotStore` swap; in-flight
  requests finish on the version they pinned.
* One sample per table, not one per tier: :meth:`register` scans the
  table once into a :class:`~repro.db.catalog.TableStatistics` record
  and every tier builds its estimators from that record.
* Statistics maintenance is **incremental**: :meth:`refresh_incremental`
  plans one refresh per table
  (:meth:`repro.db.catalog.Catalog.plan_refresh` replays the table's
  delta log into copies of the record's summaries), then forks each
  tier's catalog
  (:meth:`repro.db.catalog.Catalog.fork`), builds the tier's
  estimators from the new record, and publishes the refreshed tier set
  as a new snapshot — in-flight estimates never see a half-merged
  summary, and a fault mid-refresh leaves the previous (consistent)
  tier serving.  :meth:`maintain` runs the drift-triggered variant
  across every registered table.
* Writers serialize only their publish: each reads the current
  payload, replaces its tables' entries and publishes under one
  service lock, so concurrent registrations and refreshes never drop
  each other's tables.  A refresh publishes only if its table's entry
  is still the one it started from (compare-and-set) and otherwise
  starts over from the newer entry, so it never replaces a register
  or refresh of the same table that published first.  Builds run
  outside the lock and readers never take it.

Every failure the caller can see is a subclass of
:class:`~repro.serving.errors.ServingError`.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.core.base import InvalidQueryError
from repro.db.cache import MISS, LRUCache
from repro.db.catalog import FAMILIES, Catalog, RefreshPlan, TableStatistics
from repro.db.planner import Plan, Planner, RangePredicate
from repro.db.table import Table
from repro.serving.breaker import BreakerBoard, BreakerConfig, CircuitBreaker
from repro.serving.errors import (
    CircuitOpen,
    DeadlineExceeded,
    EstimatorUnavailable,
    Overloaded,
    PoisonedResult,
    is_transient,
)
from repro.serving.faults import FaultInjector
from repro.serving.retry import RetryPolicy
from repro.serving.snapshot import SnapshotStore
from repro.telemetry import get_telemetry
from repro.telemetry.slo import SLOSpec, evaluate_registry, max_burn

#: Default fallback ladder: accuracy first, cheapness last.
DEFAULT_FAMILIES = ("hybrid", "equi-depth", "uniform")


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`EstimationService`."""

    families: tuple[str, ...] = DEFAULT_FAMILIES
    sample_size: int = 2_000
    max_inflight: int = 4
    max_queue: int = 16
    default_deadline_s: float = 1.0
    result_cache_size: int = 256
    breaker: BreakerConfig = BreakerConfig()
    retry: RetryPolicy = RetryPolicy()
    #: Shed the primary tier while any watched SLO burns at or above
    #: this ratio (1.0 = the objective is exactly exhausted).
    shed_burn_threshold: float = 1.0
    #: Re-evaluate the watched SLOs every N admitted requests
    #: (0 disables burn-driven shedding).
    shed_check_interval: int = 64

    def __post_init__(self) -> None:
        if not self.families:
            raise InvalidQueryError("at least one estimator family is required")
        unknown = [family for family in self.families if family not in FAMILIES]
        if unknown:
            raise InvalidQueryError(
                f"unknown estimator families {unknown}; available: {', '.join(FAMILIES)}"
            )
        if len(set(self.families)) != len(self.families):
            raise InvalidQueryError("estimator families must be distinct")
        if self.max_inflight < 1 or self.max_queue < 0:
            raise InvalidQueryError(
                "max_inflight must be >= 1 and max_queue >= 0"
            )
        if self.default_deadline_s <= 0:
            raise InvalidQueryError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.shed_burn_threshold <= 0:
            raise InvalidQueryError(
                f"shed_burn_threshold must be > 0, got {self.shed_burn_threshold}"
            )


@dataclasses.dataclass(frozen=True)
class EstimateResult:
    """One served estimate plus its degradation record."""

    plan: Plan
    table: str
    tier: str
    snapshot_version: int
    degraded: bool
    fallbacks: tuple[str, ...]
    attempts: int
    wait_s: float
    total_s: float
    cached: bool = False


@dataclasses.dataclass(frozen=True)
class _Tier:
    """One estimator family's catalog + planner for one snapshot."""

    family: str
    catalog: Catalog
    planner: Planner


@dataclasses.dataclass(frozen=True)
class _TableEntry:
    """Everything one table contributes to a snapshot payload."""

    table: Table
    tiers: tuple[_Tier, ...]
    #: The table's current record (with its ANALYZE seed and joint
    #: pairs); every tier builds from it.
    statistics: TableStatistics
    #: Families whose build failed (with the reason), for EXPLAIN-style
    #: introspection of a degraded tier set.
    build_failures: tuple[tuple[str, str], ...] = ()


class _Admission:
    """Bounded admission: ``max_inflight`` slots + ``max_queue`` waiters.

    A request either gets a slot, waits (deadline-bounded) for one, or
    is rejected immediately with :class:`Overloaded` — never unbounded
    blocking.  The retry-after hint scales with the queue length and
    an EMA of recent service times.
    """

    def __init__(
        self, max_inflight: int, max_queue: int, clock: Callable[[], float]
    ) -> None:
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._waiting = 0
        # Cold-start prior for the service-time EMA, used to size the
        # retry-after hint before any request completes.  1 ms matches
        # the flattened hybrid serving path (a cold estimate runs
        # ~0.4 ms; the old 10 ms prior dated from the per-bin loop and
        # overstated early back-off hints by an order of magnitude).
        self._ema_serve_s = 0.001

    def acquire(self, start: float, deadline_s: float) -> float:
        """Take a slot; returns seconds spent waiting in the queue."""
        entered = self._clock()
        with self._cond:
            if self._inflight >= self._max_inflight:
                if self._waiting >= self._max_queue:
                    retry_after = (self._waiting + 1) * max(self._ema_serve_s, 1e-3)
                    raise Overloaded(
                        f"admission queue full ({self._waiting} waiting, "
                        f"{self._inflight} in flight); retry after "
                        f"~{retry_after * 1e3:.0f} ms",
                        retry_after_s=retry_after,
                    )
                self._waiting += 1
                self._publish()
                try:
                    while self._inflight >= self._max_inflight:
                        elapsed = self._clock() - start
                        remaining = deadline_s - elapsed
                        if remaining <= 0:
                            raise DeadlineExceeded(
                                "deadline expired while queued for admission",
                                deadline_s=deadline_s,
                                elapsed_s=elapsed,
                            )
                        self._cond.wait(remaining)
                finally:
                    self._waiting -= 1
                    self._publish()
            self._inflight += 1
            self._publish()
        return self._clock() - entered

    def release(self, serve_s: float) -> None:
        """Return a slot and fold the service time into the EMA."""
        with self._cond:
            self._inflight -= 1
            self._ema_serve_s = 0.8 * self._ema_serve_s + 0.2 * max(serve_s, 0.0)
            self._publish()
            self._cond.notify()

    @property
    def depth(self) -> int:
        """Current number of queued (not yet admitted) requests."""
        with self._cond:
            return self._waiting

    def _publish(self) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.set_gauge("serving.queue.depth", float(self._waiting))
            telemetry.metrics.set_gauge("serving.inflight", float(self._inflight))


class EstimationService:
    """Deadline-bounded, degradation-aware selectivity serving.

    Parameters
    ----------
    config:
        Tier ladder, admission limits, breaker/retry tuning.
    seed:
        Seeds the retry-jitter RNG (explicit, per the project's
        seeding rules); two services with the same seed and fault
        schedule behave identically.
    slos:
        SLO specs watched for burn-driven shedding (see
        :data:`repro.telemetry.slo.SERVING_SLOS`).
    faults:
        Optional fault-injection schedule; also supplies the service
        clock, so injected skew moves deadlines and breaker cooldowns.
    sleep:
        Backoff sleeper (injectable for fast deterministic tests).
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        seed: int,
        slos: Sequence[SLOSpec] = (),
        faults: "FaultInjector | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._config = config
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self._slos = tuple(slos)
        self._faults = faults if faults is not None else FaultInjector()
        self._clock = self._faults.clock
        self._sleep = sleep
        self._store = SnapshotStore()
        self._breakers = BreakerBoard(config.breaker, clock=self._clock)
        self._admission = _Admission(
            config.max_inflight, config.max_queue, self._clock
        )
        self._results = LRUCache(config.result_cache_size, name="serving")
        self._state_lock = threading.Lock()
        # Serializes read-replace-publish of the snapshot payload.
        self._publish_lock = threading.Lock()
        self._requests = 0
        self._shedding = False
        self._shed_burn = 0.0

    # -- registration / snapshot lifecycle ----------------------------

    def register(
        self,
        table: Table,
        *,
        seed: int,
        joint: "list[tuple[str, str]] | None" = None,
    ) -> int:
        """ANALYZE ``table`` into a fresh tier set and publish it.

        Scans the table once into a
        :class:`~repro.db.catalog.TableStatistics` record, builds every
        configured family from it off to the side and swaps the result
        in atomically — readers keep serving from the snapshot they
        pinned.  A family whose build fails (e.g. an injected build
        exception) is skipped and recorded; the table serves degraded
        from the remaining tiers.  Returns the published snapshot
        version.

        Raises
        ------
        EstimatorUnavailable
            If *every* configured family fails to build, including when
            the scan itself fails (e.g. a joint pair names an unknown
            column); the causes name every family.
        """
        return self._publish({table.name: self._analyze(table, seed, joint)})

    def refresh(self, table_name: str, *, seed: "int | None" = None) -> int:
        """Rebuild one table's tiers and publish a new snapshot.

        Reuses the registration-time seed (and joint pairs) unless a
        new ``seed`` is given.  Readers pinned to the old snapshot are
        untouched; it retires once they finish.  If another writer
        publishes this table while the rebuild runs, the rebuild starts
        over from the newer entry (and its seed) instead of overwriting
        it.
        """
        while True:
            entry = self._entry(self._store.current().payload, table_name)
            statistics = entry.statistics
            rebuilt = self._analyze(
                entry.table,
                statistics.seed if seed is None else seed,
                list(statistics.joint) or None,
            )
            version = self._publish_refreshed({table_name: rebuilt}, {table_name: entry})
            if version is not None:
                return version

    def _analyze(
        self,
        table: Table,
        seed: "int | None",
        joint: "list[tuple[str, str]] | None",
    ) -> _TableEntry:
        """Scan ``table`` once and build every configured tier from the record."""
        try:
            statistics = TableStatistics.scan(table, self._config.sample_size, joint, seed)
        except Exception as exc:  # repro: allow[serving-errors] — a scan failure fails every tier; it is re-raised as EstimatorUnavailable with one cause per family
            raise EstimatorUnavailable(
                f"every estimator tier failed to build for table {table.name!r}: "
                f"the scan failed: {type(exc).__name__}: {exc}",
                causes=tuple((family, exc) for family in self._config.families),
            ) from exc
        tiers: list[_Tier] = []
        causes: list[tuple[str, BaseException]] = []
        for family in self._config.families:
            try:
                self._faults.check(f"tier.{family}.build")
                catalog = Catalog(family=family, sample_size=self._config.sample_size)
                catalog.build(table, statistics)
                tiers.append(_Tier(family, catalog, Planner(catalog)))
            except Exception as exc:  # repro: allow[serving-errors] — a failed tier build degrades to the next family; the cause is kept and re-raised when no tier builds
                causes.append((family, exc))
        if not tiers:
            raise EstimatorUnavailable(
                f"every estimator tier failed to build for table {table.name!r}: "
                + "; ".join(f"{family}: {exc}" for family, exc in causes),
                causes=tuple(causes),
            )
        return _TableEntry(
            table=table,
            tiers=tuple(tiers),
            statistics=statistics,
            build_failures=tuple(
                (family, f"{type(exc).__name__}: {exc}") for family, exc in causes
            ),
        )

    def refresh_incremental(self, table_name: str) -> "tuple[int, dict[str, str]]":
        """Fold one table's delta log into its tiers and publish.

        Plans the refresh once for the table
        (:meth:`repro.db.catalog.Catalog.plan_refresh` decides
        incremental vs full per the staleness budget and replays the
        deltas into copies of the record's summaries), then forks each
        tier's catalog, builds the tier's estimators from the new
        record (:meth:`repro.db.catalog.Catalog.apply`) and swaps the
        refreshed tier set in through the snapshot store — pinned
        readers keep the old, fully consistent catalogs.  A tier whose
        refresh fails (injected fault, a build error) keeps serving
        its previous statistics; the failure is recorded in the
        returned mode map rather than published half-applied, and the
        next refresh builds that tier from the table's current record.
        If another writer publishes this table while the refresh
        builds, the refresh starts over from the newer entry instead
        of overwriting it.

        Returns ``(snapshot_version, {family: mode})`` where mode is
        ``"fresh"``, ``"incremental"``, ``"full"`` or
        ``"failed: <error>"``.
        """
        while True:
            entry = self._entry(self._store.current().payload, table_name)
            refreshed, modes = self._refresh_tiers(entry, Catalog.apply)
            version = self._publish_refreshed({table_name: refreshed}, {table_name: entry})
            if version is not None:
                return version, modes

    def maintain(self, *, ks_threshold: float = 0.15) -> "dict[str, dict[str, str]]":
        """Drift-triggered selective refresh across all registered tables.

        Each tier's catalog decides per table whether its statistics
        drifted (KS distance against the frozen baseline) or lag the
        table's statistics version; only those tables are refreshed,
        from one refresh plan per table.  One atomic snapshot publish
        covers everything that changed — no publish at all when every
        table is fresh.  If another writer publishes one of the
        changed tables meanwhile, the pass starts over from the newer
        payload.  Returns ``{table: {family: mode}}``.
        """
        while True:
            payload = self._store.current().payload
            report: dict[str, dict[str, str]] = {}
            changed: dict[str, _TableEntry] = {}
            for table_name, entry in payload.items():
                refreshed, modes = self._refresh_tiers(
                    entry, lambda catalog, plan: catalog.apply_maintenance(plan, ks_threshold)
                )
                report[table_name] = modes
                if refreshed is not entry:
                    changed[table_name] = refreshed
            origins = {name: payload[name] for name in changed}
            if not changed or self._publish_refreshed(changed, origins) is not None:
                return report

    def _refresh_tiers(
        self,
        entry: _TableEntry,
        step: "Callable[[Catalog, RefreshPlan], str]",
    ) -> "tuple[_TableEntry, dict[str, str]]":
        """Run one refresh ``step`` on a fork of every tier's catalog.

        The plan — the table-level half of the refresh — is computed
        once, by the first tier to pass its fault check, from the
        table's current record, and shared by every tier.  Returns the
        refreshed entry (``entry`` itself when every tier stayed fresh
        or failed) and the mode per family.
        """
        plan: "RefreshPlan | None" = None
        tiers: list[_Tier] = []
        modes: dict[str, str] = {}
        for tier in entry.tiers:
            try:
                self._faults.check(f"tier.{tier.family}.refresh")
                if plan is None:
                    plan = tier.catalog.plan_refresh(entry.table, entry.statistics)
                fork = tier.catalog.fork()
                mode = step(fork, plan)
            except Exception as exc:  # repro: allow[serving-errors] — a failed tier refresh keeps the old (consistent) statistics serving; the error is reported in the mode map
                modes[tier.family] = f"failed: {type(exc).__name__}"
                tiers.append(tier)
                self._inc(f"serving.degraded.{entry.table.name}")
                continue
            modes[tier.family] = mode
            tiers.append(tier if mode == "fresh" else _Tier(tier.family, fork, Planner(fork)))
        if plan is None or all(new is old for new, old in zip(tiers, entry.tiers)):
            return entry, modes
        return dataclasses.replace(entry, tiers=tuple(tiers), statistics=plan.latest), modes

    def _publish(self, entries: "dict[str, _TableEntry]") -> int:
        """Install table entries into the current payload and publish it.

        The read of the current payload and the publish happen under
        one lock, so two writers never publish payloads that each miss
        the other's tables.  Returns the published snapshot version.
        """
        with self._publish_lock:
            return self._store.publish({**self._payload(), **entries}).version

    def _publish_refreshed(
        self, entries: "dict[str, _TableEntry]", derived_from: "dict[str, _TableEntry]"
    ) -> "int | None":
        """:meth:`_publish` refreshed entries unless their origin was replaced.

        ``derived_from`` maps each refreshed table to the entry its
        refresh started from, and the publish is a compare-and-set on
        those entries: if any was replaced meanwhile (a register or
        another refresh of the same table published first), nothing is
        published and ``None`` is returned, so the caller redoes its
        refresh from the newer entry instead of overwriting it.  A
        lost race means another writer published, so the writers as a
        whole always make progress.
        """
        with self._publish_lock:
            payload = self._payload()
            if any(payload.get(name) is not base for name, base in derived_from.items()):
                return None
            return self._store.publish({**payload, **entries}).version

    def _payload(self) -> "dict[str, _TableEntry]":
        """A copy of the current payload (empty before the first publish)."""
        try:
            return dict(self._store.current().payload)
        except InvalidQueryError:  # repro: allow[serving-errors] — an empty store just means this is the first table registered
            return {}

    @property
    def snapshot_version(self) -> int:
        """Version of the currently published snapshot."""
        return self._store.version

    def retired_snapshots(self) -> tuple[int, ...]:
        """Superseded snapshot versions still pinned by readers."""
        return self._store.retired()

    def tiers(self, table_name: str) -> tuple[str, ...]:
        """Families actually serving ``table_name`` (build order)."""
        entry = self._entry(self._store.current().payload, table_name)
        return tuple(tier.family for tier in entry.tiers)

    def build_failures(self, table_name: str) -> tuple[tuple[str, str], ...]:
        """Families that failed to build in the current snapshot."""
        entry = self._entry(self._store.current().payload, table_name)
        return entry.build_failures

    # -- shedding -----------------------------------------------------

    @property
    def shedding(self) -> bool:
        """Whether SLO burn is currently shedding the primary tier."""
        with self._state_lock:
            return self._shedding

    def refresh_shed(self) -> bool:
        """Re-evaluate the watched SLOs and update the shed decision.

        Called automatically every ``shed_check_interval`` admitted
        requests; callable directly for an immediate re-evaluation.
        With telemetry disabled (no burn data) shedding switches off.
        """
        telemetry = get_telemetry()
        shedding = False
        burn = 0.0
        if self._slos and telemetry.enabled:
            burn = max_burn(evaluate_registry(self._slos, telemetry.metrics))
            shedding = burn >= self._config.shed_burn_threshold
        with self._state_lock:
            self._shedding = shedding
            self._shed_burn = burn
        return shedding

    def _count_request(self) -> None:
        interval = self._config.shed_check_interval
        with self._state_lock:
            self._requests += 1
            due = interval > 0 and self._slos and self._requests % interval == 0
        if due:
            self.refresh_shed()

    # -- serving ------------------------------------------------------

    def estimate(
        self,
        table_name: str,
        predicates: "list[RangePredicate]",
        *,
        deadline_s: "float | None" = None,
    ) -> EstimateResult:
        """Serve one cardinality estimate within a deadline.

        Walks the tier ladder with retries, breakers and fallback as
        described in the module docstring.  Raises a
        :class:`~repro.serving.errors.ServingError` subclass on
        rejection, deadline expiry or total tier exhaustion.
        """
        budget = self._config.default_deadline_s if deadline_s is None else deadline_s
        if budget <= 0 or not math.isfinite(budget):
            raise InvalidQueryError(f"deadline must be positive and finite, got {budget}")
        start = self._clock()
        self._count_request()
        telemetry = get_telemetry()
        try:
            wait_s = self._admission.acquire(start, budget)
        except Overloaded:
            if telemetry.enabled:
                telemetry.metrics.inc("serving.rejected")
            raise
        except DeadlineExceeded:
            if telemetry.enabled:
                telemetry.metrics.inc("serving.deadline.exceeded")
            raise
        try:
            result = self._serve(table_name, predicates, start, budget, wait_s)
        except DeadlineExceeded:
            if telemetry.enabled:
                telemetry.metrics.inc("serving.deadline.exceeded")
            raise
        except EstimatorUnavailable:
            if telemetry.enabled:
                telemetry.metrics.inc("serving.unavailable")
            raise
        finally:
            self._admission.release(self._clock() - start)
        if telemetry.enabled:
            telemetry.metrics.inc("serving.request")
            telemetry.metrics.observe("serving.wait.seconds", result.wait_s)
            telemetry.metrics.observe("serving.request.seconds", result.total_s)
            telemetry.metrics.inc(f"serving.tier.{result.tier}")
            if result.degraded:
                telemetry.metrics.inc("serving.degraded")
                telemetry.metrics.inc(f"serving.degraded.{table_name}")
        return result

    def _serve(
        self,
        table_name: str,
        predicates: "list[RangePredicate]",
        start: float,
        deadline_s: float,
        wait_s: float,
    ) -> EstimateResult:
        with self._store.pin() as snapshot:
            entry = self._entry(snapshot.payload, table_name)
            key = (
                table_name,
                snapshot.version,
                tuple(sorted((p.column, p.a, p.b) for p in predicates)),
            )
            cached = self._cached_result(key)
            if cached is not None:
                plan, tier = cached
                return EstimateResult(
                    plan=plan,
                    table=table_name,
                    tier=tier,
                    snapshot_version=snapshot.version,
                    degraded=False,
                    fallbacks=(),
                    attempts=0,
                    wait_s=wait_s,
                    total_s=self._clock() - start,
                    cached=True,
                )
            shed = self.shedding and len(entry.tiers) > 1
            fallbacks: list[str] = []
            causes: list[tuple[str, BaseException]] = []
            for index, tier in enumerate(entry.tiers):
                if shed and index == 0:
                    with self._state_lock:
                        burn = self._shed_burn
                    fallbacks.append(f"{tier.family}: shed (slo burn {burn:.2f})")
                    self._inc("serving.shed")
                    continue
                breaker = self._breakers.get(table_name, tier.family)
                if not breaker.allow():
                    fallbacks.append(f"{tier.family}: breaker open")
                    causes.append(
                        (
                            tier.family,
                            CircuitOpen(
                                f"breaker open for {table_name}.{tier.family}",
                                table=table_name,
                                tier=tier.family,
                            ),
                        )
                    )
                    continue
                plan, attempts = self._attempt_tier(
                    entry, tier, breaker, predicates, start, deadline_s, causes
                )
                if plan is None:
                    fallbacks.append(f"{tier.family}: {type(causes[-1][1]).__name__}")
                    continue
                degraded = index > 0 or shed
                notes = [f"served by {tier.family} tier (snapshot v{snapshot.version})"]
                if fallbacks:
                    notes.append("degraded: " + "; ".join(fallbacks))
                plan = plan.with_provenance(*notes)
                self._store_result(key, plan, tier.family, degraded)
                return EstimateResult(
                    plan=plan,
                    table=table_name,
                    tier=tier.family,
                    snapshot_version=snapshot.version,
                    degraded=degraded,
                    fallbacks=tuple(fallbacks),
                    attempts=attempts,
                    wait_s=wait_s,
                    total_s=self._clock() - start,
                )
        raise EstimatorUnavailable(
            f"every estimator tier failed for table {table_name!r}: "
            + "; ".join(f"{family}: {type(exc).__name__}" for family, exc in causes),
            causes=tuple(causes),
        )

    def _attempt_tier(
        self,
        entry: _TableEntry,
        tier: _Tier,
        breaker: CircuitBreaker,
        predicates: "list[RangePredicate]",
        start: float,
        deadline_s: float,
        causes: "list[tuple[str, BaseException]]",
    ) -> "tuple[Plan | None, int]":
        """Run one tier with transient-failure retries under the deadline.

        Returns ``(plan, attempts)``; ``plan`` is ``None`` when the
        tier is exhausted (its last error appended to ``causes``).
        """
        policy = self._config.retry
        attempt = 0
        while True:
            elapsed = self._clock() - start
            if elapsed >= deadline_s:
                raise DeadlineExceeded(
                    f"deadline expired before the {tier.family} tier answered",
                    deadline_s=deadline_s,
                    elapsed_s=elapsed,
                )
            attempt += 1
            try:
                self._faults.check(
                    f"tier.{tier.family}.estimate",
                    budget_s=deadline_s - (self._clock() - start),
                )
                elapsed = self._clock() - start
                if elapsed >= deadline_s:
                    # A stall (injected or real) consumed the budget:
                    # fail the request *now* rather than answer late.
                    raise DeadlineExceeded(
                        f"deadline expired in the {tier.family} tier",
                        deadline_s=deadline_s,
                        elapsed_s=elapsed,
                    )
                plan = tier.planner.plan(entry.table, predicates)
                self._validate_plan(plan, tier.family)
            except DeadlineExceeded:
                # The slow tier is charged (a stalled estimator is an
                # unhealthy estimator), but the deadline verdict goes
                # to the caller — it cannot be retried away.
                breaker.record_failure()
                raise
            except InvalidQueryError:
                # A malformed request is the caller's error, not the
                # tier's: do not charge the breaker, do not degrade.
                raise
            except Exception as exc:  # repro: allow[serving-errors] — tier failure is recorded in causes; it either retries below or falls back to the next tier
                breaker.record_failure()
                causes.append((tier.family, exc))
                remaining = deadline_s - (self._clock() - start)
                if (
                    is_transient(exc)
                    and attempt < policy.max_attempts
                    and remaining > 0
                ):
                    self._inc("serving.retry")
                    with self._rng_lock:
                        delay = policy.delay_s(attempt - 1, self._rng)
                    delay = min(delay, remaining)
                    if delay > 0:
                        self._sleep(delay)
                    continue
                return None, attempt
            breaker.record_success()
            return plan, attempt

    # -- result cache -------------------------------------------------

    def _cached_result(self, key: "tuple") -> "tuple[Plan, str] | None":
        cached = self._results.get(key)
        if cached is MISS:
            return None
        plan, tier = cached
        if not self._plan_is_valid(plan):
            # Poisoned entry: evict, count, recompute from statistics.
            self._results.evict(lambda entry_key: entry_key == key)
            self._inc("serving.poisoned")
            return None
        return plan, tier

    def _store_result(self, key: "tuple", plan: Plan, tier: str, degraded: bool) -> None:
        if degraded:
            # Degraded answers are circumstantial (breaker state, shed
            # posture); caching them would outlive the circumstance.
            return
        actions = self._faults.check("serving.cache.store")
        if "poison" in actions:
            plan = dataclasses.replace(plan, estimated_rows=float("nan"))
        self._results.put(key, (plan, tier))

    @staticmethod
    def _plan_is_valid(plan: Plan) -> bool:
        return (
            math.isfinite(plan.estimated_rows)
            and plan.estimated_rows >= 0
            and math.isfinite(plan.estimated_cost)
        )

    def _validate_plan(self, plan: Plan, family: str) -> None:
        if not self._plan_is_valid(plan):
            raise PoisonedResult(
                f"{family} tier produced an invalid estimate "
                f"(rows={plan.estimated_rows}, cost={plan.estimated_cost})"
            )

    # -- helpers ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for admission."""
        return self._admission.depth

    def breaker_states(self) -> dict[tuple[str, str], str]:
        """State of every instantiated (table, tier) breaker."""
        return self._breakers.states()

    @staticmethod
    def _entry(payload: "dict[str, _TableEntry]", table_name: str) -> _TableEntry:
        entry = payload.get(table_name)
        if entry is None:
            raise InvalidQueryError(
                f"unknown table {table_name!r}; register() it first"
            )
        return entry

    @staticmethod
    def _inc(name: str) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.inc(name)
