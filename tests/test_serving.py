"""Unit tests for the fault-tolerant serving tier (repro.serving).

Chaos-style end-to-end scenarios live in ``test_serving_chaos.py``;
this module pins down each component in isolation — breaker state
machine, retry backoff, fault scheduling, snapshot lifecycle, bounded
admission — plus the service-level fallback/caching/shedding behavior
under a controlled clock and injected faults.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import serving, telemetry
from repro.core.base import InvalidQueryError, InvalidSampleError
from repro.data.domain import Interval
from repro.db import RangePredicate, Table
from repro.serving import (
    CLOSED,
    DEFAULT_FAMILIES,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    EstimationService,
    FaultInjector,
    FaultRule,
    RetryPolicy,
    ServiceConfig,
    SnapshotStore,
)
from repro.serving.breaker import BreakerBoard
from repro.serving.errors import (
    CircuitOpen,
    DeadlineExceeded,
    EstimatorUnavailable,
    InjectedFault,
    Overloaded,
    PoisonedResult,
    TransientServingError,
    is_transient,
)

DOMAIN = Interval(0.0, 1_000.0)


class FakeClock:
    """A hand-cranked monotonic clock for deterministic timing tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _make_table(name="points", n=4_000, seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(400.0, 120.0, n), 0, 1_000)
    z = rng.uniform(0, 1_000, n)
    return Table(name, {"x": (x, DOMAIN), "z": (z, DOMAIN)})


def _service(config=None, *, faults=None, slos=(), seed=11):
    service = EstimationService(
        config or ServiceConfig(sample_size=500),
        seed=seed,
        slos=slos,
        faults=faults,
        sleep=lambda _s: None,  # no real backoff sleeps in unit tests
    )
    service.register(_make_table(), seed=7)
    return service


PREDICATES = [RangePredicate("x", 300.0, 500.0)]


class TestErrors:
    def test_hierarchy(self):
        from repro.core.base import EstimatorError
        from repro.serving.errors import ServingError

        for exc in (
            Overloaded("q", retry_after_s=0.1),
            DeadlineExceeded("d", deadline_s=1.0, elapsed_s=2.0),
            CircuitOpen("c", table="t", tier="hybrid"),
            EstimatorUnavailable("u", causes=()),
            InjectedFault("i", site="s"),
        ):
            assert isinstance(exc, ServingError)
            assert isinstance(exc, EstimatorError)

    def test_is_transient(self):
        assert is_transient(Overloaded("q", retry_after_s=0.1))
        assert is_transient(CircuitOpen("c", table="t", tier="hybrid"))
        assert is_transient(PoisonedResult("p"))
        assert not is_transient(DeadlineExceeded("d", deadline_s=1.0, elapsed_s=2.0))
        assert not is_transient(EstimatorUnavailable("u", causes=()))
        assert not is_transient(ValueError("v"))
        assert is_transient(InjectedFault("i", site="s", transient=True))
        assert not is_transient(InjectedFault("i", site="s", transient=False))


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidQueryError):
            FaultRule(site="x", kind="explode")

    def test_rejects_bad_schedule(self):
        with pytest.raises(InvalidQueryError):
            FaultRule(site="x", kind="error", every=0)
        with pytest.raises(InvalidQueryError):
            FaultRule(site="x", kind="error", after=-1)
        with pytest.raises(InvalidQueryError):
            FaultRule(site="x", kind="latency", latency_s=-1.0)

    def test_prefix_matching(self):
        rule = FaultRule(site="tier.hybrid.*", kind="error")
        assert rule.matches("tier.hybrid.estimate")
        assert rule.matches("tier.hybrid.build")
        assert not rule.matches("tier.equi-depth.estimate")

    def test_schedule_after_every_times(self):
        rule = FaultRule(site="s", kind="error", after=2, every=2, times=2)
        fired = 0
        outcomes = []
        for call_index in range(8):
            due = rule.due(call_index, fired)
            outcomes.append(due)
            if due:
                fired += 1
        # Calls 0,1 skipped (after=2); then every 2nd eligible call,
        # capped at 2 firings: fires on call 2 and call 4.
        assert outcomes == [False, False, True, False, True, False, False, False]


class TestFaultInjector:
    def test_error_fault_is_deterministic(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", after=1, times=1, message="boom")]
        )
        assert injector.check("s") == ()
        with pytest.raises(InjectedFault, match="boom"):
            injector.check("s")
        assert injector.check("s") == ()
        assert injector.calls("s") == 3
        assert injector.fired("s") == 1

    def test_latency_fault_sleeps_capped_at_budget(self):
        slept = []
        clock = FakeClock()

        def sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        injector = FaultInjector(
            [FaultRule(site="s", kind="latency", latency_s=0.5)],
            base_clock=clock,
            sleep=sleep,
        )
        assert injector.check("s", budget_s=0.2) == ("latency",)
        assert slept == [pytest.approx(0.2)]
        assert injector.check("s") == ("latency",)
        assert slept[-1] == pytest.approx(0.5)

    def test_skew_fault_steps_the_clock(self):
        clock = FakeClock(100.0)
        injector = FaultInjector(
            [FaultRule(site="s", kind="skew", skew_s=10.0, times=1)],
            base_clock=clock,
        )
        assert injector.clock() == pytest.approx(100.0)
        injector.check("s")
        assert injector.clock() == pytest.approx(110.0)

    def test_poison_is_reported_not_raised(self):
        injector = FaultInjector([FaultRule(site="s", kind="poison", times=1)])
        assert injector.check("s") == ("poison",)
        assert injector.check("s") == ()

    def test_faults_counted_in_telemetry(self):
        with telemetry.session() as session:
            injector = FaultInjector([FaultRule(site="s", kind="poison")])
            injector.check("s")
            assert session.metrics.counter("serving.fault") == 1
            assert session.metrics.counter("serving.fault.poison") == 1


class TestCircuitBreaker:
    def _breaker(self, **overrides):
        clock = FakeClock()
        defaults = dict(
            window=8, failure_threshold=0.5, min_samples=4, cooldown_s=1.0,
            half_open_probes=2,
        )
        defaults.update(overrides)
        return CircuitBreaker(BreakerConfig(**defaults), clock=clock), clock

    def test_config_validation(self):
        with pytest.raises(InvalidQueryError):
            BreakerConfig(window=0)
        with pytest.raises(InvalidQueryError):
            BreakerConfig(failure_threshold=0.0)
        with pytest.raises(InvalidQueryError):
            BreakerConfig(failure_threshold=1.5)
        with pytest.raises(InvalidQueryError):
            BreakerConfig(half_open_probes=0)

    def test_stays_closed_below_min_samples(self):
        breaker, _clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_open_at_failure_rate(self):
        breaker, _clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_mixed_outcomes_respect_threshold(self):
        breaker, _clock = self._breaker()
        # 2 failures / 4 outcomes = exactly the 0.5 threshold: trips.
        for outcome in (True, False, True, False):
            breaker.record_success() if outcome else breaker.record_failure()
        assert breaker.state == OPEN

    def test_successes_age_failures_out_of_the_window(self):
        breaker, _clock = self._breaker(window=4)
        for _ in range(2):
            breaker.record_failure()
        for _ in range(4):
            breaker.record_success()
        # The window now holds only successes; more failures are needed
        # to trip than if the old ones still counted.
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_then_closes(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

        clock.advance(1.01)
        assert breaker.allow()  # first probe admitted
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # needs half_open_probes successes
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow()
        # The cooldown restarts from the reopen.
        clock.advance(1.01)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_half_open_limits_probes(self):
        breaker, clock = self._breaker(half_open_probes=1)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        assert not breaker.allow()  # only one probe outstanding

    def test_state_gauge_and_open_counter(self):
        with telemetry.session() as session:
            clock = FakeClock()
            breaker = CircuitBreaker(
                BreakerConfig(min_samples=2, cooldown_s=1.0), clock=clock, name="t.hybrid"
            )
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.state == OPEN
            assert session.metrics.gauge("serving.breaker.state.t.hybrid") == 1.0
            assert session.metrics.counter("serving.breaker.open.t.hybrid") == 1

    def test_board_reuses_breakers(self):
        board = BreakerBoard(BreakerConfig(), clock=FakeClock())
        first = board.get("t", "hybrid")
        assert board.get("t", "hybrid") is first
        assert board.get("t", "uniform") is not first
        first.record_failure()
        states = board.states()
        assert states[("t", "hybrid")] == CLOSED
        assert set(states) == {("t", "hybrid"), ("t", "uniform")}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidQueryError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(InvalidQueryError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(InvalidQueryError):
            RetryPolicy(jitter=1.5)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(attempt, rng) for attempt in range(5)]
        assert delays[:3] == [pytest.approx(0.01), pytest.approx(0.02), pytest.approx(0.04)]
        assert delays[3] == pytest.approx(0.05)  # capped
        assert delays[4] == pytest.approx(0.05)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.5)
        first = [policy.delay_s(0, np.random.default_rng(3)) for _ in range(4)]
        assert len(set(first)) == 1  # same seed, same draw
        rng = np.random.default_rng(3)
        for _ in range(100):
            delay = policy.delay_s(0, rng)
            assert 0.005 <= delay <= 0.015


class TestSnapshotStore:
    def test_empty_store_raises(self):
        store = SnapshotStore()
        assert store.version == 0
        with pytest.raises(InvalidQueryError):
            store.current()

    def test_publish_bumps_version(self):
        store = SnapshotStore()
        assert store.publish({"a": 1}).version == 1
        assert store.publish({"a": 2}).version == 2
        assert store.current().payload == {"a": 2}

    def test_pinned_reader_keeps_its_version_across_publish(self):
        store = SnapshotStore()
        store.publish({"v": 1})
        with store.pin() as snapshot:
            store.publish({"v": 2})
            assert snapshot.payload == {"v": 1}
            assert store.retired() == (1,)
            assert store.current().payload == {"v": 2}
        # Last pin released: the superseded snapshot is dropped.
        assert store.retired() == ()
        assert store.pinned() == {}

    def test_unpinned_publish_retires_nothing(self):
        store = SnapshotStore()
        store.publish({"v": 1})
        store.publish({"v": 2})
        assert store.retired() == ()

    def test_telemetry(self):
        with telemetry.session() as session:
            store = SnapshotStore()
            store.publish({})
            store.publish({})
            assert session.metrics.counter("serving.snapshot.publish") == 2
            assert session.metrics.gauge("serving.snapshot.version") == 2.0


class TestAdmission:
    def test_overloaded_when_queue_full(self):
        from repro.serving.service import _Admission

        clock = FakeClock()
        admission = _Admission(max_inflight=1, max_queue=0, clock=clock)
        admission.acquire(clock(), 1.0)
        with pytest.raises(Overloaded) as excinfo:
            admission.acquire(clock(), 1.0)
        assert excinfo.value.retry_after_s > 0

    def test_deadline_while_queued(self):
        import time as _time

        from repro.serving.service import _Admission

        admission = _Admission(max_inflight=1, max_queue=4, clock=_time.monotonic)
        start = _time.monotonic()
        admission.acquire(start, 10.0)
        with pytest.raises(DeadlineExceeded):
            admission.acquire(_time.monotonic(), 0.05)
        elapsed = _time.monotonic() - start
        assert elapsed < 1.0  # bounded wait, not a hang

    def test_release_unblocks_a_waiter(self):
        import time as _time

        from repro.serving.service import _Admission

        admission = _Admission(max_inflight=1, max_queue=4, clock=_time.monotonic)
        admission.acquire(_time.monotonic(), 1.0)
        waited = []

        def waiter():
            waited.append(admission.acquire(_time.monotonic(), 5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = 100
        while admission.depth == 0 and deadline:
            deadline -= 1
            _time.sleep(0.005)
        admission.release(0.01)
        thread.join(timeout=5.0)
        assert len(waited) == 1 and waited[0] >= 0.0
        assert admission.depth == 0


class TestServiceConfig:
    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidQueryError, match="unknown estimator families"):
            ServiceConfig(families=("hybrid", "magic"))

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(InvalidQueryError):
            ServiceConfig(families=())
        with pytest.raises(InvalidQueryError):
            ServiceConfig(families=("hybrid", "hybrid"))

    def test_rejects_bad_limits(self):
        with pytest.raises(InvalidQueryError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(InvalidQueryError):
            ServiceConfig(default_deadline_s=0.0)


class TestServiceHappyPath:
    def test_primary_tier_serves_with_provenance(self):
        service = _service()
        result = service.estimate("points", PREDICATES)
        assert result.tier == "hybrid"
        assert not result.degraded
        assert result.fallbacks == ()
        assert result.snapshot_version == 1
        assert result.attempts == 1
        assert any(
            "served by hybrid tier (snapshot v1)" in note
            for note in result.plan.provenance
        )
        assert 0 <= result.plan.estimated_rows <= 4_000

    def test_result_cache_hit(self):
        service = _service()
        first = service.estimate("points", PREDICATES)
        second = service.estimate("points", PREDICATES)
        assert not first.cached and second.cached
        assert second.plan.estimated_rows == first.plan.estimated_rows

    def test_refresh_invalidates_by_snapshot_version(self):
        service = _service()
        service.estimate("points", PREDICATES)
        assert service.refresh("points") == 2
        result = service.estimate("points", PREDICATES)
        assert not result.cached
        assert result.snapshot_version == 2

    def test_unknown_table_is_a_caller_error(self):
        service = _service()
        with pytest.raises(InvalidQueryError, match="unknown table"):
            service.estimate("nope", PREDICATES)

    def test_invalid_deadline_is_a_caller_error(self):
        service = _service()
        with pytest.raises(InvalidQueryError):
            service.estimate("points", PREDICATES, deadline_s=0.0)
        with pytest.raises(InvalidQueryError):
            service.estimate("points", PREDICATES, deadline_s=float("inf"))

    def test_request_metrics(self):
        with telemetry.session() as session:
            service = _service()
            service.estimate("points", PREDICATES)
            assert session.metrics.counter("serving.request") == 1
            assert session.metrics.counter("serving.tier.hybrid") == 1
            assert session.metrics.summary("serving.request.seconds").count == 1
            assert session.metrics.counter("serving.degraded") == 0


class TestServiceFallback:
    def test_persistent_tier_failure_falls_back(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="error", message="down")]
        )
        service = _service(faults=faults)
        result = service.estimate("points", PREDICATES)
        assert result.tier == "equi-depth"
        assert result.degraded
        assert result.fallbacks == ("hybrid: InjectedFault",)
        assert any("degraded:" in note for note in result.plan.provenance)

    def test_degraded_results_are_not_cached(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="error", times=6)]
        )
        service = _service(faults=faults)
        assert service.estimate("points", PREDICATES).degraded
        # Faults exhausted: the primary tier recovers and serves fresh.
        result = service.estimate("points", PREDICATES)
        assert not result.cached

    def test_transient_failure_retries_then_succeeds(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="error", times=1)]
        )
        with telemetry.session() as session:
            service = _service(faults=faults)
            result = service.estimate("points", PREDICATES)
            assert result.tier == "hybrid"
            assert not result.degraded
            assert result.attempts == 2
            assert session.metrics.counter("serving.retry") == 1

    def test_non_transient_failure_does_not_retry(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="error", transient=False)]
        )
        service = _service(faults=faults)
        result = service.estimate("points", PREDICATES)
        assert result.tier == "equi-depth"
        assert result.attempts == 1

    def test_all_tiers_down_raises_unavailable_with_causes(self):
        faults = FaultInjector(
            [
                FaultRule(site=f"tier.{family}.estimate", kind="error")
                for family in ("hybrid", "equi-depth", "uniform")
            ]
        )
        service = _service(faults=faults)
        with pytest.raises(EstimatorUnavailable) as excinfo:
            service.estimate("points", PREDICATES)
        families = [family for family, _ in excinfo.value.causes]
        assert set(families) == {"hybrid", "equi-depth", "uniform"}
        assert all(
            isinstance(cause, InjectedFault) for _, cause in excinfo.value.causes
        )

    def test_degradation_metrics(self):
        faults = FaultInjector([FaultRule(site="tier.hybrid.estimate", kind="error")])
        with telemetry.session() as session:
            service = _service(faults=faults)
            service.estimate("points", PREDICATES)
            assert session.metrics.counter("serving.degraded") == 1
            assert session.metrics.counter("serving.degraded.points") == 1
            assert session.metrics.counter("serving.tier.equi-depth") == 1


class TestServiceBreakers:
    def _breaker_config(self):
        return BreakerConfig(
            window=4, failure_threshold=0.5, min_samples=2, cooldown_s=60.0,
            half_open_probes=1,
        )

    def test_repeated_failures_open_the_breaker(self):
        faults = FaultInjector([FaultRule(site="tier.hybrid.estimate", kind="error")])
        config = ServiceConfig(
            sample_size=500,
            breaker=self._breaker_config(),
            retry=RetryPolicy(max_attempts=1),
        )
        service = _service(config, faults=faults)
        service.estimate("points", PREDICATES)
        service.estimate("points", PREDICATES)
        assert service.breaker_states()[("points", "hybrid")] == "open"
        # With the breaker open the hybrid tier is skipped outright:
        # no estimate call reaches it, the fallback is immediate.
        before = faults.calls("tier.hybrid.estimate")
        result = service.estimate("points", PREDICATES)
        assert faults.calls("tier.hybrid.estimate") == before
        assert result.fallbacks == ("hybrid: breaker open",)
        assert result.degraded

    def test_breaker_recovers_through_half_open(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="error", times=2)]
        )
        config = ServiceConfig(
            sample_size=500,
            breaker=BreakerConfig(
                window=4, failure_threshold=0.5, min_samples=2, cooldown_s=0.0,
                half_open_probes=1,
            ),
            retry=RetryPolicy(max_attempts=1),
        )
        service = _service(config, faults=faults)
        service.estimate("points", PREDICATES)
        service.estimate("points", PREDICATES)
        # Cooldown 0: the next request probes half-open, succeeds
        # (faults exhausted), and the breaker closes again.
        result = service.estimate("points", PREDICATES)
        assert result.tier == "hybrid"
        assert service.breaker_states()[("points", "hybrid")] == "closed"


class TestServiceDeadlines:
    def test_latency_spike_fails_fast_not_late(self):
        slept = []
        clock = FakeClock()

        def fake_sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="latency", latency_s=5.0)],
            base_clock=clock,
            sleep=fake_sleep,
        )
        service = _service(faults=faults)
        with pytest.raises(DeadlineExceeded):
            service.estimate("points", PREDICATES, deadline_s=0.05)
        # The injected stall was capped at the remaining budget, not
        # the full 5 s spike.
        assert slept and max(slept) <= 0.05

    def test_deadline_counted(self):
        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="latency", latency_s=5.0)],
            sleep=lambda _s: None,
        )
        # The fake sleep doesn't advance time; inject skew so the clock
        # jumps past the deadline instead.
        with telemetry.session() as session:
            service = _service(faults=faults)
            real = service._clock
            with pytest.raises((DeadlineExceeded, EstimatorUnavailable)):
                service.estimate("points", PREDICATES, deadline_s=1e-9)
            del real
            assert (
                session.metrics.counter("serving.deadline.exceeded")
                + session.metrics.counter("serving.unavailable")
            ) >= 1

    def test_slow_tier_charges_the_breaker(self):
        import time as _time

        faults = FaultInjector(
            [FaultRule(site="tier.hybrid.estimate", kind="latency", latency_s=0.2)],
            sleep=_time.sleep,
        )
        config = ServiceConfig(
            sample_size=500,
            breaker=BreakerConfig(min_samples=1, failure_threshold=0.5, cooldown_s=60.0),
        )
        service = _service(config, faults=faults)
        with pytest.raises(DeadlineExceeded):
            service.estimate("points", PREDICATES, deadline_s=0.02)
        assert service.breaker_states()[("points", "hybrid")] == "open"


class TestServicePoisoning:
    def test_poisoned_cache_entry_recovers(self):
        faults = FaultInjector(
            [FaultRule(site="serving.cache.store", kind="poison", times=1)]
        )
        with telemetry.session() as session:
            service = _service(faults=faults)
            first = service.estimate("points", PREDICATES)
            assert np.isfinite(first.plan.estimated_rows)  # caller never sees NaN
            # The *stored* copy was poisoned: the next lookup detects
            # it, evicts, recomputes, and counts the event.
            second = service.estimate("points", PREDICATES)
            assert not second.cached
            assert np.isfinite(second.plan.estimated_rows)
            assert session.metrics.counter("serving.poisoned") == 1
            # Now the cache holds a clean entry.
            assert service.estimate("points", PREDICATES).cached


class TestServiceBuildFailures:
    def test_build_fault_degrades_the_tier_set(self):
        faults = FaultInjector([FaultRule(site="tier.hybrid.build", kind="error")])
        service = EstimationService(
            ServiceConfig(sample_size=500), seed=11, faults=faults, sleep=lambda _s: None
        )
        service.register(_make_table(), seed=7)
        assert service.tiers("points") == ("equi-depth", "uniform")
        failures = service.build_failures("points")
        assert len(failures) == 1 and failures[0][0] == "hybrid"
        result = service.estimate("points", PREDICATES)
        assert result.tier == "equi-depth"

    def test_all_builds_failing_raises(self):
        faults = FaultInjector([FaultRule(site="tier.*", kind="error")])
        service = EstimationService(
            ServiceConfig(sample_size=500), seed=11, faults=faults, sleep=lambda _s: None
        )
        with pytest.raises(EstimatorUnavailable):
            service.register(_make_table(), seed=7)

    @pytest.mark.parametrize(
        "joint, cause",
        [([("x", "missing")], KeyError), ([("x", "constant")], InvalidSampleError)],
        ids=["unknown-column", "degenerate-pair"],
    )
    def test_failed_scan_raises_unavailable_for_every_family(self, joint, cause):
        x = _make_table().column("x")
        table = Table("points", {"x": (x, DOMAIN), "constant": (np.full(x.size, 5.0), DOMAIN)})
        service = EstimationService(ServiceConfig(sample_size=500), seed=11)
        with pytest.raises(EstimatorUnavailable) as raised:
            service.register(table, seed=7, joint=joint)
        assert [family for family, _ in raised.value.causes] == list(DEFAULT_FAMILIES)
        assert all(isinstance(exc, cause) for _, exc in raised.value.causes)

    def test_refresh_does_not_block_pinned_readers(self):
        service = _service()
        with service._store.pin() as snapshot:
            assert snapshot.version == 1
            service.refresh("points")
            assert service.snapshot_version == 2
            assert service.retired_snapshots() == (1,)
            entry = snapshot.payload["points"]
            plan = entry.tiers[0].planner.plan(entry.table, PREDICATES)
            assert np.isfinite(plan.estimated_rows)
        assert service.retired_snapshots() == ()


class TestConcurrentPublish:
    """Writers racing each other never drop one another's tables."""

    THREADS = max(16, 2 * (os.cpu_count() or 1))
    TABLES_PER_THREAD = 12
    ROUNDS = 4

    @pytest.mark.parametrize("round_index", range(ROUNDS))
    def test_concurrent_registrations_lose_no_table(self, round_index):
        service = EstimationService(
            ServiceConfig(families=("uniform",), sample_size=50),
            seed=3,
            sleep=lambda _s: None,
        )
        tables = [
            [_make_table(f"t{thread}_{index}", n=64, seed=index) for index in range(self.TABLES_PER_THREAD)]
            for thread in range(self.THREADS)
        ]
        # Warm every writer path first, so the threads race on the
        # publish rather than queue on first-call imports.
        warm = _make_table("warm", n=64)
        service.register(warm, seed=7)
        service.refresh_incremental("warm")
        service.maintain()
        start = threading.Barrier(self.THREADS)
        errors = []

        def register_all(batch):
            try:
                start.wait(timeout=30)
                for index, table in enumerate(batch):
                    service.register(table, seed=7)
                    if index % 4 == 3:
                        service.refresh_incremental(table.name)
                service.maintain()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=register_all, args=(batch,)) for batch in tables]
        interval = sys.getswitchinterval()
        # Switch threads far more often than the 5 ms default, so
        # read-replace-publish sequences interleave.
        sys.setswitchinterval(1e-4)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        registered = set(service._store.current().payload)
        assert registered == {"warm"} | {table.name for batch in tables for table in batch}

    SHARED_OPS = 12

    @pytest.mark.parametrize("round_index", range(ROUNDS))
    def test_refreshes_never_overwrite_a_newer_registration(self, round_index, monkeypatch):
        """Same-table writers: a refresh of a replaced entry starts over.

        Every register uses a seed no other call uses, and a refresh
        keeps its entry's seed.  So in the order the table's entries
        are published, each seed must form one run: a seed that comes
        back after another seed was published is a refresh built from
        a replaced entry overwriting a newer registration.
        """
        service = EstimationService(
            ServiceConfig(families=("equi-depth", "uniform"), sample_size=50),
            seed=3,
            sleep=lambda _s: None,
        )
        table = _make_table("shared", n=256)
        service.register(table, seed=0)
        service.refresh_incremental("shared")
        service.maintain()
        # Unabsorbed rows, so the first refreshes and maintains of the
        # race have work to publish.
        table.append({"x": np.linspace(0.0, 999.0, 64), "z": np.linspace(0.0, 999.0, 64)})
        seeds = []
        publish = SnapshotStore.publish

        def recording_publish(store, payload):
            # Publishes are serialized by the service's lock, so this
            # list is in publish order.
            if "shared" in payload:
                seeds.append(payload["shared"].statistics.seed)
            return publish(store, payload)

        monkeypatch.setattr(SnapshotStore, "publish", recording_publish)
        start = threading.Barrier(self.THREADS)
        errors = []

        def write(thread):
            try:
                start.wait(timeout=30)
                for index in range(self.SHARED_OPS):
                    step = (thread + index) % 4
                    if step == 0:
                        service.register(table, seed=1 + thread * self.SHARED_OPS + index)
                    elif step == 1:
                        service.refresh_incremental("shared")
                    elif step == 2:
                        service.refresh("shared")
                    else:
                        service.maintain()
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=write, args=(thread,)) for thread in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        runs = [seed for index, seed in enumerate(seeds) if index == 0 or seed != seeds[index - 1]]
        assert len(runs) == len(set(runs)), runs
        assert len(runs) > 1


class TestServiceShedding:
    def test_burning_slo_sheds_the_primary_tier(self):
        with telemetry.session() as session:
            from repro.telemetry.slo import SERVING_SLOS

            service = _service(slos=SERVING_SLOS)
            # Feed the latency series well past the p99 objective.
            for _ in range(30):
                session.metrics.observe("serving.request.seconds", 10.0)
            assert service.refresh_shed()
            assert service.shedding
            result = service.estimate("points", PREDICATES)
            assert result.tier == "equi-depth"
            assert result.degraded
            assert any("shed (slo burn" in step for step in result.fallbacks)
            assert session.metrics.counter("serving.shed") == 1

    def test_shed_clears_when_burn_subsides(self):
        with telemetry.session() as session:
            from repro.telemetry.slo import SERVING_SLOS

            service = _service(slos=SERVING_SLOS)
            for _ in range(30):
                session.metrics.observe("serving.request.seconds", 10.0)
            assert service.refresh_shed()
        # Telemetry session closed: no burn data, shedding disengages.
        assert not service.refresh_shed()
        assert service.estimate("points", PREDICATES).tier == "hybrid"

    def test_shedding_never_drops_the_last_tier(self):
        with telemetry.session() as session:
            from repro.telemetry.slo import SERVING_SLOS

            config = ServiceConfig(families=("uniform",), sample_size=500)
            service = EstimationService(
                config, seed=11, slos=SERVING_SLOS, sleep=lambda _s: None
            )
            service.register(_make_table(), seed=7)
            for _ in range(30):
                session.metrics.observe("serving.request.seconds", 10.0)
            service.refresh_shed()
            result = service.estimate("points", PREDICATES)
            assert result.tier == "uniform"
            assert not result.degraded


class TestServiceOverload:
    def test_queue_full_rejects_with_retry_after(self):
        import time as _time

        config = ServiceConfig(sample_size=500, max_inflight=1, max_queue=0)
        service = _service(config)
        release = threading.Event()
        started = threading.Event()

        # Occupy the only slot with a request stalled inside a tier.
        faults = service._faults

        def occupy():
            started.set()
            with service._admission._cond:
                pass
            service._admission.acquire(_time.monotonic(), 5.0)
            release.wait(5.0)
            service._admission.release(0.01)

        thread = threading.Thread(target=occupy)
        thread.start()
        started.wait(5.0)
        deadline = 200
        while deadline and service._admission._inflight == 0:
            deadline -= 1
            _time.sleep(0.005)
        del faults
        with pytest.raises(Overloaded) as excinfo:
            service.estimate("points", PREDICATES)
        assert excinfo.value.retry_after_s > 0
        release.set()
        thread.join(timeout=5.0)

    def test_rejection_counted(self):
        import time as _time

        config = ServiceConfig(sample_size=500, max_inflight=1, max_queue=0)
        with telemetry.session() as session:
            service = _service(config)
            service._admission.acquire(_time.monotonic(), 5.0)
            with pytest.raises(Overloaded):
                service.estimate("points", PREDICATES)
            service._admission.release(0.01)
            assert session.metrics.counter("serving.rejected") == 1


class TestPackageSurface:
    def test_public_names(self):
        for name in (
            "EstimationService",
            "ServiceConfig",
            "EstimateResult",
            "DEFAULT_FAMILIES",
            "CircuitBreaker",
            "FaultInjector",
            "FaultRule",
            "RetryPolicy",
            "SnapshotStore",
        ):
            assert hasattr(serving, name), name
            assert name in serving.__all__
