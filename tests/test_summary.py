"""Property tests for the mergeable column summaries (repro.core.summary).

The incremental-ANALYZE substrate rests on one algebraic claim: for a
fixed seed, ``merge(update(A), update(B))`` is *byte-identical* to
``update(A + B)`` in any split or merge order — retention is a global
bottom-k-by-hash condition, not an arrival-order artifact.  These
tests pin that claim exactly (``tobytes()`` equality, not allclose),
plus the graceful-degradation contract for deletions beyond reservoir
capacity and that a full-capacity summary freezes to its sorted input.
The merge tests compare the summary with itself, so
``TestSelectionOracle`` also holds ``update`` to an independent
sort-based reference.
"""

import numpy as np
import pytest

from repro import estimators, telemetry
from repro.core.base import InvalidSampleError
from repro.core.summary import EXPANSION_FACTOR, ColumnSummary, value_priorities
from repro.data.domain import Interval

DOMAIN = Interval(0.0, 100.0)


def _values(seed, n, *, lo=0.0, hi=100.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n)


def _frozen_bytes(summary):
    """The frozen sample and the live counters, as one comparable tuple.

    All of it is byte-identical across split/merge orders.
    """
    return (summary.freeze().tobytes(), summary.row_count, summary.unaccounted_deletes)


class TestPriorities:
    def test_deterministic_and_distinct(self):
        values = np.unique(_values(1, 500))
        first = value_priorities(values, 42)
        second = value_priorities(values, 42)
        assert np.array_equal(first, second)
        # The mix is bijective: distinct values, distinct priorities.
        assert np.unique(first).size == values.size

    def test_seed_changes_the_ranking(self):
        values = np.unique(_values(2, 500))
        assert not np.array_equal(
            value_priorities(values, 0), value_priorities(values, 1)
        )

    def test_negative_zero_canonicalized(self):
        both = np.array([-0.0, 0.0])
        prios = value_priorities(both, 7)
        assert prios[0] == prios[1]


def _sorted_reservoir(batches, *, seed, capacity):
    """Sort-based reference for the frozen reservoir of ``batches``.

    Deduplicates every row, ranks the distinct values by a stable sort
    of their priorities, keeps the first ``capacity`` re-sorted by
    value, and expands them under the same ``EXPANSION_FACTOR`` cap as
    ``freeze``.  Returns (sample bytes, distinct values, rows).
    """
    data = np.concatenate(batches)
    unique, counts = np.unique(data, return_counts=True)
    keep = np.sort(np.argsort(value_priorities(unique, seed), kind="stable")[:capacity])
    values, counts = unique[keep], counts[keep]
    cap = capacity * EXPANSION_FACTOR
    if counts.sum() > cap:
        counts = np.maximum(np.floor(counts * (cap / counts.sum())).astype(np.int64), 1)
    return np.repeat(values, counts).tobytes(), values.size, data.size


#: Reservoir seed of the oracle cases.
ORACLE_SEED = 11


def _heavy_bottom_batch(seed, capacity, repeats):
    """A batch whose ``capacity`` lowest-priority values each repeat.

    A cut at the ``capacity``-th smallest row priority then holds only
    about ``capacity / repeats`` distinct values, so it must widen.
    """
    pool = np.unique(_values(seed, 20 * capacity))
    prios = value_priorities(pool, ORACLE_SEED)
    bottom = pool[np.argsort(prios, kind="stable")[:capacity]]
    batch = np.concatenate([pool, np.repeat(bottom, repeats - 1)])
    return np.random.default_rng(seed).permutation(batch)


def _refill_batches(seed, first, fresh):
    """A batch that fills the reservoir, then one that repeats all of it.

    The second batch adds a row to every tracked value, the one with
    the largest priority included, plus ``fresh`` new values.
    """
    head = _values(seed, first)
    tail = np.concatenate([head, _values(seed + 1, fresh)])
    return [head, np.random.default_rng(seed).permutation(tail)]


class TestSelectionOracle:
    """``update`` selects the same reservoir a full sort would."""

    @pytest.mark.parametrize(
        ("domain", "capacity", "batches"),
        [
            pytest.param(DOMAIN, 64, [_values(60, 63)], id="capacity-minus-one"),
            pytest.param(DOMAIN, 64, [_values(61, 64)], id="at-capacity"),
            pytest.param(DOMAIN, 64, [_values(62, 65)], id="capacity-plus-one"),
            pytest.param(DOMAIN, 64, [_heavy_bottom_batch(63, 64, 3)], id="cut-widens"),
            pytest.param(
                DOMAIN, 64, [_heavy_bottom_batch(64, 64, 40)], id="cut-widens-far"
            ),
            pytest.param(DOMAIN, 64, [np.full(5_000, 42.0)], id="constant"),
            pytest.param(
                DOMAIN, 8_192, [_values(65, 300), _values(66, 5_000)], id="non-empty"
            ),
            pytest.param(DOMAIN, 256, _refill_batches(68, 3_000, 5_000), id="full"),
            # Nothing new ranks below the tracked values, so every one of
            # them, the largest-priority one included, keeps its new row.
            pytest.param(DOMAIN, 256, _refill_batches(70, 3_000, 0), id="full-repeat"),
            pytest.param(
                Interval(0.0, 100_000.0),
                2_048,
                [np.random.default_rng(67).integers(0, 60_000, 100_000).astype(float)],
                id="integer-column",
            ),
        ],
    )
    def test_update_matches_sorted_reservoir(self, domain, capacity, batches):
        summary = ColumnSummary(domain, seed=ORACLE_SEED, capacity=capacity)
        for batch in batches:
            summary.update(batch)
        actual = (summary.freeze().tobytes(), summary.distinct_tracked, summary.row_count)
        assert actual == _sorted_reservoir(batches, seed=ORACLE_SEED, capacity=capacity)


class TestMergeAlgebra:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("split", [1, 100, 2_500, 4_999])
    def test_merge_equals_one_shot_byte_identical(self, seed, split):
        data = _values(seed + 10, 5_000)
        one_shot = ColumnSummary(DOMAIN, seed=seed, capacity=256).update(data)
        left = ColumnSummary(DOMAIN, seed=seed, capacity=256).update(data[:split])
        right = ColumnSummary(DOMAIN, seed=seed, capacity=256).update(data[split:])
        expected = _frozen_bytes(one_shot)
        assert _frozen_bytes(left.merge(right)) == expected
        assert _frozen_bytes(right.merge(left)) == expected

    def test_three_way_merge_any_association(self):
        data = _values(3, 6_000)
        chunks = np.array_split(data, 3)
        parts = [
            ColumnSummary(DOMAIN, seed=5, capacity=128).update(chunk)
            for chunk in chunks
        ]
        one_shot = ColumnSummary(DOMAIN, seed=5, capacity=128).update(data)
        left_first = parts[0].merge(parts[1]).merge(parts[2])
        right_first = parts[0].merge(parts[1].merge(parts[2]))
        reversed_order = parts[2].merge(parts[0]).merge(parts[1])
        expected = _frozen_bytes(one_shot)
        assert _frozen_bytes(left_first) == expected
        assert _frozen_bytes(right_first) == expected
        assert _frozen_bytes(reversed_order) == expected

    def test_sequential_updates_equal_one_shot(self):
        data = _values(4, 5_200)
        chunked = ColumnSummary(DOMAIN, seed=9, capacity=200)
        for chunk in np.array_split(data, 13):
            chunked.update(chunk)
        one_shot = ColumnSummary(DOMAIN, seed=9, capacity=200).update(data)
        assert _frozen_bytes(chunked) == _frozen_bytes(one_shot)

    def test_merge_is_pure(self):
        left = ColumnSummary(DOMAIN, seed=1, capacity=64).update(_values(5, 300))
        right = ColumnSummary(DOMAIN, seed=1, capacity=64).update(_values(6, 300))
        before = (_frozen_bytes(left), _frozen_bytes(right))
        left.merge(right)
        assert (_frozen_bytes(left), _frozen_bytes(right)) == before

    def test_incompatible_summaries_refuse_to_merge(self):
        base = ColumnSummary(DOMAIN, seed=1, capacity=64).update(_values(7, 50))
        for other in (
            ColumnSummary(DOMAIN, seed=2, capacity=64),
            ColumnSummary(DOMAIN, seed=1, capacity=65),
            ColumnSummary(Interval(0.0, 50.0), seed=1, capacity=64),
        ):
            other.update(_values(8, 50, hi=50.0))
            assert not base.compatible_with(other)
            with pytest.raises(InvalidSampleError):
                base.merge(other)

    def test_merge_version_is_monotone(self):
        left = ColumnSummary(DOMAIN, seed=3, capacity=64).update(_values(9, 100))
        right = ColumnSummary(DOMAIN, seed=3, capacity=64).update(_values(10, 100))
        merged = left.merge(right)
        assert merged.version > max(left.version, right.version)


class TestDeletions:
    def test_tracked_deletes_are_exact(self):
        data = _values(20, 800)
        summary = ColumnSummary(DOMAIN, seed=0, capacity=1_000).update(data)
        summary.delete(data[:300])
        assert summary.unaccounted_deletes == 0
        assert summary.row_count == 500
        assert np.array_equal(summary.freeze(), np.sort(data[300:]))

    def test_evicted_deletes_degrade_gracefully(self):
        data = _values(21, 6_000)
        summary = ColumnSummary(DOMAIN, seed=0, capacity=64).update(data)
        summary.delete(data[:5_000])
        assert summary.row_count == 1_000
        assert summary.unaccounted_deletes > 0
        # Still freezable, and every value left in the sample is live.
        assert np.all(np.isin(summary.freeze(), data[5_000:]))

    def test_delete_of_never_inserted_value_counts_unaccounted(self):
        summary = ColumnSummary(DOMAIN, seed=0, capacity=16).update(
            np.array([1.0, 2.0, 3.0])
        )
        summary.delete(np.array([50.0]))
        assert summary.unaccounted_deletes == 1


class TestFreeze:
    def test_full_capacity_summary_freezes_to_sorted_input(self):
        data = _values(30, 1_234)
        summary = ColumnSummary(DOMAIN, seed=3, capacity=data.size).update(data)
        sample = summary.freeze()
        assert sample.tobytes() == np.sort(data).tobytes()
        assert summary.row_count == data.size
        assert not sample.flags.writeable

    def test_expansion_cap_on_duplicate_heavy_data(self):
        rng = np.random.default_rng(31)
        # 50 distinct values, 100k rows: naive expansion would be O(n).
        data = rng.choice(np.linspace(1.0, 99.0, 50), size=100_000)
        summary = ColumnSummary(DOMAIN, seed=0, capacity=64).update(data)
        assert summary.row_count == 100_000
        assert summary.freeze().size <= summary.capacity * (EXPANSION_FACTOR + 1)

    def test_empty_summary_refuses_to_freeze(self):
        with pytest.raises(InvalidSampleError):
            ColumnSummary(DOMAIN, seed=0).freeze()

    def test_copy_is_independent(self):
        summary = ColumnSummary(DOMAIN, seed=0, capacity=128).update(_values(34, 500))
        clone = summary.copy()
        clone.update(_values(35, 500))
        assert summary.row_count == 500
        assert clone.row_count == 1_000
        assert summary.compatible_with(clone)


class TestEstimatorsFromSummary:
    """Estimators build from the frozen sample plus the column's domain."""

    def test_raw_sample_without_domain_is_rejected(self):
        with pytest.raises(InvalidSampleError):
            estimators.hybrid(_values(42, 100))


class TestSummaryTelemetry:
    def test_lifecycle_counters_are_emitted(self):
        data = _values(50, 1_000)
        with telemetry.session() as session:
            left = ColumnSummary(DOMAIN, seed=0, capacity=64).update(data[:500])
            right = ColumnSummary(DOMAIN, seed=0, capacity=64).update(data[500:])
            merged = left.merge(right)
            merged.delete(data[:10])
            merged.freeze()
            assert session.metrics.counter("summary.update") == 1_000
            assert session.metrics.counter("summary.merge") == 1
            assert session.metrics.counter("summary.delete") == 10
            assert session.metrics.counter("summary.freeze") == 1
