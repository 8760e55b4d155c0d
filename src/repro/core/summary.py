"""Mergeable, versioned column statistics for incremental ANALYZE.

The paper builds every estimator from one random sample of the column
(§2, §5.1).  A :class:`ColumnSummary` keeps that sample live while the
table mutates: it absorbs row batches in O(batch) (``update`` /
``delete``), combines with summaries built over disjoint partitions
(``merge``), and at any point emits the sorted sample every estimator
family is built from (``freeze``) — so the catalog refreshes
statistics in O(delta) instead of re-scanning O(n) rows.

The sample is a **distinct-value bottom-k reservoir**: the
``capacity`` distinct values with the smallest deterministic seeded
hash, each with an exact multiplicity count.  Retention is a *global*
condition (the hash ranks against every distinct value ever seen,
independent of arrival order), which makes the reservoir exactly
mergeable: for the same seed, ``merge(update(A), update(B))`` is
byte-identical to ``update(A + B)`` in any split or merge order.

The same condition lets ``update`` select instead of sort.  It hashes
every row of a batch but deduplicates only the rows that can still
enter the reservoir: those at or below the batch's own
``capacity``-th smallest distinct priority and, once the reservoir is
full, at or below its largest tracked priority.  Every row of a value
shares that value's priority, so a surviving value keeps all of its
rows and an exact count.  A dropped value already has ``capacity``
distinct values ranked below it, so the bottom-k cut would have
evicted it anyway.

Determinism comes from hashing, not an RNG: each value's priority is a
splitmix64-style mix of its float64 bit pattern with the seed, so no
random state needs to be carried, split, or re-synchronized across
partitions (see DESIGN.md §seeding).  splitmix64's finalizer is a
bijection on 64-bit words, so distinct values get distinct priorities
and the bottom-k cut needs no tie-breaking.

Deletions are exact for values still tracked by the reservoir.
Deletions of values that were evicted (only possible once the distinct
count exceeded ``capacity``) cannot be applied to the sample: they
still lower ``row_count``, and are tallied in ``unaccounted_deletes``
and on the ``summary.delete.unaccounted`` counter so dashboards can
see when a summary's sample has drifted from the live multiset.

``freeze`` expands the reservoir back into a sorted, read-only sample
array.  A one-shot summary whose capacity covers every distinct value
reproduces the input multiset exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.data.domain import Interval
from repro.telemetry.runtime import get_telemetry

__all__ = [
    "ColumnSummary",
    "value_priorities",
    "DEFAULT_CAPACITY",
]

#: Default number of distinct values retained by the reservoir.
DEFAULT_CAPACITY = 2048

#: Expansion cap: ``freeze`` never materializes a sample larger than
#: this multiple of the reservoir capacity (duplicate-heavy columns
#: would otherwise expand back to O(n) values).
EXPANSION_FACTOR = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def value_priorities(values: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic 64-bit priority per float64 value.

    splitmix64-style finalizer over the value's bit pattern offset by
    the seed.  The mix is bijective for a fixed seed, so distinct
    values always receive distinct priorities; ``-0.0`` is canonicalized
    to ``0.0`` first so equal floats hash equally.
    """
    canonical = np.where(values == 0.0, 0.0, np.asarray(values, dtype=np.float64))
    bits = np.ascontiguousarray(canonical, dtype=np.float64).view(np.uint64)
    offset = np.uint64(((int(seed) & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64)
    # uint64 wrap-around is the *point* of the mix (mod-2^64 arithmetic
    # produces a bijection, never NaN/inf), so the overflow warning is
    # suppressed rather than handled.
    with np.errstate(over="ignore"):
        z = bits + offset
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class ColumnSummary:
    """Mutable, mergeable reservoir sample of one metric column.

    Parameters
    ----------
    domain:
        Declared attribute domain; all ingested values must lie inside
        it.
    seed:
        Hash seed for the reservoir priorities.  Summaries can only be
        merged when built with the same seed, capacity and domain.
    capacity:
        Maximum number of *distinct* values retained by the reservoir.

    Not thread-safe: callers (the catalog's refresh path) serialize
    mutations and publish frozen snapshots to readers.
    """

    def __init__(
        self,
        domain: Interval,
        *,
        seed: int,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise InvalidSampleError(f"reservoir capacity must be >= 1, got {capacity}")
        self._domain = domain
        self._seed = int(seed)
        self._capacity = int(capacity)
        self._count = 0
        # Reservoir arrays, kept sorted by value and row-aligned.
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._prios = np.empty(0, dtype=np.uint64)
        self._unaccounted = 0
        self._version = 0

    # -- inspection ----------------------------------------------------

    @property
    def domain(self) -> Interval:
        """Declared attribute domain."""
        return self._domain

    @property
    def seed(self) -> int:
        """Reservoir hash seed."""
        return self._seed

    @property
    def capacity(self) -> int:
        """Maximum distinct values retained."""
        return self._capacity

    @property
    def row_count(self) -> int:
        """Live rows currently represented (inserts minus deletes)."""
        return self._count

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by update/delete/merge)."""
        return self._version

    @property
    def distinct_tracked(self) -> int:
        """Distinct values currently held by the reservoir."""
        return int(self._values.size)

    @property
    def unaccounted_deletes(self) -> int:
        """Deleted rows whose value had been evicted from the reservoir."""
        return self._unaccounted

    def compatible_with(self, other: "ColumnSummary") -> bool:
        """Whether ``other`` can be merged into this summary."""
        return (
            self._seed == other._seed
            and self._capacity == other._capacity
            and self._domain == other._domain
        )

    # -- lifecycle -----------------------------------------------------

    def update(self, batch: np.ndarray) -> "ColumnSummary":
        """Absorb a batch of inserted values; returns ``self``."""
        values = self._validate(batch)
        if values.size == 0:
            return self
        self._count += int(values.size)
        unique, counts = self._candidates(values)
        self._absorb(unique, counts.astype(np.int64))
        self._truncate()
        self._version += 1
        self._emit("summary.update", values.size)
        return self

    def delete(self, batch: np.ndarray) -> "ColumnSummary":
        """Remove a batch of previously inserted values; returns ``self``.

        Values still tracked by the reservoir are decremented exactly.
        Values already evicted (possible only after the distinct count
        exceeded capacity) lower the row count but leave the reservoir
        untouched; they are tallied as unaccounted.
        """
        values = self._validate(batch)
        if values.size == 0:
            return self
        self._count -= min(int(values.size), self._count)
        unique, counts = np.unique(values, return_counts=True)
        position = np.searchsorted(self._values, unique)
        position = np.clip(position, 0, max(self._values.size - 1, 0))
        tracked = self._values.size > 0
        hit = (
            (self._values[position] == unique)
            if tracked
            else np.zeros(unique.size, dtype=bool)
        )
        misses = int(counts[~hit].sum()) if unique.size else 0
        if np.any(hit):
            index = position[hit]
            wanted = counts[hit]
            taken = np.minimum(self._counts[index], wanted)
            self._counts[index] -= taken
            misses += int((wanted - taken).sum())
            keep = self._counts > 0
            if not np.all(keep):
                self._values = self._values[keep]
                self._counts = self._counts[keep]
                self._prios = self._prios[keep]
        self._unaccounted += misses
        self._version += 1
        self._emit("summary.delete", values.size)
        if misses:
            self._emit("summary.delete.unaccounted", misses)
        return self

    def merge(self, other: "ColumnSummary") -> "ColumnSummary":
        """Pure merge: a new summary equivalent to ingesting both inputs.

        Both summaries must share seed, capacity and domain.  Because
        retention is the global bottom-k-by-hash condition, the result
        is byte-identical to a single summary that saw the
        concatenated input, in any split or merge order.
        """
        if not self.compatible_with(other):
            raise InvalidSampleError(
                "cannot merge summaries with different seed/capacity/domain"
            )
        merged = ColumnSummary(self._domain, seed=self._seed, capacity=self._capacity)
        merged._count = self._count + other._count
        merged._unaccounted = self._unaccounted + other._unaccounted
        values = np.concatenate([self._values, other._values])
        counts = np.concatenate([self._counts, other._counts])
        prios = np.concatenate([self._prios, other._prios])
        order = np.argsort(values, kind="stable")
        values, counts, prios = values[order], counts[order], prios[order]
        if values.size:
            boundary = np.ones(values.size, dtype=bool)
            boundary[1:] = values[1:] != values[:-1]
            group = np.cumsum(boundary) - 1
            merged._values = values[boundary]
            merged._prios = prios[boundary]
            merged._counts = np.bincount(group, weights=counts).astype(np.int64)
        merged._truncate()
        merged._version = max(self._version, other._version) + 1
        merged._emit("summary.merge", 1)
        return merged

    def freeze(self) -> np.ndarray:
        """The reservoir as a sorted, read-only sample: the estimator input."""
        if self._count <= 0 or self._values.size == 0:
            raise InvalidSampleError("cannot freeze an empty summary")
        counts = self._counts
        total = int(counts.sum())
        cap = self._capacity * EXPANSION_FACTOR
        if total > cap:
            scaled = np.floor(counts * (cap / total)).astype(np.int64)
            counts = np.maximum(scaled, 1)
        sample = np.repeat(self._values, counts)
        sample.flags.writeable = False
        self._emit("summary.freeze", 1)
        return sample

    def copy(self) -> "ColumnSummary":
        """Independent deep copy (used to stage atomic refreshes)."""
        out = ColumnSummary(self._domain, seed=self._seed, capacity=self._capacity)
        out._count = self._count
        out._values = self._values.copy()
        out._counts = self._counts.copy()
        out._prios = self._prios.copy()
        out._unaccounted = self._unaccounted
        out._version = self._version
        return out

    # -- internals -----------------------------------------------------

    def _validate(self, batch: np.ndarray) -> np.ndarray:
        values = np.asarray(batch, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidSampleError(f"batch must be one-dimensional, got shape {values.shape}")
        if values.size == 0:
            return values
        return validate_sample(values, self._domain)

    def _candidates(self, values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Distinct values, with row counts, that the batch can contribute.

        A full reservoir holds ``capacity`` values at or below its
        largest priority, so no row above it can enter.  Of the rest,
        the rows at or below the ``cut``-th smallest row priority hold
        the batch's lowest-priority values.  Duplicates can leave fewer
        than ``capacity`` distinct values below the cut; it then widens
        until they fill the reservoir or it covers every row.
        """
        full = self._values.size >= self._capacity
        if values.size <= self._capacity and not full:
            return np.unique(values, return_counts=True)
        prios = value_priorities(values, self._seed)
        if full:
            below = prios <= self._prios.max()
            values, prios = values[below], prios[below]
        cut = self._capacity
        while cut < values.size:
            survivors = values[prios <= np.partition(prios, cut - 1)[cut - 1]]
            unique, counts = np.unique(survivors, return_counts=True)
            if unique.size >= self._capacity or survivors.size == values.size:
                return unique, counts
            # Scale the cut by the rows per distinct value seen so far,
            # with 2x headroom; it at least doubles each round.
            cut = 2 * survivors.size * self._capacity // unique.size
        return np.unique(values, return_counts=True)

    def _absorb(self, unique: np.ndarray, counts: np.ndarray) -> None:
        if self._values.size == 0:
            self._values = unique.copy()
            self._counts = counts.copy()
            self._prios = value_priorities(unique, self._seed)
            return
        position = np.searchsorted(self._values, unique)
        position_clipped = np.clip(position, 0, self._values.size - 1)
        hit = self._values[position_clipped] == unique
        if np.any(hit):
            self._counts[position_clipped[hit]] += counts[hit]
        if np.any(~hit):
            fresh = unique[~hit]
            values = np.concatenate([self._values, fresh])
            new_counts = np.concatenate([self._counts, counts[~hit]])
            prios = np.concatenate([self._prios, value_priorities(fresh, self._seed)])
            order = np.argsort(values, kind="stable")
            self._values = values[order]
            self._counts = new_counts[order]
            self._prios = prios[order]

    def _truncate(self) -> None:
        if self._values.size <= self._capacity:
            return
        # Bottom-k by priority.  Priorities are unique per distinct
        # value (bijective mix), so the k smallest form one set and a
        # partition selects exactly what a full sort would.
        keep = np.argpartition(self._prios, self._capacity - 1)[: self._capacity]
        keep.sort()
        self._values = self._values[keep]
        self._counts = self._counts[keep]
        self._prios = self._prios[keep]

    def _emit(self, name: str, amount: float) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.inc(name, float(amount))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnSummary(rows={self._count}, distinct={self._values.size}, "
            f"capacity={self._capacity}, version={self._version})"
        )
