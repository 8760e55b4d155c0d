"""Multi-column tables with exact predicate evaluation.

A :class:`Table` is a named collection of metric columns over declared
domains — just enough relational substrate for the optimizer layer to
be honest: predicates can be executed exactly (ground truth for every
estimate) and sampled consistently (row-aligned across columns, the
way a real ANALYZE scans whole tuples).

Tables support **mutation with provenance**: :meth:`Table.append` and
:meth:`Table.delete_where` replace the column arrays (the arrays
themselves stay read-only and are swapped with one reference
assignment, so racing readers see a consistent before/after snapshot),
bump a monotone ``statistics_version``, and record the per-column
delta.  The catalog's incremental ANALYZE replays
:meth:`Table.deltas_since` against its mergeable summaries to refresh
statistics in O(delta) instead of rescanning O(n) rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.base import InvalidQueryError, InvalidSampleError, validate_query
from repro.data.domain import Interval
from repro.data.relation import resolve_rng

#: Retained mutation deltas per table; once the log is deeper than
#: this, older entries are dropped and consumers that fell further
#: behind must full-rebuild (``deltas_since`` raises ``StaleDeltaLog``).
MAX_DELTA_LOG = 256


class StaleDeltaLog(InvalidQueryError):
    """The requested delta range was compacted away; rescan instead."""


@dataclasses.dataclass(frozen=True)
class TableDelta:
    """One recorded mutation: the rows appended to or deleted from a table.

    ``version`` is the table's ``statistics_version`` *after* the
    mutation; ``rows`` maps column name to the affected values
    (read-only arrays).
    """

    version: int
    kind: str  # "append" | "delete"
    rows: "dict[str, np.ndarray]"

    @property
    def row_count(self) -> int:
        """Rows affected by this mutation."""
        return int(next(iter(self.rows.values())).size)


def _frozen_copy(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    if out is array:
        out = array.copy()
    out.flags.writeable = False
    return out


class Table:
    """An in-memory table of metric columns.

    Parameters
    ----------
    name:
        Table name (used in EXPLAIN output).
    columns:
        Mapping of column name to ``(values, domain)``; all columns
        must have the same length.
    """

    def __init__(
        self,
        name: str,
        columns: "dict[str, tuple[np.ndarray, Interval]]",
    ) -> None:
        if not columns:
            raise InvalidSampleError("table needs at least one column")
        self._name = name
        self._domains: dict[str, Interval] = {}
        data: dict[str, np.ndarray] = {}
        length: int | None = None
        for column, (values, domain) in columns.items():
            array = np.asarray(values, dtype=np.float64)
            if array.ndim != 1:
                raise InvalidSampleError(f"column {column!r} must be 1-D")
            if length is None:
                length = array.size
            elif array.size != length:
                raise InvalidSampleError(
                    f"column {column!r} has {array.size} rows, expected {length}"
                )
            if array.size == 0:
                raise InvalidSampleError(f"column {column!r} is empty")
            if not np.all(np.isfinite(array)):
                raise InvalidSampleError(f"column {column!r} contains non-finite values")
            if array.min() < domain.low or array.max() > domain.high:
                raise InvalidSampleError(
                    f"column {column!r} falls outside its domain"
                )
            data[column] = array.copy()
            data[column].flags.writeable = False
            self._domains[column] = domain
        self._data = data
        self._rows = int(length)
        # Mutation provenance: a monotone statistics version plus a
        # bounded log of per-column deltas (see module docstring).
        self._stats_version = 0
        self._deltas: list[TableDelta] = []
        self._compacted_through = 0

    @property
    def name(self) -> str:
        """Table name."""
        return self._name

    @property
    def statistics_version(self) -> int:
        """Monotone version, bumped by every append/delete."""
        return self._stats_version

    @property
    def row_count(self) -> int:
        """Number of rows ``N``."""
        return self._rows

    @property
    def column_names(self) -> list[str]:
        """Column names, declaration order."""
        return list(self._data)

    def domain(self, column: str) -> Interval:
        """Domain of one column."""
        self._check_column(column)
        return self._domains[column]

    def column(self, column: str) -> np.ndarray:
        """Read-only view of one column."""
        self._check_column(column)
        return self._data[column]

    def _check_column(self, column: str) -> None:
        if column not in self._data:
            raise InvalidQueryError(
                f"table {self._name!r} has no column {column!r}; "
                f"has {', '.join(self._data)}"
            )

    def append(self, rows: "dict[str, np.ndarray]") -> int:
        """Append rows (one aligned array per column); returns the new version.

        All declared columns must be present, the arrays equal-length,
        finite, and inside their domains.  The column arrays are
        rebuilt and installed with one reference swap, the statistics
        version is bumped and the delta is recorded for
        :meth:`deltas_since`.
        """
        fresh = self._validate_mutation(rows)
        data = {
            column: np.concatenate([values, fresh[column]])
            for column, values in self._data.items()
        }
        for values in data.values():
            values.flags.writeable = False
        return self._install(data, "append", fresh)

    def delete_where(self, predicates: "dict[str, tuple[float, float]]") -> int:
        """Delete rows matching a conjunction of range predicates.

        Returns the number of rows deleted (0 leaves version and log
        untouched).  Deleting every row is rejected — tables must stay
        non-empty.
        """
        if not predicates:
            raise InvalidQueryError("delete_where requires at least one predicate")
        data = self._data
        mask = np.ones(self._rows, dtype=bool)
        for column, (a, b) in predicates.items():
            self._check_column(column)
            a, b = validate_query(a, b)
            mask &= (data[column] >= a) & (data[column] <= b)
        removed = int(np.count_nonzero(mask))
        if removed == 0:
            return 0
        if removed == self._rows:
            raise InvalidQueryError(
                f"delete_where would empty table {self._name!r}; "
                "drop the table instead"
            )
        deleted = {column: _frozen_copy(values[mask]) for column, values in data.items()}
        kept = {column: _frozen_copy(values[~mask]) for column, values in data.items()}
        self._install(kept, "delete", deleted)
        return removed

    def deltas_since(self, version: int) -> "list[TableDelta]":
        """Mutations after ``version``, oldest first.

        Raises :class:`StaleDeltaLog` when the log was compacted past
        the requested version — the caller fell too far behind and
        must rebuild from a full scan.
        """
        if version > self._stats_version:
            raise InvalidQueryError(
                f"version {version} is ahead of table {self._name!r} "
                f"(at {self._stats_version})"
            )
        if version < self._compacted_through:
            raise StaleDeltaLog(
                f"deltas after version {version} were compacted "
                f"(log starts at {self._compacted_through}); rescan required"
            )
        return [delta for delta in self._deltas if delta.version > version]

    def _validate_mutation(self, rows: "dict[str, np.ndarray]") -> "dict[str, np.ndarray]":
        missing = set(self._data) - set(rows)
        extra = set(rows) - set(self._data)
        if missing or extra:
            raise InvalidSampleError(
                f"appended rows must cover exactly the table's columns; "
                f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        fresh: dict[str, np.ndarray] = {}
        length: int | None = None
        for column in self._data:
            array = np.asarray(rows[column], dtype=np.float64)
            if array.ndim != 1 or array.size == 0:
                raise InvalidSampleError(
                    f"appended column {column!r} must be a non-empty 1-D array"
                )
            if length is None:
                length = array.size
            elif array.size != length:
                raise InvalidSampleError(
                    f"appended column {column!r} has {array.size} rows, expected {length}"
                )
            if not np.all(np.isfinite(array)):
                raise InvalidSampleError(f"appended column {column!r} contains non-finite values")
            domain = self._domains[column]
            if array.min() < domain.low or array.max() > domain.high:
                raise InvalidSampleError(f"appended column {column!r} falls outside its domain")
            fresh[column] = _frozen_copy(array)
        return fresh

    def _install(
        self, data: "dict[str, np.ndarray]", kind: str, affected: "dict[str, np.ndarray]"
    ) -> int:
        self._data = data
        self._rows = int(next(iter(data.values())).size)
        self._stats_version += 1
        self._deltas.append(TableDelta(self._stats_version, kind, affected))
        if len(self._deltas) > MAX_DELTA_LOG:
            trimmed = self._deltas[-MAX_DELTA_LOG:]
            self._compacted_through = trimmed[0].version - 1
            self._deltas = trimmed
        return self._stats_version

    def count(self, predicates: "dict[str, tuple[float, float]]") -> int:
        """Exact row count of a conjunction of range predicates."""
        data = self._data
        rows = next(iter(data.values())).size
        if not predicates:
            return int(rows)
        mask = np.ones(rows, dtype=bool)
        for column, (a, b) in predicates.items():
            self._check_column(column)
            a, b = validate_query(a, b)
            mask &= (data[column] >= a) & (data[column] <= b)
        return int(np.count_nonzero(mask))

    def sample_rows(
        self, n: int, seed: "int | np.random.Generator | None" = None
    ) -> "dict[str, np.ndarray]":
        """Row-aligned sample without replacement across all columns."""
        data = self._data
        rows = next(iter(data.values())).size
        if n <= 0:
            raise InvalidQueryError(f"sample size must be positive, got {n}")
        if n > rows:
            raise InvalidQueryError(
                f"cannot draw {n} rows without replacement from {rows}"
            )
        rng = resolve_rng(seed)
        index = rng.choice(rows, size=n, replace=False)
        return {column: values[index].copy() for column, values in data.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self._name!r}, rows={self._rows}, columns={self.column_names})"
