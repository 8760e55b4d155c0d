"""Seeded inputs of the serving benchmark: the table and the op streams.

Everything here is a pure function of its seed: the same seed gives the
same request sets and the same write stream.  The table, the service's
ANALYZE sample and the hot request set come from the fixed
:data:`DATA_SEED`, so every workload seed serves the same statistics
and two seeds differ only in their traffic.  The program under test
only ever receives the generated inputs.

Ops are tuples whose first element is one of :data:`READ`,
:data:`APPEND`, :data:`DELETE`, :data:`REFRESH` or :data:`MAINTAIN`:

* ``(READ, index)`` -- serve request ``index`` of the workload's
  :class:`Requests`;
* ``(APPEND, rows)`` -- ``Table.append(rows)``;
* ``(DELETE, ranges)`` -- ``Table.delete_where(ranges)``;
* ``(REFRESH,)`` -- ``EstimationService.refresh_incremental``;
* ``(MAINTAIN,)`` -- ``EstimationService.maintain``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

TABLE = "bench"
#: Seed of the table subsample, the ANALYZE sample and the hot set.
DATA_SEED = 0
#: Column name -> paper data file (registry name) it is subsampled from.
SOURCES = {"n": "n(20)", "e": "e(20)", "rr1": "rr1(22)", "iw": "iw"}
ROWS = 100_000
#: The paper's query sizes, as fractions of the attribute domain.
QUERY_SIZES = (0.01, 0.02, 0.05, 0.10)
#: Predicates per request: 1, 2 or 3, equally likely.
MAX_PREDICATES = 3
HOT_SETS = 128
ZIPF_S = 1.2

#: Ingest schedule: reads per write, writes per refresh, refreshes per
#: maintain (every MAINTAIN_EVERY-th refresh slot runs ``maintain``).
READS_PER_WRITE = 32
WRITES_PER_REFRESH = 4
MAINTAIN_EVERY = 4
#: Rows per append batch.
BATCH_ROWS = 4_000
#: Share of the current rows in each side of a delete box.  With
#: independent columns the box would hold 3.5 % of the table; drift
#: correlates the columns, and the box then removes about BATCH_ROWS
#: on average, which keeps the row count near ROWS.
WINDOW_FRACTION = 0.035 ** (1 / len(SOURCES))
#: Writes over which appended data drifts from the original
#: distribution to its mirror image.
DRIFT_WRITES = 200

READ, APPEND, DELETE, REFRESH, MAINTAIN = "read", "append", "delete", "refresh", "maintain"

#: Ops generated per refill of an op pool (outside the timed phase).
CHUNK = 4_096


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


@dataclasses.dataclass(frozen=True)
class Data:
    """The initial table contents: aligned columns and their domains."""

    columns: "dict[str, np.ndarray]"
    domains: "dict[str, object]"

    def table(self):  # -> repro.db.table.Table
        from repro.db.table import Table

        return Table(TABLE, {c: (v, self.domains[c]) for c, v in self.columns.items()})


def make_data() -> Data:
    """100k-row subsamples of the four paper files, one column each."""
    from repro.data import registry

    rng = _rng(DATA_SEED, 0)
    columns: dict[str, np.ndarray] = {}
    domains: dict[str, object] = {}
    for column, source in SOURCES.items():
        relation = registry.load(source)
        pick = rng.choice(relation.size, size=ROWS, replace=False)
        columns[column] = np.asarray(relation.values, dtype=np.float64)[pick]
        domains[column] = relation.domain
    return Data(columns, domains)


def canonical(predicates: "list[tuple[str, float, float]]") -> tuple:
    """Order-free key of a predicate set (what the program's caches key on)."""
    return tuple(sorted(predicates))


def request_sets(data: Data, seed: int) -> Iterator["list[tuple[str, float, float]]"]:
    """Endless stream of distinct predicate sets.

    Each set is a conjunction of 1-3 range predicates on distinct
    columns, every range centred on the same data record (so the
    result is never empty) with a width drawn from :data:`QUERY_SIZES`.
    Sets already produced are skipped, so no two are equal.
    """
    rng = _rng(seed, 1)
    names = list(data.columns)
    seen: set[tuple] = set()
    while True:
        counts = rng.integers(1, MAX_PREDICATES + 1, size=CHUNK)
        rows = rng.integers(0, ROWS, size=CHUNK)
        sizes = rng.choice(QUERY_SIZES, size=(CHUNK, MAX_PREDICATES))
        picks = rng.permuted(np.tile(np.arange(len(names)), (CHUNK, 1)), axis=1)
        for i in range(CHUNK):
            predicates = []
            for j in range(counts[i]):
                column = names[picks[i, j]]
                domain = data.domains[column]
                centre = data.columns[column][rows[i]]
                half = 0.5 * sizes[i, j] * domain.width
                predicates.append(
                    (column, max(domain.low, centre - half), min(domain.high, centre + half))
                )
            key = canonical(predicates)
            if key not in seen:
                seen.add(key)
                yield predicates


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Probabilities of ranks 1..n under Zipf skew ``s``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return weights / weights.sum()


class Requests:
    """Predicate sets by index, built lazily from a set stream.

    ``items`` holds ``(column, a, b)`` triples; ``predicates`` holds the
    same sets as the program's ``RangePredicate`` lists, built by the
    benchmark loop (``run.py``) outside the timed phase.
    """

    def __init__(self, sets: Iterator["list[tuple[str, float, float]]"]) -> None:
        self._sets = sets
        self.items: list[list[tuple[str, float, float]]] = []
        self.predicates: list[list] = []

    def extend(self, count: int) -> None:
        for _ in range(count):
            self.items.append(next(self._sets))


class Feed:
    """One workload's ops, handed out one at a time across timed phases.

    Ops are generated a chunk at a time by :meth:`refill`, which the
    benchmark loop calls outside the timed phase; it also builds the program's
    ``RangePredicate`` lists for any new request sets.
    """

    def __init__(self, requests: Requests, chunks: Iterator["list[tuple]"]) -> None:
        self.requests = requests
        self._chunks = chunks
        self._chunk: list[tuple] = []
        self._pos = 0

    def ready(self) -> bool:
        return self._pos < len(self._chunk)

    def refill(self) -> None:
        from repro.db.planner import RangePredicate

        self._chunk, self._pos = next(self._chunks), 0
        items, predicates = self.requests.items, self.requests.predicates
        while len(predicates) < len(items):
            predicates.append([RangePredicate(c, a, b) for c, a, b in items[len(predicates)]])

    def next(self) -> tuple:
        op = self._chunk[self._pos]
        self._pos += 1
        return op


def cold_ops(requests: Requests) -> Iterator["list[tuple]"]:
    """Every read a new predicate set."""
    while True:
        start = len(requests.items)
        requests.extend(CHUNK)
        yield [(READ, i) for i in range(start, start + CHUNK)]


def hot_ops(requests: Requests, seed: int) -> Iterator["list[tuple]"]:
    """Zipf-skewed reads over the first :data:`HOT_SETS` sets (set ``i`` has rank ``i+1``)."""
    rng = _rng(seed, 2)
    weights = zipf_weights(HOT_SETS, ZIPF_S)
    while True:
        yield [(READ, int(i)) for i in rng.choice(HOT_SETS, size=CHUNK, p=weights)]


def ingest_ops(data: Data, requests: Requests, seed: int) -> Iterator["list[tuple]"]:
    """Cold reads interleaved with drifting writes and maintenance.

    Writes alternate between an append of :data:`BATCH_ROWS` rows and a
    ``delete_where`` over a box on all columns, ``(DELETE, position)``:
    ``run.py`` turns the position into a box with :func:`delete_box`
    on the table as it is at that moment.  Appended rows are original
    records mirrored within their domain with a probability that grows
    from 0 to 1 over :data:`DRIFT_WRITES` writes.  Every
    :data:`WRITES_PER_REFRESH` writes the statistics are refreshed.
    """
    rng = _rng(seed, 3)
    writes = refreshes = 0
    while True:
        ops: list[tuple] = []
        while len(ops) < CHUNK:
            start = len(requests.items)
            requests.extend(READS_PER_WRITE)
            ops.extend((READ, i) for i in range(start, start + READS_PER_WRITE))
            drift = min(1.0, writes / DRIFT_WRITES)
            if writes % 2 == 0:
                rows = rng.integers(0, ROWS, size=BATCH_ROWS)
                mirror = rng.random(BATCH_ROWS) < drift
                batch = {}
                for column, values in data.columns.items():
                    domain = data.domains[column]
                    picked = values[rows]
                    batch[column] = np.where(mirror, domain.low + domain.high - picked, picked)
                ops.append((APPEND, batch))
            else:
                ops.append((DELETE, float(rng.random())))
            writes += 1
            if writes % WRITES_PER_REFRESH == 0:
                refreshes += 1
                ops.append((MAINTAIN,) if refreshes % MAINTAIN_EVERY == 0 else (REFRESH,))
        yield ops


def delete_box(table, position: float) -> "dict[str, tuple[float, float]]":
    """The ``delete_where`` box of a ``(DELETE, position)`` op.

    Each side of the box holds :data:`WINDOW_FRACTION` of the table's
    current rows around the value of the row at ``position`` (in
    [0, 1)).  Sizing on the current rows keeps each delete near
    :data:`BATCH_ROWS` rows however far the data has drifted; a narrow
    window on one column instead can land on a value with tens of
    thousands of duplicates.
    """
    rows = table.row_count
    row = int(position * rows)
    width = int(WINDOW_FRACTION * rows)
    box = {}
    for column in table.column_names:
        values = table.column(column)
        rank = int(np.count_nonzero(values < values[row]))
        first = min(max(rank - width // 2, 0), rows - width)
        ends = np.partition(values, (first, first + width - 1))[[first, first + width - 1]]
        box[column] = (float(ends[0]), float(ends[1]))
    return box


WORKLOADS = ("optimizer-cold", "optimizer-hot", "ingest-drift")


def op_stream(name: str, data: Data, seed: int) -> "tuple[Requests, Iterator[list[tuple]]]":
    """The request list and the chunks of ops of workload ``name``.

    Wrap the pair in a :class:`Feed` to drive the program with it.

    The hot set is drawn from :data:`DATA_SEED`; ``seed`` picks the
    order in which it is requested.
    """
    if name == "optimizer-cold":
        requests = Requests(request_sets(data, seed))
        return requests, cold_ops(requests)
    if name == "optimizer-hot":
        requests = Requests(request_sets(data, DATA_SEED))
        requests.extend(HOT_SETS)
        return requests, hot_ops(requests, seed)
    if name == "ingest-drift":
        requests = Requests(request_sets(data, seed))
        return requests, ingest_ops(data, requests, seed)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
