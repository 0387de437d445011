"""Shared machinery of the ledger workloads: store formats, trace
generation, the op vocabulary, answer digests and the timing recorder.

Everything here talks to the *public* API of ``repro`` only; nothing
under ``src/`` knows the ledger exists.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.core import Spate, SpateConfig
from repro.core.config import DecayPolicyConfig
from repro.core.snapshot import Snapshot, Table
from repro.spatial.geometry import BoundingBox
from repro.telco import TelcoTraceGenerator, TraceConfig

from ledger import stats

_perf = time.perf_counter

#: The two store formats compared wherever a store is built; the key is
#: the metric-name suffix.
FORMATS: dict[str, dict[str, str]] = {
    "row": {"codec": "gzip-ref", "layout": "row"},
    "typed": {"codec": "typedchannel", "layout": "columnar"},
}


def store_config(fmt: str, **overrides) -> SpateConfig:
    """``SpateConfig`` of one store format under the fixed conventions:
    serial executor, decay off unless a workload turns it on."""
    settings: dict[str, Any] = {
        **FORMATS[fmt],
        "executor": "serial",
        "decay": DecayPolicyConfig(enabled=False),
    }
    settings.update(overrides)
    return SpateConfig(**settings)


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------


@dataclass
class Dataset:
    """Generated snapshots plus the ledger's own space denominator."""

    cells: Table
    snapshots: list[Snapshot]
    records: int
    #: epoch -> Σ ``len(Table.serialize())`` — the bytes a user handed
    #: in.  Not ``IngestStats.raw_bytes``, which is the *layout-
    #: serialised* size and so differs between formats for identical
    #: snapshots.
    user_bytes_by_epoch: dict[int, int]
    generate_s: float

    @property
    def user_bytes(self) -> int:
        return sum(self.user_bytes_by_epoch.values())

    @property
    def first_epoch(self) -> int:
        return self.snapshots[0].epoch

    @property
    def last_epoch(self) -> int:
        return self.snapshots[-1].epoch


def generate(scale: float, epochs: Iterable[int], seed: int) -> Dataset:
    """Generate the snapshots of ``epochs`` for a seed."""
    epochs = list(epochs)
    start = _perf()
    days = epochs[-1] // 48 + 1
    generator = TelcoTraceGenerator(TraceConfig(scale=scale, days=days, seed=seed))
    snapshots = [generator.snapshot(epoch) for epoch in epochs]
    generate_s = _perf() - start
    return Dataset(
        cells=generator.cells_table(),
        snapshots=snapshots,
        records=sum(s.record_count() for s in snapshots),
        user_bytes_by_epoch={
            s.epoch: sum(len(table.serialize()) for table in s.tables.values())
            for s in snapshots
        },
        generate_s=generate_s,
    )


@dataclass
class IngestTally:
    """What timed ``ingest()`` calls on one store added up to."""

    records: int = 0
    seconds: float = 0.0
    stored_bytes: int = 0
    user_bytes: int = 0
    per_snapshot_ms: list[float] = field(default_factory=list)

    @property
    def rows_per_s(self) -> float:
        return self.records / self.seconds

    @property
    def stored_per_user_byte(self) -> float:
        return self.stored_bytes / self.user_bytes


def build_store(fmt: str, data: Dataset, tally: IngestTally, **overrides) -> Spate:
    """A finalized single-node store of one format over ``data``, built
    outside any measured pass (its ``ingest()`` calls are still timed)."""
    store = Spate(store_config(fmt, **overrides))
    store.register_cells(data.cells)
    Recorder("setup").ingest(fmt, store, data, tally)
    store.finalize()
    return store


# ----------------------------------------------------------------------
# The op vocabulary
# ----------------------------------------------------------------------

#: SQL texts of ``benchmarks/test_vectorized_query.py`` (T1-T4) and the
#: selective range query of ``benchmarks/test_selective_query.py``.
SQL_TEXT = {
    "t1_eq": "SELECT upflux AS c0, downflux AS c1 FROM CDR WHERE call_type = 'sms'",
    "t2_range": (
        "SELECT upflux AS c0, downflux AS c1 FROM CDR "
        "WHERE duration_s BETWEEN 60 AND 600"
    ),
    "t3_group_cdr": (
        "SELECT call_type AS c0, COUNT(*) AS a0, SUM(duration_s) AS a1, "
        "AVG(upflux) AS a2, MIN(downflux) AS a3, MAX(downflux) AS a4 "
        "FROM CDR GROUP BY call_type"
    ),
    "t3_group_nms": (
        "SELECT kpi AS c0, COUNT(*) AS a0, SUM(val) AS a1, AVG(val) AS a2, "
        "MAX(drops) AS a3 FROM NMS GROUP BY kpi"
    ),
    "t4_join": (
        "SELECT CDR.call_type AS c0, COUNT(*) AS a0, SUM(NMS.drops) AS a1 "
        "FROM CDR JOIN CELL ON CDR.cell_id = CELL.cell_id "
        "JOIN NMS ON CELL.cell_id = NMS.cellid "
        "WHERE NMS.kpi = 'bearer_drops' GROUP BY CDR.call_type"
    ),
    "sel_zone": (
        "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS total "
        "FROM CDR WHERE duration_s >= {threshold} GROUP BY call_type"
    ),
    "cell_pin": (
        "SELECT call_type, COUNT(*) AS n FROM CDR "
        "WHERE cell_id = '{cell}' GROUP BY call_type"
    ),
}

SQL_CLASSES = ("t1_eq", "t2_range", "t3_group_cdr", "t3_group_nms", "t4_join", "sel_zone")
EXPLORE_CLASSES = ("cdr_box", "cdr_full", "nms_full")

_EXPLORE_TARGET = {
    "cdr_box": ("CDR", ("downflux", "upflux")),
    "cdr_full": ("CDR", ("downflux", "upflux")),
    "nms_full": ("NMS", ("val", "latency_ms")),
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a query string or an exploration."""

    cls: str
    kind: str  # "sql" | "join" | "explore"
    first: int
    last: int
    sql: str = ""
    box: Optional[BoundingBox] = None


def top_decile_duration(snapshots: list[Snapshot]) -> int:
    """``sel_zone``'s threshold: the top-decile CDR ``duration_s`` —
    inside the global range (day summaries keep the leaves) but outside
    most per-leaf ranges (zone maps prune)."""
    durations: list[int] = []
    for snapshot in snapshots:
        table = snapshot.tables["CDR"]
        idx = table.column_index("duration_s")
        durations.extend(int(row[idx]) for row in table.rows)
    durations.sort()
    return durations[len(durations) * 9 // 10]


def sql_op(cls: str, first: int, last: int, **params) -> Op:
    kind = "join" if cls == "t4_join" else "sql"
    return Op(cls, kind, first, last, sql=SQL_TEXT[cls].format(**params))


def explore_op(cls: str, first: int, last: int, box: BoundingBox | None = None) -> Op:
    return Op(cls, "explore", first, last, box=box)


#: One antenna site and the CDR records it carried in a window.
Site = tuple[float, float, int]


def site_traffic(snapshots: list[Snapshot], cell_locations, first: int, last: int) -> list[Site]:
    """CDR records per antenna site over the epochs ``first..last``."""
    records: dict[tuple[float, float], int] = {}
    for snapshot in snapshots:
        if not first <= snapshot.epoch <= last:
            continue
        table = snapshot.tables["CDR"]
        idx = table.column_index("cell_id")
        for row in table.rows:
            point = cell_locations[row[idx]]
            records[point.x, point.y] = records.get((point.x, point.y), 0) + 1
    return sorted((x, y, n) for (x, y), n in records.items())


def seeded_box(rng: random.Random, area: BoundingBox, share: float, sites: list[Site]) -> BoundingBox:
    """The smallest box of the area's shape, centred on a seeded site,
    that holds ``share`` of the window's CDR records.

    Sizing a box by what it holds keeps the work of a box op the same
    from seed to seed.  A box of a fixed side (the issue's 20-50 %)
    holds whatever the seed's ~30 sites put there: the class median
    moved 40 % across ten seeds of identical code, and a box placed
    uniformly missed every site a third of the time (pruned in 0.1 ms)."""
    width, height = area.max_x - area.min_x, area.max_y - area.min_y
    x, y, _ = sites[rng.randrange(len(sites))]
    wanted = share * sum(n for _, _, n in sites)
    held = 0
    for reach, n in sorted((max(abs(sx - x) / width, abs(sy - y) / height), n) for sx, sy, n in sites):
        held += n
        if held >= wanted:
            break
    reach += 1e-9  # the farthest site held lies inside, not on the edge
    return BoundingBox(x - reach * width, y - reach * height, x + reach * width, y + reach * height)


#: Shares of the window's CDR records the boxes hold; they cycle so every
#: run sees the same size mix and only the placement is seeded.
BOX_SHARES = (0.1, 0.2, 0.3, 0.4)


def explore_round(
    seed: int, round_no: int, count: int, area: BoundingBox, sites: list[Site],
    first: int, last: int,
) -> list[Op]:
    """``count`` explore ops drawn 50/25/25 box/full/nms for one round
    over ``area``, whose ``sites`` carried the window's traffic.

    The class sequence is a fixed pattern (so sample counts per class do
    not depend on the seed); box placement and order are seeded."""
    rng = random.Random((seed << 16) ^ (round_no * 7919) ^ 0xB0C5)
    pattern = ("cdr_box", "cdr_full", "cdr_box", "nms_full")
    ops = []
    for i in range(count):
        cls = pattern[i % len(pattern)]
        box = None
        if cls == "cdr_box":
            share = BOX_SHARES[(i // 2 + round_no) % len(BOX_SHARES)]
            box = seeded_box(rng, area, share, sites)
        ops.append(explore_op(cls, first, last, box))
    rng.shuffle(ops)
    return ops


def run_op(store, op: Op, cells: Table):
    """Execute one op through the store's public API."""
    if op.kind == "explore":
        table, attributes = _EXPLORE_TARGET[op.cls]
        return store.explore(table, attributes, op.box, op.first, op.last)
    if op.kind == "join":
        # Registration is inside the timed call: a user pays it.
        database = store.sql_database(op.first, op.last)
        database.register_table("CELL", list(cells.columns), cells.rows)
        return database.execute(op.sql)
    return store.sql(op.sql, op.first, op.last)


# ----------------------------------------------------------------------
# Answer digests (the oracle)
# ----------------------------------------------------------------------


def _reduce(columns, rows: list[str], tail: str) -> str:
    hasher = hashlib.blake2b(digest_size=12)
    hasher.update(("\x1f".join(columns) + "\x1d").encode())
    hasher.update("\x1e".join(rows).encode())
    hasher.update(tail.encode())
    return hasher.hexdigest()


def _explore_digest(columns, records, aggregates, complete: bool, ordered: bool):
    rows = ["\x1f".join(record) for record in records]
    if not ordered:
        rows.sort()
    tail = repr(sorted(aggregates)) + ("complete" if complete else "partial")
    return _reduce(columns, rows, tail), len(rows)


def digest(result, ordered: bool = True) -> tuple[str, int]:
    """Reduce a direct answer to ``(digest, result rows)``.

    SQL: columns + rows (typed cells via ``repr``).  Explore: columns +
    records + per-attribute aggregates + coverage completeness.
    ``ordered=False`` compares explore records as a multiset: the shard
    coordinator merges them in (epoch, group-rank) order, a permutation
    of the single-node order within each epoch.
    """
    if hasattr(result, "records"):
        aggregates = [
            (name, s.count, s.total, s.minimum, s.maximum)
            for name, s in result.aggregates.items()
        ]
        return _explore_digest(
            result.columns, result.records, aggregates,
            result.coverage.complete, ordered,
        )
    rows = ["\x1f".join(map(repr, row)) for row in result.rows]
    return _reduce(result.columns, rows, ""), len(rows)


def digest_response(response) -> tuple[str, int]:
    """The same reduction over a served ``QueryResponse``, so a served
    answer can be compared with the direct call's."""
    if response.coverage is not None:
        aggregates = [
            (name, a["count"], a["total"], a["min"], a["max"])
            for name, a in response.aggregates.items()
        ]
        return _explore_digest(
            response.columns, response.rows, aggregates,
            response.coverage["complete"], True,
        )
    rows = ["\x1f".join(map(repr, row)) for row in response.rows]
    return _reduce(response.columns, rows, ""), len(rows)


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------


class Recorder:
    """Times ops, keeps samples per (format, class) and checks answers.

    Every answer is filed under a caller-chosen key; :meth:`verify`
    fails every op whose key holds two different digests (``.row`` vs
    ``.typed``, sharded vs single-node, served vs direct).
    """

    def __init__(self, workload: str, tracer=None, ordered: bool = True) -> None:
        self.workload = workload
        self.tracer = tracer
        #: False compares explore records as multisets (see :func:`digest`).
        self.ordered = ordered
        #: Classes behind the end-to-end aggregates; None = all of them.
        self.headline: set[str] | None = None
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.kinds: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: answer key -> {source: digest}
        self.answers: dict[Any, dict[str, str]] = {}
        #: Σ wall and count of timed ops — tracing overhead compares the
        #: mean of the traced pass with the untraced one's.
        self.op_wall_s = 0.0
        self.timed_ops = 0
        #: User bytes ingested inside this pass (denominator of
        #: ``dfs.bytes_written_per_user_byte``).
        self.ingested_user_bytes = 0
        self.rows_returned = 0
        self.explore_records = 0
        self.explore_ops = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def file_answer(self, key, source: str, result) -> int:
        """Record ``source``'s answer to ``key``; returns its row count."""
        value, rows = digest(result, self.ordered)
        self.file_digest(key, source, value)
        return rows

    def file_digest(self, key, source: str, value: str) -> None:
        """Record an already-reduced answer (an oracle computed once)."""
        self.answers.setdefault(key, {})[source] = value

    def _clock(self, fmt: str, cls: str, kind: str, tags: dict, call, *args):
        """``(result, seconds)`` of one public call, under an op root
        span when a tracer is attached."""
        if self.tracer is None:
            start = _perf()
            result = call(*args)
            return result, _perf() - start
        with self.tracer.op(workload=self.workload, fmt=fmt, cls=cls, kind=kind, **tags):
            start = _perf()
            result = call(*args)
            elapsed = _perf() - start
        return result, elapsed

    def warm_up(self, ops: list[Op], stores: dict, cells: Table) -> None:
        """One untimed op per entry and format before its class is timed."""
        for op in ops:
            for store in stores.values():
                try:
                    run_op(store, op, cells)
                except Exception:  # the timed repeat reports it
                    pass

    def run_round(self, round_no: int, ops: list[Op], stores: dict, cells: Table) -> None:
        """Time every op of a round on every format, op by op, filing
        each answer under ``(round, position)`` for the cross-check."""
        for index, op in enumerate(ops):
            for fmt, store in stores.items():
                self.timed(fmt, op, store, cells, key=(round_no, index), round=round_no)

    def timed(self, fmt: str, op: Op, store, cells: Table, key=None, **tags):
        """Run one op around ``time.perf_counter``; an op that raises
        counts as failed."""
        self.attempted += 1
        self.kinds[op.cls] = op.kind
        try:
            result, elapsed = self._clock(
                fmt, op.cls, op.kind, tags, run_op, store, op, cells
            )
        except Exception as exc:
            self.fail(f"{fmt}/{op.cls}: {type(exc).__name__}: {exc}")
            return None
        self.op_wall_s += elapsed
        self.timed_ops += 1
        self.samples.setdefault((fmt, op.cls), []).append(elapsed * 1000.0)
        rows = self.file_answer(key, fmt, result) if key is not None else 0
        if op.kind == "explore":
            self.explore_ops += 1
            self.explore_records += rows
        else:
            self.rows_returned += rows
        return result

    def ingest(self, fmt: str, store, data: Dataset, tally: IngestTally,
               snapshots: list[Snapshot] | None = None, **tags) -> None:
        """Ingest ``data``'s snapshots (or the given subset of them),
        each public ``ingest()`` call one timed op."""
        for snapshot in data.snapshots if snapshots is None else snapshots:
            self.attempted += 1
            try:
                ingested, elapsed = self._clock(
                    fmt, "ingest", "ingest", tags, store.ingest, snapshot
                )
            except Exception as exc:
                self.fail(f"{fmt}/ingest epoch {snapshot.epoch}: "
                          f"{type(exc).__name__}: {exc}")
                continue
            self.op_wall_s += elapsed
            self.timed_ops += 1
            tally.seconds += elapsed
            tally.per_snapshot_ms.append(elapsed * 1000.0)
            tally.records += snapshot.record_count()
            tally.stored_bytes += ingested.stored_bytes
            tally.user_bytes += data.user_bytes_by_epoch[snapshot.epoch]
            self.ingested_user_bytes += data.user_bytes_by_epoch[snapshot.epoch]

    def verify(self) -> None:
        """Fail one op per answer key under which the sources (formats,
        sharded and single-node, served and direct) do not all agree."""
        for key, by_source in self.answers.items():
            if len(set(by_source.values())) > 1:
                self.fail(f"answer mismatch at {key}: {by_source}")

    # -- derived metrics -----------------------------------------------

    def class_p50(self, fmt: str, cls: str) -> float | None:
        values = self.samples.get((fmt, cls))
        return stats.percentile(values, 50) if values else None

    def _headline(self, fmt: str, explore: bool) -> list[list[float]]:
        """Sample lists of the classes behind one end-to-end aggregate."""
        return [
            values
            for (f, cls), values in sorted(self.samples.items())
            if f == fmt
            and (self.kinds[cls] == "explore") == explore
            and (self.headline is None or cls in self.headline)
        ]

    def _class_medians(self, fmt: str, explore: bool) -> list[float]:
        return [stats.percentile(values, 50) for values in self._headline(fmt, explore)]

    def aggregate_counts(self) -> dict[str, str]:
        """``n`` beside each aggregate: fewest samples of a class x classes."""
        out = {}
        for fmt in FORMATS:
            for name, explore in (("sql_geomean_ms", False), ("explore_geomean_ms", True)):
                classes = self._headline(fmt, explore)
                out[f"{name}.{fmt}"] = f"{min(map(len, classes))}/class x {len(classes)}"
        return out

    def sql_geomean_ms(self, fmt: str) -> float:
        """Geometric mean over the SQL classes of the per-class median."""
        return stats.geomean(self._class_medians(fmt, explore=False))

    def explore_geomean_ms(self, fmt: str) -> float:
        """Geometric mean over the explore classes of the per-class
        median.  Not the issue's pooled median (``explore_p50_ms``): a
        50/25/25 class mix puts that on the boundary between two
        classes, where it measures the mix (17 % run-to-run spread) and
        not the system; it stays per-layer as
        ``query.explore.pooled_p50_ms``."""
        return stats.geomean(self._class_medians(fmt, explore=True))

    def explore_samples(self, fmt: str) -> list[float]:
        """All explore samples of a format, pooled."""
        out: list[float] = []
        for (f, cls), values in sorted(self.samples.items()):
            if f == fmt and self.kinds[cls] == "explore":
                out.extend(values)
        return out


class Budget:
    """Wall-clock budget of one measured phase: rounds repeat until the
    next one would overrun it."""

    def __init__(self, seconds: float, min_rounds: int = 1) -> None:
        self.deadline = _perf() + seconds
        self.min_rounds = min_rounds
        self.rounds = 0
        self._round_start = _perf()
        self._longest = 0.0

    def another_round(self) -> bool:
        now = _perf()
        if self.rounds:
            self._longest = max(self._longest, now - self._round_start)
        self._round_start = now
        if self.rounds >= self.min_rounds and now + self._longest > self.deadline:
            return False
        self.rounds += 1
        return True


#: ``WarehouseMetrics`` read-path and write-path counters the ledger
#: reads (cumulative; workloads take deltas around their timed phase).
METRIC_FIELDS = (
    "query_leaves_scanned", "query_leaves_pruned", "query_leaves_zone_pruned",
    "query_channels_decoded", "query_channel_bytes_skipped", "sql_queries_row",
    "wal_bytes_written", "checkpoints_written", "leaves_evicted", "bytes_reclaimed",
)


def metric_counters(store) -> dict:
    return {name: getattr(store.metrics, name) for name in METRIC_FIELDS}
