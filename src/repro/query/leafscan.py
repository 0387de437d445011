"""Shared machinery for the parallel, pruned leaf-scan read path.

Both read paths — ``explore.evaluate``'s per-day snapshot scan and the
SQL table scan (``Spate.read_rows``) — fan the expensive part of a leaf
read (decompress + deserialize) out through the configured executor
backend.  The split of responsibilities is deliberate:

- the **main thread** does everything that touches shared mutable state:
  DFS reads (the simulated DFS and its fault injector are not
  thread-safe), leaf-cache lookups/inserts, coverage bookkeeping, and
  the deterministic epoch-order merge;
- **workers** run :func:`decode_leaf_task`, a pure function over bytes,
  so the same code serves the thread and process backends (the task
  tuple pickles cleanly).

Because the fan-out only reorders *when* leaves are decoded — never the
order their rows are merged — answers are byte-identical to the serial
scan, whatever backend ran the decode.

Leaves stored with the typed-channel codec add a third gate between
summary pruning and decode submission: :func:`zone_map_prunes` consults
the leaf's per-channel zone maps (no decompression) and skips the leaf
when they *disprove* a pushed predicate or the explore cell filter.
Disproof reuses the executor's exact value semantics
(:mod:`repro.query.sql.values`), so a zone-pruned scan returns
byte-identical answers to a full decode.

A typed-channel leaf's header is parsed **once per scan at most**: the
gatekeeper takes it from the leaf cache when it is resident (then a
pruned leaf costs no DFS read either) or parses it when it builds the
decode task, and the task carries it to the worker.  Decoded channels
go back into the same cache, so a warm scan whose wanted channels are
all resident (:func:`resident_columns`) skips the read, the inflate and
the column decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.snapshot import Table
from repro.errors import CorruptStreamError


@dataclass
class ScanStats:
    """Per-query read-path instrumentation (surfaced by EXPLAIN ANALYZE
    and folded into :class:`~repro.core.metrics.WarehouseMetrics`)."""

    #: Leaves whose rows were actually merged (decoded or cache-served).
    leaves_scanned: int = 0
    #: Leaves skipped because a summary disproved the filter.
    leaves_pruned: int = 0
    #: Leaves skipped because their typed-channel zone maps disproved a
    #: pushed predicate or the explore cell filter.
    leaves_zone_pruned: int = 0
    #: Scanned leaves served from the decompressed-leaf cache (a full
    #: table, or every wanted channel of a typed-channel leaf).
    cache_hits: int = 0
    #: Typed-channel leaves whose parsed header came from the leaf cache
    #: (zone-gated, and decoded if they survived, without a parse).
    header_cache_hits: int = 0
    #: Decoded channels served from the leaf cache.
    channels_from_cache: int = 0
    #: Decompressed payload bytes produced by this query's decodes.
    bytes_decompressed: int = 0
    #: Typed channels actually decoded by selective decodes.
    channels_decoded: int = 0
    #: Encoded channel bytes selective decodes and zone pruning skipped.
    channel_bytes_skipped: int = 0
    #: Wall-clock of the decode fan-out vs its serial-equivalent work.
    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    #: Executor backend that ran the decodes; ``"mixed"`` when folded
    #: scans ran on different backends (never silently overwritten).
    backend: str = ""

    def merge(self, other: "ScanStats") -> None:
        """Fold another scan's counters into this one."""
        self.leaves_scanned += other.leaves_scanned
        self.leaves_pruned += other.leaves_pruned
        self.leaves_zone_pruned += other.leaves_zone_pruned
        self.cache_hits += other.cache_hits
        self.header_cache_hits += other.header_cache_hits
        self.channels_from_cache += other.channels_from_cache
        self.bytes_decompressed += other.bytes_decompressed
        self.channels_decoded += other.channels_decoded
        self.channel_bytes_skipped += other.channel_bytes_skipped
        self.wall_seconds += other.wall_seconds
        self.task_seconds += other.task_seconds
        self._fold_backend(other.backend)

    def on_run(self, run) -> None:
        """Fold one :class:`~repro.engine.executor.ExecutorRun` in."""
        self.wall_seconds += run.wall_seconds
        self.task_seconds += run.task_seconds
        self._fold_backend(run.backend)

    def _fold_backend(self, backend: str) -> None:
        if not backend:
            return
        if self.backend and self.backend != backend:
            self.backend = "mixed"
        else:
            self.backend = backend

    @property
    def prune_rate(self) -> float:
        """Fraction of candidate leaves skipped without decompression
        (summary- and zone-pruned alike)."""
        pruned = self.leaves_pruned + self.leaves_zone_pruned
        total = self.leaves_scanned + pruned
        return pruned / total if total else 0.0

    @property
    def speedup(self) -> float:
        """Decode-stage speedup: serial-equivalent work / wall time.

        0.0 when no wall time was measured — a zero-leaf scan has no
        speedup to report, and claiming 1.0x would be an invention.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.task_seconds / self.wall_seconds

    def describe(self) -> str:
        """One-line human-readable scan report."""
        zone = (
            f", {self.leaves_zone_pruned} zone-pruned"
            if self.leaves_zone_pruned
            else ""
        )
        channels = (
            f", {self.channels_decoded} channels decoded, "
            f"{self.channel_bytes_skipped:,} channel bytes skipped"
            if self.channels_decoded or self.channel_bytes_skipped
            else ""
        )
        resident = (
            f", {self.header_cache_hits} headers and "
            f"{self.channels_from_cache} channels from cache"
            if self.header_cache_hits or self.channels_from_cache
            else ""
        )
        speedup = (
            f"speedup {self.speedup:.2f}x"
            if self.wall_seconds > 0.0
            else "speedup n/a"
        )
        return (
            f"{self.leaves_scanned} leaves scanned "
            f"({self.cache_hits} from cache), "
            f"{self.leaves_pruned} pruned ({self.prune_rate:.0%})"
            + zone
            + f", {self.bytes_decompressed:,} bytes decompressed"
            + channels
            + resident
            + f", decode wall {self.wall_seconds * 1000:.1f} ms "
            f"({speedup}"
            + (f", {self.backend}" if self.backend else "")
            + ")"
        )


@dataclass
class ScanContext:
    """Everything a scan needs from the warehouse, with the not-thread-
    safe pieces wrapped as main-thread callables."""

    executor: object  # ExecutorBackend
    codec_name: str
    layout: str
    #: Master switch for summary pruning *and* projection pushdown.
    pruning: bool
    #: ``(path) -> bytes`` — raw DFS read, main thread only.
    read_payload: Callable[[str], bytes]
    #: ``(epoch, table, columns) -> (table, header, channels)`` — one
    #: leaf-cache probe (:meth:`repro.core.leaf_cache.LeafCache.lookup`;
    #: all None when caching is off); counts the hit or miss.
    cache_get: Callable[[int, str, object], tuple]
    #: ``(epoch, table, loaded, nbytes)`` — leaf-cache insert of a full
    #: table; counts evictions.  Projected decodes are not full tables:
    #: go through :meth:`cache_decoded_table`.
    cache_put: Callable[[int, str, Table, int], None]
    #: Decode tasks submitted per executor round; the deadline is
    #: re-checked between rounds.
    chunk_size: int = 8
    #: ``(epoch, table) -> (codec_name, dict_blob)`` — per-leaf codec
    #: resolution from the leaf's self-describing tag (main thread: it
    #: walks the index and may read a dictionary off the DFS).  None
    #: falls back to the warehouse-wide ``codec_name`` for every leaf.
    codec_of: Optional[Callable[[int, str], tuple[str, Optional[bytes]]]] = None
    #: ``(epoch, table, header, {column: cells})`` — leaf-cache insert of
    #: a typed-channel leaf's header and decoded channels; None when
    #: caching is off, so callers skip preparing the channels at all.
    cache_put_channels: Optional[Callable[[int, str, object, dict], None]] = None

    def decode_task(
        self,
        table: str,
        blob: bytes,
        columns: tuple[str, ...] | None,
        epoch: int | None = None,
        wanted: Iterable[str] | None = None,
        header=None,
    ) -> tuple:
        """Build one picklable work unit for :func:`decode_leaf_task`.

        When the caller passes the leaf's ``epoch`` and the context has
        a per-leaf resolver, the task carries that leaf's tagged codec
        (and shared-dictionary bytes); otherwise the warehouse-wide
        codec is assumed, as before codec tagging existed.

        ``wanted`` is the raw referenced-column set before the layout
        gate in :meth:`projection`; a typed-channel leaf decodes
        :meth:`typed_projection` of it.

        ``header`` is the leaf's typed-channel header when the caller
        already holds it (from the leaf cache); otherwise a
        typed-channel blob's header is parsed here — the scan's one
        parse — and rides in the task (slot :data:`TASK_HEADER`) for the
        zone gate and the worker.
        """
        codec_name, dict_blob = self.codec_name, None
        if self.codec_of is not None and epoch is not None:
            codec_name, dict_blob = self.codec_of(epoch, table)
        if codec_name == _TYPEDCHANNEL:
            columns = self.typed_projection(columns, wanted)
            if header is None:
                header = parse_header(blob)
        return (codec_name, dict_blob, self.layout, table, blob, columns, header)

    def typed_projection(
        self, columns: tuple[str, ...] | None, wanted: Iterable[str] | None
    ) -> tuple[str, ...] | None:
        """The channels a typed-channel leaf decodes for a scan (None =
        all).  Such leaves can skip channels under *either* physical
        layout, so when no layout-gated projection applies the raw
        wanted set becomes the projection for those leaves alone."""
        if columns is None and wanted is not None and self.pruning:
            return tuple(sorted(set(wanted)))
        return columns

    def projection(self, columns) -> tuple[str, ...] | None:
        """The column subset to decode, or None for a full decode.

        Projection is only worth requesting for the columnar layout
        (row-layout decodes can't skip columns) and only when pruning
        pushdown is enabled — one switch governs both optimisations.
        (Typed-channel leaves are projectable under any layout; see
        :meth:`typed_projection`.)
        """
        from repro.core.layout import COLUMNAR_LAYOUT

        if not self.pruning or columns is None or self.layout != COLUMNAR_LAYOUT:
            return None
        return tuple(sorted(set(columns)))

    def plan_leaf(
        self,
        stats: ScanStats,
        epoch: int,
        table: str,
        path: str,
        columns: tuple[str, ...] | None,
        wanted: Iterable[str] | None,
        predicates: Iterable = (),
        cell_filter: tuple[str, Iterable[str]] | None = None,
    ) -> tuple[str, object]:
        """Gatekeep one live leaf table on the main thread, cheapest
        evidence first: leaf-cache probe (full table, else the resident
        typed-channel header and channels) → zone gate → DFS read →
        decode task.  With the header resident a disproved leaf costs no
        read and no parse, and a leaf whose wanted channels are all
        resident no read, inflate or column decode.

        Returns ``(kind, payload)``: ``"table"`` with the cached Table,
        ``"channels"`` with ``(header, {column: cells})`` served from
        the cache, ``"pruned"`` (zone maps disproved the leaf; counted
        in ``stats``) with None, or ``"task"`` with a decode task.

        Raises:
            StorageError: when the DFS read fails (the caller owns the
                strict / ``partial_ok`` policy).
        """
        cached, header, channels = self.cache_get(
            epoch, table, self.typed_projection(columns, wanted)
        )
        if cached is not None:
            stats.cache_hits += 1
            return "table", cached
        gated = self.pruning and (predicates or cell_filter is not None)
        if header is not None:
            stats.header_cache_hits += 1
            if gated and _zone_pruned(stats, header, predicates, cell_filter):
                return "pruned", None
            if channels is not None:
                stats.cache_hits += 1
                stats.channels_from_cache += len(channels)
                return "channels", (header, channels)
        task = self.decode_task(
            table, self.read_payload(path), columns,
            epoch=epoch, wanted=wanted, header=header,
        )
        if (
            header is None
            and gated
            and _zone_pruned(stats, task[TASK_HEADER], predicates, cell_filter)
        ):
            # Never decoded, so the fold will not cache it: leave the
            # header resident here and the next scan skips the read too.
            if self.cache_put_channels is not None:
                self.cache_put_channels(epoch, table, task[TASK_HEADER], {})
            return "pruned", None
        return "task", task

    def cache_decoded_table(
        self, epoch: int, task: tuple, loaded: Table, nbytes: int
    ) -> None:
        """Offer a row-form decode to the leaf cache (main thread): a
        full decode as its Table, a projected typed-channel decode as
        the channels it decoded.  Any other projected decode is a
        partial table and never cached."""
        if not task_is_projected(task):
            self.cache_put(epoch, task[TASK_TABLE], loaded, nbytes)
        elif self.cache_put_channels is not None and task[TASK_HEADER] is not None:
            self.cache_put_channels(
                epoch,
                task[TASK_TABLE],
                task[TASK_HEADER],
                {
                    column: loaded.column_values(column)
                    for column in task[TASK_COLUMNS]
                    if column in loaded.columns
                },
            )

    def cache_decoded_columns(
        self, epoch: int, task: tuple, names: list[str], column_values: list
    ) -> None:
        """Offer a column-form decode of a typed-channel leaf to the leaf
        cache (main thread): the channels it decoded, not the shared
        blank lists standing in for the rest."""
        header = task[TASK_HEADER]
        if self.cache_put_channels is None or header is None:
            return
        wanted = task[TASK_COLUMNS]
        self.cache_put_channels(
            epoch,
            task[TASK_TABLE],
            header,
            {
                name: cells
                for name, cells in zip(names, column_values)
                if wanted is None or name in wanted
            },
        )


_TYPEDCHANNEL = "typedchannel"

#: Decode task tuple slots callers read: the table name, the column
#: projection (tells full decodes from projected ones) and the parsed
#: typed-channel header (None for every other kind of leaf).
TASK_TABLE = 3
TASK_COLUMNS = 5
TASK_HEADER = 6


def task_is_projected(task) -> bool:
    """True when a decode task will produce a partial (projected)
    table, which must never enter the leaf cache as a full one."""
    return task[TASK_COLUMNS] is not None


def parse_header(blob: bytes):
    """A typed-channel blob's parsed header, or None for a raw-mode or
    corrupt one — those take the generic decode path, which stays the
    single place that surfaces corruption."""
    from repro.compression.typedchannel import read_header

    try:
        return read_header(blob)
    except CorruptStreamError:
        return None


def resident_columns(header, channels: dict) -> tuple[list[str], list[list[str]]]:
    """A leaf's cache-served channels in the shape of a projected
    ``decode_columns``: the full stored schema, unselected columns as
    blank cell lists.  The cell lists are the cache's own — read-only."""
    blanks = [""] * header.n_rows
    return (
        list(header.columns),
        [channels.get(name, blanks) for name in header.columns],
    )


def resident_table(name: str, header, channels: dict) -> Table:
    """Row form of :func:`resident_columns`, for the row scan
    (``read_rows``) and explore: the same projected table a decode would have returned."""
    from repro.compression.typedchannel import table_from_columns

    return table_from_columns(
        name, *resident_columns(header, channels), header.n_rows
    )


def zone_map_prunes(
    header,
    predicates: Iterable = (),
    cell_filter: tuple[str, Iterable[str]] | None = None,
) -> tuple[bool, int]:
    """Consult a typed-channel leaf's zone maps before decoding it —
    and, when the header came from the leaf cache, before reading it.

    Returns ``(pruned, skipped_bytes)`` — ``pruned`` is True when some
    pushed predicate (or the explore cell filter) is *disproved* for
    every row of the leaf, and ``skipped_bytes`` is the decompression
    work that pruning avoided.  ``header`` is None for non-typed-channel
    leaves, raw-mode blobs and corrupt headers, which all return
    ``(False, 0)``.
    """
    if header is None:
        return False, 0
    for predicate in predicates or ():
        zone = header.zone(predicate.column)
        if zone is None:
            continue
        if _zone_disproves(zone, header.n_rows, predicate.op, predicate.value):
            return True, header.total_raw_bytes
    if cell_filter is not None:
        column, cells = cell_filter
        zone = header.zone(column)
        if (
            zone is not None
            and zone.distinct_set is not None
            and zone.distinct_set.isdisjoint(cells)
        ):
            return True, header.total_raw_bytes
    return False, 0


def _zone_pruned(stats: ScanStats, header, predicates, cell_filter) -> bool:
    """Run the zone gate for :meth:`ScanContext.plan_leaf`, counting a
    prune.  Sound to skip on: the executor re-applies every predicate
    (and explore its cell filter) row-wise, so a leaf with no passing
    row contributes nothing either way."""
    pruned, skipped_bytes = zone_map_prunes(header, predicates, cell_filter)
    if pruned:
        stats.leaves_zone_pruned += 1
        stats.channel_bytes_skipped += skipped_bytes
    return pruned


def _zone_disproves(zone, n_rows: int, op: str, value) -> bool:
    """Whether a zone map proves no cell of its channel can satisfy
    ``cell op value`` under executor semantics.

    Two disproof paths, most-precise first:

    - a *complete* distinct set is evaluated exactly, value by value,
      with the executor's own :func:`~repro.query.sql.values.
      predicate_passes` — sound for every operator and literal type;
    - integer min/max bounds apply only to numeric literals and only
      when **every** row has an integer view (``int_count == n_rows``).
      Otherwise some cell would be compared as a *string* by the
      executor, and numeric bounds say nothing about string order.
    """
    from repro.query.sql.values import predicate_passes

    if op not in ("=", "<", "<=", ">", ">="):
        return False
    if zone.distinct is not None:
        return not any(
            predicate_passes(cell, op, value) for cell in zone.distinct
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if n_rows == 0 or zone.int_count != n_rows:
        return False
    low, high = zone.int_min, zone.int_max
    if op == "=":
        return value < low or value > high
    if op == "<":
        return low >= value
    if op == "<=":
        return low > value
    if op == ">":
        return high <= value
    return high < value  # ">="


def decode_leaf_task(task: tuple) -> tuple[Table, int, Optional[object]]:
    """Decompress + deserialize one leaf table (runs on any backend).

    Pure function over bytes: resolves its codec by name (plus the
    leaf's shared-dictionary bytes, when its tag references one) so the
    task tuple (:meth:`ScanContext.decode_task`) pickles for the process
    backend.  Returns the table, the decompressed payload size (the
    leaf cache charges by it), and — for typed-channel leaves, decoded
    with the header the task carries, never a second parse — a
    :class:`~repro.compression.typedchannel.ChannelReadStats` recording
    which channels the decode touched (None otherwise).
    """
    from repro.compression.autotune import resolve_codec
    from repro.core.layout import deserialize_table

    codec_name, dict_blob, layout, table_name, blob, columns, header = task
    if header is not None:
        from repro.compression.typedchannel import decode_table

        loaded, channel_stats = decode_table(
            table_name, blob, columns, header=header
        )
        return loaded, channel_stats.bytes_decoded, channel_stats
    payload = resolve_codec(codec_name, dict_blob).decompress(blob)
    loaded = deserialize_table(table_name, payload, layout, columns=columns)
    return loaded, len(payload), None


def decode_leaf_columns_task(
    task: tuple,
) -> tuple[list[str], list[list[str]], int, Optional[object]]:
    """Column-major twin of :func:`decode_leaf_task` for the vectorized
    SQL read path: same task tuples, same gates, but typed-channel and
    columnar-layout leaves come back as ``(columns, per-column cell
    lists)`` *without the row transpose* — the batch engine consumes
    columns directly.  Row-layout leaves transpose here, on the worker,
    so the main-thread merge cost is identical either way."""
    from repro.compression.autotune import resolve_codec
    from repro.core.layout import deserialize_table_columns

    codec_name, dict_blob, layout, table_name, blob, columns, header = task
    if header is not None:
        from repro.compression.typedchannel import decode_columns

        names, column_values, channel_stats = decode_columns(
            blob, columns, header=header
        )
        return names, column_values, channel_stats.bytes_decoded, channel_stats
    payload = resolve_codec(codec_name, dict_blob).decompress(blob)
    names, column_values = deserialize_table_columns(
        table_name, payload, layout, columns=columns
    )
    return names, column_values, len(payload), None
