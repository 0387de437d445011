"""The one leaf-scan pipeline of the read path.

Every read surface — ``explore.evaluate``'s per-day snapshot scan, the
SQL table scan (``read_columns`` / ``read_rows``), ``read_table`` —
walks the temporal index to its leaves through :func:`scan_leaves` and
is a fold over the columns it returns: SQL concatenates them, the row
forms transpose them at the facade edge, explore aggregates them.
Columns are the one decoded form (:func:`decode_leaf_task`) and the one
resident form (:mod:`repro.core.leaf_cache`), whatever codec or layout
stored the leaf.

The expensive part of a leaf read (decompress + decode) fans out
through the configured executor backend.  The split of responsibilities
is deliberate:

- the **main thread** does everything that touches shared mutable
  state: DFS reads (the simulated DFS and its fault injector are not
  thread-safe), leaf-cache probes/inserts, coverage bookkeeping, and
  the deterministic epoch-order merge;
- **workers** run :func:`decode_leaf_task`, a pure function over bytes,
  so the same code serves the thread and process backends (the task
  tuple pickles cleanly).

Because the fan-out only reorders *when* leaves are decoded — never the
order they are merged — answers are byte-identical to the serial scan,
whatever backend ran the decode.

Leaves stored with the typed-channel codec add a gate between summary
pruning and decode submission: :func:`zone_map_prunes` consults the
leaf's per-channel zone maps (no decompression) and skips the leaf when
they *disprove* a pushed predicate or the explore cell filter.
Disproof reuses the executor's exact value semantics
(:mod:`repro.query.sql.values`), so a zone-pruned scan returns
byte-identical answers to a full decode.

A typed-channel leaf's header is parsed **once per scan at most**: the
gatekeeper takes it from the leaf cache when it is resident (then a
pruned leaf costs no DFS read either) or parses it when it builds the
decode task, and the task carries it to the worker.  Decoded columns go
back into the same cache, so a warm scan whose wanted columns are all
resident skips the read, the inflate and the decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.core.leaf_cache import LeafDescriptor
from repro.core.snapshot import EPOCHS_PER_DAY
from repro.errors import (
    CorruptStreamError,
    LeafQuarantinedError,
    QueryDeadlineError,
    StorageError,
)


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
    #: ``(epoch, table, columns) -> (descriptor, cells)`` — the one
    #: leaf-cache probe (:meth:`repro.core.leaf_cache.LeafCache.get`);
    #: counts the hit or miss.  None when caching is off.
    cache_get: Optional[Callable[[int, str, object], tuple]] = None
    #: ``(epoch, table, descriptor, {column: cells}, nbytes)`` — the one
    #: leaf-cache insert (:meth:`~repro.core.leaf_cache.LeafCache.put`);
    #: counts evictions.  None when caching is off, which the row-text
    #: decode observes: with nowhere to offer the other columns, it
    #: transposes only the wanted ones.
    cache_put: Optional[Callable[[int, str, object, dict, int], None]] = None
    #: Decode tasks submitted per executor round; the deadline is
    #: re-checked between rounds.
    chunk_size: int = 8
    #: ``(epoch, table) -> (codec_name, dict_blob)`` — per-leaf codec
    #: resolution from the leaf's self-describing tag (main thread: it
    #: walks the index and may read a dictionary off the DFS).  None
    #: falls back to the warehouse-wide ``codec_name`` for every leaf.
    codec_of: Optional[Callable[[int, str], tuple[str, Optional[bytes]]]] = None
    #: ``(leaf) -> HighlightSummary | None`` — the day summary covering
    #: a leaf, for summary pruning.  None disables it.
    day_summary: Optional[Callable[[object], object]] = None

    def projection(self, columns) -> tuple[str, ...] | None:
        """The columns a scan decodes and serves, or None for all.

        One rule for every codec and layout: the referenced-column set
        when pruning pushdown is enabled (one switch governs both
        optimisations).  Unselected columns are not served; the facade
        edge shows them blank.
        """
        if not self.pruning or columns is None:
            return None
        return tuple(sorted(set(columns)))

    def decode_task(
        self,
        table: str,
        blob: bytes,
        wanted: tuple[str, ...] | None,
        epoch: int | None = None,
        header=None,
    ) -> tuple:
        """Build one picklable work unit for :func:`decode_leaf_task`.

        When the caller passes the leaf's ``epoch`` and the context has
        a per-leaf resolver, the task carries that leaf's tagged codec
        (and shared-dictionary bytes); otherwise the warehouse-wide
        codec is assumed, as before codec tagging existed.

        ``header`` is the leaf's typed-channel header when the caller
        already holds it (from the leaf cache); otherwise a
        typed-channel blob's header is parsed here — the scan's one
        parse — and rides in the task (slot :data:`TASK_HEADER`) for the
        zone gate and the worker.
        """
        from repro.core.layout import ROW_LAYOUT

        codec_name, dict_blob = self.codec_name, None
        if self.codec_of is not None and epoch is not None:
            codec_name, dict_blob = self.codec_of(epoch, table)
        if codec_name == _TYPEDCHANNEL and header is None:
            header = parse_header(blob)
        if header is None and self.layout == ROW_LAYOUT and self.cache_put is not None:
            # A row-text parse pays for every cell whatever is wanted:
            # transpose them all and leave the whole leaf resident.
            wanted = None
        return (codec_name, dict_blob, self.layout, table, blob, wanted, header)

    def plan_leaf(
        self,
        stats: ScanStats,
        epoch: int,
        table: str,
        path: str,
        wanted: tuple[str, ...] | None,
        predicates: Iterable = (),
        cell_filter: tuple[str, Iterable[str]] | None = None,
    ) -> tuple[str, object]:
        """Gatekeep one live leaf table on the main thread, cheapest
        evidence first: leaf-cache probe → zone gate → DFS read → decode
        task.  With a typed-channel header resident a disproved leaf
        costs no read and no parse, and a leaf whose wanted columns are
        all resident no read, inflate or decode.

        Returns ``(kind, payload)``: ``"resident"`` with the leaf as the
        cache served it, ``(names, {column: cells}, n_rows)``; ``"task"``
        with a decode task; or ``"pruned"`` (zone maps disproved the
        leaf; counted in ``stats``) with None.

        Raises:
            StorageError: when the DFS read fails (the caller owns the
                strict / ``partial_ok`` policy).
        """
        descriptor = cells = None
        if self.cache_get is not None:
            descriptor, cells = self.cache_get(epoch, table, wanted)
        header = descriptor.header if descriptor is not None else None
        gated = self.pruning and (predicates or cell_filter is not None)
        if header is not None:
            stats.header_cache_hits += 1
            if gated and _zone_pruned(stats, header, predicates, cell_filter):
                return "pruned", None
        if cells is not None:
            stats.cache_hits += 1
            if header is not None:
                stats.channels_from_cache += len(cells)
            return "resident", (descriptor.names, cells, descriptor.n_rows)
        task = self.decode_task(
            table, self.read_payload(path), wanted, epoch=epoch, header=header
        )
        if (
            header is None
            and gated
            and _zone_pruned(stats, task[TASK_HEADER], predicates, cell_filter)
        ):
            # Never decoded, so the fold will not cache it: leave the
            # header resident here and the next scan skips the read too.
            pruned = task[TASK_HEADER]
            self.offer(epoch, task, pruned.columns, {}, pruned.n_rows, 0)
            return "pruned", None
        return "task", task

    def offer(
        self, epoch: int, task: tuple, names, cells: dict, n_rows: int, nbytes: int
    ) -> None:
        """Offer one decode to the leaf cache (main thread): the leaf's
        descriptor plus the columns the task decoded."""
        if self.cache_put is not None:
            self.cache_put(
                epoch,
                task[TASK_TABLE],
                LeafDescriptor(names, n_rows, task[TASK_HEADER]),
                cells,
                nbytes,
            )


_TYPEDCHANNEL = "typedchannel"

#: Decode task tuple slots callers read: the table name, the columns the
#: task decodes (None = all) and the parsed typed-channel header (None
#: for every other kind of leaf).
TASK_TABLE = 3
TASK_COLUMNS = 5
TASK_HEADER = 6


def parse_header(blob: bytes):
    """A typed-channel blob's parsed header, or None for a raw-mode or
    corrupt one — those take the generic decode path, which stays the
    single place that surfaces corruption."""
    from repro.compression.typedchannel import read_header

    try:
        return read_header(blob)
    except CorruptStreamError:
        return None


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


def quarantine_error(leaf) -> LeafQuarantinedError:
    """What a strict scan raises on a quarantined leaf."""
    return LeafQuarantinedError(
        f"epoch {leaf.epoch} is quarantined: its blocks had no "
        "live valid replica at recovery (heal + verify_leaves "
        "to re-check, or query with partial_ok)"
    )


def scan_leaves(
    ctx: ScanContext,
    leaves: Iterable,
    table: str,
    first_epoch: int,
    last_epoch: int,
    columns,
    stats: ScanStats,
    coverage,
    partial_ok: bool = False,
    predicates: Iterable = (),
    cell_filter: tuple[str, Iterable[str]] | None = None,
    deadline=None,
    skip_reason: Callable[[Exception], str] = str,
) -> list[tuple[int, Sequence[str], dict[str, list[str]], int]]:
    """The one leaf walk: every read surface is a fold over what this
    returns — each surviving leaf of ``table`` once, in epoch order, as
    ``(epoch, column names, per-column cell lists, n_rows)``.  The names
    are the leaf's full stored schema; the cell lists are keyed by
    column name and hold exactly the columns the scan serves.

    Three phases, merged in epoch order so the answer is byte-identical
    whatever backend ran the decode:

    1. a main-thread gate per leaf (DFS and the leaf cache are not
       thread-safe): window → deadline → summary prune → quarantine →
       :meth:`ScanContext.plan_leaf` (cache probe → zone gate → DFS
       read);
    2. a chunked executor fan-out over the decode tasks, re-checking
       the deadline between chunks;
    3. the fold: scan stats, the leaf-cache offer, and the projection —
       a column the scan did not ask for is not served, whether the
       leaf came from the cache, a selective decode or a full one.

    ``columns`` is the referenced-column set (None = all),
    ``predicates`` the pushed :class:`~repro.query.sql.planner.
    ScanPredicate` list and ``cell_filter`` explore's ``(cell column,
    cells in the box)``; a leaf whose day summary or zone maps disprove
    either is skipped unread — sound because summaries survive decay and
    fungus as supersets of their leaves, and every consumer re-applies
    its filter row-wise.  ``coverage`` (a :class:`~repro.query.explore.
    CoverageReport`) itemises what was served, pruned and — under
    ``partial_ok`` — skipped, with ``skip_reason(exc)`` as the reason.
    The cell lists may be the cache's own: read-only to every consumer.

    Raises:
        LeafQuarantinedError, StorageError, QueryDeadlineError: in
            strict mode, where ``partial_ok`` would skip the leaf.
    """
    from repro.query.sql.planner import disproved_by_summary

    predicates = list(predicates or ())
    wanted = ctx.projection(columns)
    day_pruned: dict[int, bool] = {}

    def out_of_time(epoch: int) -> None:
        if not partial_ok:
            raise QueryDeadlineError(f"query deadline expired at epoch {epoch}")
        coverage.epochs_skipped[epoch] = "deadline"
        coverage.deadline_hit = True

    #: ``(epoch, kind, payload)`` in fold order: ``"absent"`` (the leaf
    #: lacks the table) None, ``"resident"`` the leaf as the cache
    #: served it, ``"task"`` an index into ``tasks``.
    plan: list[tuple[int, str, object]] = []
    tasks: list[tuple] = []
    for leaf in leaves:
        epoch = leaf.epoch
        if leaf.decayed or not first_epoch <= epoch <= last_epoch:
            continue
        if deadline is not None and deadline.expired():
            out_of_time(epoch)
            continue
        if ctx.pruning and ctx.day_summary and (predicates or cell_filter):
            day = epoch // EPOCHS_PER_DAY  # one summary covers the day
            pruned = day_pruned.get(day)
            if pruned is None:
                summary = ctx.day_summary(leaf)
                pruned = day_pruned[day] = summary is not None and (
                    disproved_by_summary(summary, table, predicates)
                    or cell_filter is not None
                    and summary.excludes_cells(table, cell_filter[1])
                )
            if pruned:
                coverage.epochs_pruned.append(epoch)
                stats.leaves_pruned += 1
                continue
        path = leaf.table_paths.get(table)
        kind, payload = "absent", None
        try:
            if leaf.quarantined:
                raise quarantine_error(leaf)
            if path is not None:
                kind, payload = ctx.plan_leaf(
                    stats, epoch, table, path, wanted, predicates, cell_filter
                )
        except StorageError as exc:
            if not partial_ok:
                raise
            coverage.epochs_skipped[epoch] = skip_reason(exc)
            continue
        if kind == "pruned":
            coverage.epochs_pruned.append(epoch)
            continue
        if kind == "task":
            tasks.append(payload)
            payload = len(tasks) - 1
        plan.append((epoch, kind, payload))

    # run_chunked stops submitting once the deadline expires, so tasks
    # past the cutoff never run.
    decoded, run, completed = ctx.executor.run_chunked(
        decode_leaf_task,
        tasks,
        ctx.chunk_size,
        should_stop=deadline.expired if deadline is not None else None,
    )
    stats.on_run(run)

    scanned = []
    for epoch, kind, payload in plan:
        if kind == "task":
            if payload >= completed:
                out_of_time(epoch)
                continue
            task = tasks[payload]
            names, cells, n_rows, nbytes, channel_stats = decoded[payload]
            stats.bytes_decompressed += nbytes
            if channel_stats is not None:
                stats.channels_decoded += channel_stats.channels_decoded
                stats.channel_bytes_skipped += channel_stats.bytes_skipped
            ctx.offer(epoch, task, names, cells, n_rows, nbytes)
            if wanted is not None and task[TASK_COLUMNS] is None:
                cells = {name: cells[name] for name in wanted if name in cells}
            payload = (names, cells, n_rows)
        coverage.epochs_served.append(epoch)
        if payload is not None:
            stats.leaves_scanned += 1
            scanned.append((epoch, *payload))
    return scanned


def align_columns(
    schema: list[str], cells: Mapping[str, list[str]], n_rows: int
) -> list[list[str]]:
    """One leaf's (or one shard group's) columns in the scan schema's
    order, full width.  Matched by column *name*: a column the leaf
    lacks, or the scan does not serve, is blank; one the schema lacks is
    dropped."""
    blanks = [""] * n_rows
    return [cells.get(name, blanks) for name in schema]


# ----------------------------------------------------------------------
# The facade edge: every read_* form is derived from the one
# ``read_columns_by_epoch`` a store implements.  Bound as methods by
# ``Spate`` and ``ShardedSpate`` (bound, not inherited: the ledger's
# tracer patches them on each class).
# ----------------------------------------------------------------------


def read_columns(
    self, table, first_epoch, last_epoch, partial_ok=False, predicates=None, columns=None
) -> tuple[list[str], list[list[str]]]:
    """Scan one table across an epoch range, column-major — the feed
    for the SQL engine's column batches.

    Returns ``(column_names, per-column cell lists)``: the per-epoch
    chunks of :meth:`read_columns_by_epoch` concatenated in epoch order
    into fresh lists.
    """
    out_columns, by_epoch = self.read_columns_by_epoch(
        table, first_epoch, last_epoch, partial_ok, predicates, columns
    )
    return out_columns, [
        list(chain.from_iterable(chunk[c] for __, chunk in by_epoch))
        for c in range(len(out_columns))
    ]


def read_rows_by_epoch(
    self, table, first_epoch, last_epoch, partial_ok=False, predicates=None, columns=None
) -> tuple[list[str], list[tuple[int, list[list[str]]]]]:
    """:meth:`read_columns_by_epoch` transposed: ``(columns, [(epoch,
    rows), ...])`` in ascending epoch order.  Rows are fresh lists."""
    out_columns, by_epoch = self.read_columns_by_epoch(
        table, first_epoch, last_epoch, partial_ok, predicates, columns
    )
    return out_columns, [
        (epoch, [list(row) for row in zip(*chunk)]) for epoch, chunk in by_epoch
    ]


def read_rows(
    self, table, first_epoch, last_epoch, partial_ok=False, predicates=None, columns=None
) -> tuple[list[str], list[list[str]]]:
    """Scan one table across an epoch range, row-major: ``(columns,
    rows)``, the transpose of :func:`read_columns` (same pruning,
    quarantine, coverage and pushdown contract) as fresh lists."""
    out_columns, by_epoch = self.read_rows_by_epoch(
        table, first_epoch, last_epoch, partial_ok, predicates, columns
    )
    return out_columns, [row for __, rows in by_epoch for row in rows]


def decode_leaf_task(
    task: tuple,
) -> tuple[list[str], dict[str, list[str]], int, int, Optional[object]]:
    """Decompress + decode one leaf table into columns (runs on any
    backend).

    Pure function over bytes: resolves its codec by name (plus the
    leaf's shared-dictionary bytes, when its tag references one) so the
    task tuple (:meth:`ScanContext.decode_task`) pickles for the process
    backend.  Returns ``(column names, {column: cells}, n_rows,
    decompressed payload size, channel stats)``: the full stored schema,
    and the cell lists of the columns the task selected (None = all).
    Typed-channel and columnar-layout leaves decode straight into
    columns; a row-text leaf parses once and transposes here, on the
    worker.  ``channel stats`` is, for typed-channel leaves — decoded
    with the header the task carries, never a second parse — a
    :class:`~repro.compression.typedchannel.ChannelReadStats` recording
    which channels the decode touched (None otherwise).
    """
    from repro.compression.autotune import resolve_codec
    from repro.core.layout import deserialize_table_columns

    codec_name, dict_blob, layout, table_name, blob, columns, header = task
    channel_stats = None
    if header is not None:
        from repro.compression.typedchannel import decode_columns

        names, cells, channel_stats = decode_columns(blob, columns, header=header)
        n_rows, nbytes = header.n_rows, channel_stats.bytes_decoded
    else:
        payload = resolve_codec(codec_name, dict_blob).decompress(blob)
        names, cells = deserialize_table_columns(
            table_name, payload, layout, columns=columns
        )
        n_rows, nbytes = len(cells[0]) if cells else 0, len(payload)
    selected = {
        name: column
        for name, column in zip(names, cells)
        if columns is None or name in columns
    }
    return names, selected, n_rows, nbytes, channel_stats
