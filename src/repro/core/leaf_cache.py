"""Byte-bounded LRU cache of decompressed leaf tables.

Exploration queries repeatedly decompress the same recent snapshots
(dashboards poll sliding windows; the T1-T8 task mix re-reads hot
epochs).  Caching the *decompressed* tables trades RAM for the
decompress + deserialize cost on every re-read — the same lever
WarpFlow-scale exploration systems pull by keeping hot partitions
resident across queries.

One LRU, one byte budget, three kinds of entry, all keyed under their
leaf's ``(epoch, table_name)``:

- a full decoded :class:`Table`, charged its decompressed payload size;
- a typed-channel leaf's parsed header (zone maps), charged its encoded
  size — with it resident, a scan zone-gates the leaf and plans its
  decode without reading the blob;
- one decoded channel (a column's cell list) of such a leaf, charged
  8 bytes a cell plus the channel's encoded length.  Scans project, so
  a typed-channel leaf is resident a channel at a time; when every
  channel a scan wants is there, the leaf costs no DFS read at all.

Cached cell lists and tables are shared by every reader: consumers
must never mutate them.  The cache must be invalidated whenever a
leaf's stored bytes change: full decay eviction, grouped-decay
rewrites and recompaction all call :meth:`LeafCache.invalidate_epoch`,
which drops every kind of entry of the epoch.

Thread safety: the serving layer shares one cache between many reader
threads, so every operation (including counter updates — LRU reorder
and byte accounting corrupt silently under races) runs under one
per-instance lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.snapshot import Table


@dataclass(frozen=True)
class LeafCacheStats:
    """Point-in-time counters for one cache instance."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    entries: int
    current_bytes: int
    capacity_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Key suffix of a leaf's parsed header; a channel's is its column name.
_HEADER = None


class LeafCache:
    """LRU over decompressed leaf tables with a byte-capacity bound."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        #: key -> (value, charged bytes); insertion order = LRU order.
        #: Keys are ``(epoch, table)`` for a Table, ``(epoch, table,
        #: None)`` for a header and ``(epoch, table, column)`` for a
        #: channel, so ``key[0]`` is always the epoch.
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes currently charged against the capacity."""
        with self._lock:
            return self._bytes

    def has(self, epoch: int, table: str) -> bool:
        """True when the full table is resident (does not touch LRU order)."""
        with self._lock:
            return (epoch, table) in self._entries

    def has_header(self, epoch: int, table: str) -> bool:
        """True when the leaf's typed-channel header is resident."""
        with self._lock:
            return (epoch, table, _HEADER) in self._entries

    def resident_channels(self, epoch: int, table: str) -> set[str]:
        """Columns of the leaf whose decoded channel is resident."""
        with self._lock:
            return {
                key[2]
                for key in self._entries
                if len(key) == 3
                and key[:2] == (epoch, table)
                and key[2] is not _HEADER
            }

    def _touch(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def get(self, epoch: int, table: str) -> Table | None:
        """Return the cached table and refresh its recency, or None."""
        with self._lock:
            cached = self._touch((epoch, table))
            if cached is None:
                self.misses += 1
            else:
                self.hits += 1
            return cached

    def lookup(self, epoch: int, table: str, columns=None):
        """One scan's probe of one leaf: ``(table, header, channels)``.

        ``table`` is the resident full Table, when there is one.
        Otherwise ``header`` is the leaf's resident typed-channel header
        (None for any other kind of leaf, or a cold one) and
        ``channels`` maps column name to cell list when **every**
        channel the scan wants (``columns``; None means all) is
        resident, else None — a scan that must read the blob anyway
        decodes all its channels in one go.

        Counts one lookup: a hit when the wanted cells were resident
        (``table`` or ``channels``), a miss when the scan has to read
        and decode the leaf.
        """
        with self._lock:
            cached = self._touch((epoch, table))
            if cached is not None:
                self.hits += 1
                return cached, None, None
            header_key = (epoch, table, _HEADER)
            entry = self._entries.get(header_key)
            if entry is None:
                self.misses += 1
                return None, None, None
            header = entry[0]
            channels: dict[str, list[str]] | None = {}
            for zone in header.zones:
                if columns is not None and zone.name not in columns:
                    continue
                cells = self._touch((epoch, table, zone.name))
                if cells is None:
                    channels = None
                    break
                channels[zone.name] = cells
            # Touched last: a header must outlive the channels that
            # cannot be served without it.
            self._entries.move_to_end(header_key)
            if channels is None:
                self.misses += 1
            else:
                self.hits += 1
            return None, header, channels

    def put(self, epoch: int, table_name: str, table: Table, nbytes: int) -> int:
        """Insert (or refresh) an entry charged ``nbytes``.

        Oversized payloads (larger than the whole capacity) are not
        cached — they would only flush everything else.

        Returns:
            The number of entries evicted to make room.
        """
        with self._lock:
            return self._insert((epoch, table_name), table, nbytes)

    def put_channels(
        self, epoch: int, table: str, header, channels: dict[str, list[str]]
    ) -> int:
        """Insert (or refresh) a typed-channel leaf's parsed header and
        the given decoded channels, each its own LRU entry.

        The header is charged its encoded size, a channel 8 bytes a cell
        plus its encoded length; an entry larger than the whole capacity
        is refused like an oversized table.

        Returns:
            The number of entries evicted to make room.
        """
        if not header.unique_names:
            return 0  # channels of such a blob cannot be keyed by column
        with self._lock:
            evicted = 0
            for column, cells in channels.items():
                evicted += self._insert(
                    (epoch, table, column),
                    cells,
                    8 * len(cells) + header.zone(column).raw_len,
                )
            return evicted + self._insert(
                (epoch, table, _HEADER), header, header.body_start
            )

    def _insert(self, key: tuple, value, nbytes: int) -> int:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[1]
        if self.capacity_bytes <= 0 or nbytes > self.capacity_bytes:
            # Not cacheable — but the stale previous entry (e.g. a leaf
            # rewritten larger by the fungus) must still be dropped, or
            # it would keep serving pre-rewrite rows.
            return 0
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        evicted = 0
        while self._bytes > self.capacity_bytes:
            __, (___, cost) = self._entries.popitem(last=False)
            self._bytes -= cost
            evicted += 1
        self.evictions += evicted
        return evicted

    def invalidate_epoch(self, epoch: int) -> int:
        """Drop every table, header and channel cached for ``epoch``
        (decay/rewrite hook)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == epoch]
            for key in stale:
                __, cost = self._entries.pop(key)
                self._bytes -= cost
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> LeafCacheStats:
        """Consistent snapshot of the cache's counters and occupancy."""
        with self._lock:
            return LeafCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._entries),
                current_bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
            )
