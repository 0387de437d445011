"""Byte-bounded LRU cache of decoded leaf columns.

Exploration queries repeatedly decompress the same recent snapshots
(dashboards poll sliding windows; the T1-T8 task mix re-reads hot
epochs).  Caching the *decoded* cells trades RAM for the decompress +
deserialize cost on every re-read — the same lever WarpFlow-scale
exploration systems pull by keeping hot partitions resident, in the one
columnar form their operators consume.

One LRU, one byte budget, and one resident form whatever codec or
layout stored the leaf: under its ``(epoch, table_name)`` a leaf keeps

- a :class:`LeafDescriptor` — column names, row count and, for a
  typed-channel leaf, the parsed header (zone maps), with which a scan
  zone-gates the leaf and plans its decode without reading the blob;
- one entry per decoded column (its cell list).  Scans project, so a
  leaf is resident a column at a time; when every column a scan wants
  is there, the leaf costs no DFS read, inflate or parse at all.

Charges: a typed-channel header its encoded size and each of its
channels 8 bytes a cell plus the channel's encoded length; any other
leaf charges its descriptor the bytes of its column names and splits
the rest of its decompressed payload size evenly over its columns, so a
fully decoded leaf is charged exactly that payload size.

Cached cell lists are shared by every reader: consumers must never
mutate them.  The cache must be invalidated whenever a leaf's stored
bytes change: full decay eviction, grouped-decay rewrites and
recompaction all call :meth:`LeafCache.invalidate_epoch`, which drops
the epoch's descriptors and columns together.

Thread safety: the serving layer shares one cache between many reader
threads, so every operation (including counter updates — LRU reorder
and byte accounting corrupt silently under races) runs under one
per-instance lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


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


class LeafDescriptor:
    """What a scan knows of a leaf table without its cells."""

    __slots__ = ("names", "n_rows", "header", "known")

    def __init__(self, names, n_rows: int, header=None) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.n_rows = n_rows
        #: The leaf's parsed ``TypedChannelHeader``; None for any other
        #: kind of leaf.
        self.header = header
        self.known = frozenset(self.names)


#: Key suffix of a leaf's descriptor; a column's is its name.
_DESCRIPTOR = None


class LeafCache:
    """LRU over decoded leaf columns with a byte-capacity bound."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        #: key -> (value, charged bytes); insertion order = LRU order.
        #: Keys are ``(epoch, table, None)`` for a descriptor and
        #: ``(epoch, table, column)`` for a column's cells.
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

    def has_header(self, epoch: int, table: str) -> bool:
        """True when the leaf's descriptor is resident (does not touch
        LRU order)."""
        with self._lock:
            return (epoch, table, _DESCRIPTOR) in self._entries

    def resident_channels(self, epoch: int, table: str) -> set[str]:
        """Columns of the leaf whose decoded cells are resident."""
        with self._lock:
            return {
                key[2]
                for key in self._entries
                if key[:2] == (epoch, table) and key[2] is not _DESCRIPTOR
            }

    def get(self, epoch: int, table: str, columns=None):
        """One scan's probe of one leaf: ``(descriptor, cells)``.

        ``descriptor`` is the leaf's resident :class:`LeafDescriptor`
        (None for a cold leaf) and ``cells`` maps column name to cell
        list when **every** column the scan wants (``columns``; None
        means all; names the leaf does not store constrain nothing) is
        resident, else None — a scan that must read the blob anyway
        decodes all its columns in one go.

        Counts one lookup: a hit when the wanted cells were resident, a
        miss when the scan has to read and decode the leaf.
        """
        with self._lock:
            key = (epoch, table, _DESCRIPTOR)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, None
            descriptor = entry[0]
            if columns is None:
                columns = descriptor.names
            cells: dict[str, list[str]] | None = {}
            for name in columns:
                if name not in descriptor.known:
                    continue
                resident = self._entries.get((epoch, table, name))
                if resident is None:
                    cells = None
                    break
                self._entries.move_to_end((epoch, table, name))
                cells[name] = resident[0]
            # Touched last: a descriptor must outlive the columns that
            # cannot be served without it.
            self._entries.move_to_end(key)
            if cells is None:
                self.misses += 1
            else:
                self.hits += 1
            return descriptor, cells

    def put(
        self,
        epoch: int,
        table: str,
        descriptor: LeafDescriptor,
        columns: dict[str, list[str]],
        nbytes: int = 0,
    ) -> int:
        """Insert (or refresh) a leaf's descriptor and the given decoded
        columns, each its own LRU entry.

        ``nbytes`` is the leaf's decompressed payload size, which a leaf
        without a typed-channel header is charged by (see the module
        docstring).  An entry larger than the whole capacity is refused
        — it would only flush everything else.

        Returns:
            The number of entries evicted to make room.
        """
        header, names = descriptor.header, descriptor.names
        if len(descriptor.known) != len(names):
            return 0  # columns of such a leaf cannot be keyed by name
        if header is not None:
            described = header.body_start
            charges = {
                name: 8 * len(cells) + header.zone(name).raw_len
                for name, cells in columns.items()
            }
        else:
            described = min(nbytes, sum(map(len, names)) + len(names))
            share, rest = divmod(nbytes - described, max(1, len(names)))
            described += rest
            charges = dict.fromkeys(columns, share)
        with self._lock:
            evicted = 0
            for name, cells in columns.items():
                evicted += self._insert((epoch, table, name), cells, charges[name])
            return evicted + self._insert(
                (epoch, table, _DESCRIPTOR), descriptor, described
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
        """Drop every descriptor and column cached for ``epoch``
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
