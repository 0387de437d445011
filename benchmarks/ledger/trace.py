"""Outside-in tracing: spans recorded from the benchmark's own files.

A fixed table of public entry points of ``repro`` (:data:`WRAP_TABLE`)
is wrapped while a traced pass runs and restored afterwards.  Each call
records one span ``{name, layer, start, end, parent, op_id}``; spans
stay in memory and are written out when the workload ends.  A layer's
*self* time is its span's duration minus the part of that interval its
child spans cover, so summing self times over one thread never counts a
microsecond twice.

Some entries also carry a *meter*: a function of the call's arguments
and result that adds to a named count (bytes written, calls made) when
the call happens inside a timed op.
Meters exist because the system exposes no counter for those
quantities; they never alter what the wrapped call does.

Socket shard workers are separate processes and are not wrapped —
start them before :meth:`Tracer.install` so a fork never inherits the
wrappers.  Tracing inside the program is ROADMAP item 4.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

_perf = time.perf_counter

# Span record slots (a list, not an object: the wrapper runs per call).
NAME, LAYER, START, END, PARENT, OP, THREAD = range(7)

#: Layer of the benchmark's own per-op root span; its self time is the
#: part of an op no wrapped layer accounts for.
OP_LAYER = "op"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point."""

    layer: str
    name: str  # span name, unique within the table
    module: str
    attr: str  # "function" or "Class.method"
    meter: Optional[Callable] = None  # (counts, args, kwargs, result) -> None


# -- meters -----------------------------------------------------------------


def _m_compress(counts, args, kwargs, result):
    counts["compression.bytes_in"] += len(args[1])
    counts["compression.bytes_out"] += len(result)


def _m_decompress(counts, args, kwargs, result):
    counts["compression.bytes_decompressed"] += len(result)


def _m_decode_columns(counts, args, kwargs, result):
    counts["compression.bytes_decompressed"] += result[2].bytes_decoded


def _m_read_header(counts, args, kwargs, result):
    counts["compression.typedchannel.read_header_calls"] += 1


def _m_deserialize(counts, args, kwargs, result):
    counts["core.layout.deserialize_calls"] += 1


def _m_dfs_write(counts, args, kwargs, result):
    dfs, data = args[0], args[2] if len(args) > 2 else kwargs["data"]
    replication = (
        args[3] if len(args) > 3 else kwargs.get("replication")
    ) or dfs.default_replication
    counts["dfs.write_calls"] += 1
    counts["dfs.bytes_written"] += len(data) * min(replication, len(dfs.datanodes))


def _m_dfs_read(counts, args, kwargs, result):
    counts["dfs.read_calls"] += 1
    counts["dfs.bytes_read"] += len(result)


def _m_scan_rows(counts, args, kwargs, result):
    counts["query.leafscan.rows_examined"] += len(result[1])


def _m_scan_columns(counts, args, kwargs, result):
    data = result[1]
    counts["query.leafscan.rows_examined"] += len(data[0]) if data else 0


def _m_wire_dumps(counts, args, kwargs, result):
    counts["shard.wire.bytes"] += len(result)


def _m_wire_loads(counts, args, kwargs, result):
    counts["shard.wire.bytes"] += len(args[0])


#: The fixed wrap table.  Renaming any of these entry points in ``src/``
#: makes :func:`resolve` (and the harness self-test) fail loudly.
WRAP_TABLE: tuple[Target, ...] = (
    # core.layout — row serialisation, and the columnar layout's three
    # serialisation steps (cell split, per-column encode, assembly).
    Target("core.layout", "serialize_table", "repro.core.layout", "serialize_table"),
    Target("core.layout", "columnar_column_cells", "repro.core.layout", "columnar_column_cells"),
    Target("core.layout", "encode_column", "repro.compression.columnar", "encode_column"),
    Target("core.layout", "assemble_columnar", "repro.core.layout", "assemble_columnar"),
    Target("core.layout", "deserialize_table", "repro.core.layout", "deserialize_table", _m_deserialize),
    Target("core.layout", "deserialize_table_columns", "repro.core.layout", "deserialize_table_columns", _m_deserialize),
    # compression — the two codecs the ledger's store formats use.
    Target("compression", "gzip-ref.compress", "repro.compression.stdlib_adapters", "GzipRefCodec.compress", _m_compress),
    Target("compression", "gzip-ref.decompress", "repro.compression.stdlib_adapters", "GzipRefCodec.decompress", _m_decompress),
    Target("compression", "typedchannel.compress", "repro.compression.typedchannel", "TypedChannelCodec.compress", _m_compress),
    Target("compression", "typedchannel.decompress", "repro.compression.typedchannel", "TypedChannelCodec.decompress", _m_decompress),
    Target("compression.typedchannel", "read_header", "repro.compression.typedchannel", "read_header", _m_read_header),
    Target("compression.typedchannel", "decode_columns", "repro.compression.typedchannel", "decode_columns", _m_decode_columns),
    Target("compression.typedchannel", "decode_table", "repro.compression.typedchannel", "decode_table"),
    # dfs
    Target("dfs", "write_file", "repro.dfs.filesystem", "SimulatedDFS.write_file", _m_dfs_write),
    Target("dfs", "read_file", "repro.dfs.filesystem", "SimulatedDFS.read_file", _m_dfs_read),
    # index
    Target("index", "highlights.summarize_snapshot", "repro.index.highlights", "summarize_snapshot"),
    Target("index", "incremence.index_leaf", "repro.index.incremence", "IncremenceModule.index_leaf"),
    Target("index", "wal.append", "repro.index.wal", "IndexWal.append"),
    Target("index", "wal.flush", "repro.index.wal", "IndexWal.flush"),
    Target("index", "checkpoint.write", "repro.core.checkpoint", "CheckpointManager.write"),
    Target("index", "decay.run", "repro.index.decay", "DecayModule.run"),
    # core.leaf_cache
    Target("core.leaf_cache", "get", "repro.core.leaf_cache", "LeafCache.get"),
    Target("core.leaf_cache", "put", "repro.core.leaf_cache", "LeafCache.put"),
    # query
    Target("query.leafscan", "read_rows", "repro.core.spate", "Spate.read_rows", _m_scan_rows),
    Target("query.leafscan", "read_columns", "repro.core.spate", "Spate.read_columns", _m_scan_columns),
    Target("query.sql", "parse_sql", "repro.query.sql.parser", "parse_sql"),
    Target("query.sql", "Database.execute", "repro.query.sql.executor", "Database.execute"),
    Target("query.sql", "VectorizedExecutor.execute", "repro.query.sql.vectorized", "VectorizedExecutor.execute"),
    Target("query.explore", "evaluate", "repro.query.explore", "ExplorationEngine.evaluate"),
    # shard (coordinator side only)
    Target("shard", "key.groups_for_box", "repro.shard.key", "RegionMap.groups_for_box"),
    Target("shard", "split_snapshot", "repro.shard.split", "split_snapshot"),
    Target("shard", "coordinator.read_rows", "repro.shard.coordinator", "ShardedSpate.read_rows"),
    Target("shard", "coordinator.read_columns", "repro.shard.coordinator", "ShardedSpate.read_columns"),
    Target("shard", "coordinator.explore", "repro.shard.coordinator", "ShardedSpate.explore"),
    Target("shard", "coordinator.ingest", "repro.shard.coordinator", "ShardedSpate.ingest"),
    Target("shard", "rpc.call", "repro.shard.rpc", "ShardClient.call"),
    Target("shard", "transport.invoke_rpc", "repro.shard.transport", "SocketShardProxy.invoke_rpc"),
    Target("shard", "wire.dumps", "repro.shard.wire", "dumps", _m_wire_dumps),
    Target("shard", "wire.loads", "repro.shard.wire", "loads", _m_wire_loads),
    # server
    Target("server", "admission.admit", "repro.server.admission", "AdmissionController.admit"),
    Target("server", "service.query", "repro.server.service", "SpateService.query"),
)


def resolve(target: Target):
    """``(owner, attribute name, current value)`` of a wrap-table entry.

    Raises:
        LookupError: when the module or attribute no longer exists.
    """
    try:
        owner = importlib.import_module(target.module)
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf, owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(
            f"wrap table entry {target.module}:{target.attr} does not "
            f"resolve against src/ ({exc}); was the entry point renamed?"
        ) from exc


class Tracer:
    """Records spans and meter counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: op_id -> tags (workload, fmt, cls, kind, ...).
        self.ops: list[dict] = []
        #: op id given to spans recorded outside any :meth:`op` block on
        #: their thread (server worker threads).
        self.default_op = -1
        self._tls = threading.local()
        self._ctx: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------

    def install(self) -> None:
        """Wrap every table entry (and each ``from x import y`` alias of a
        wrapped function inside ``repro``)."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        resolved = [(t, *resolve(t)) for t in WRAP_TABLE]
        for target, owner, leaf, original in resolved:
            wrapper = self._wrap(original, target)
            self._patch(owner, leaf, original, wrapper)
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if module is None or module is owner or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapper)

    def _patch(self, owner, leaf, original, wrapper) -> None:
        self._patched.append((owner, leaf, original))
        setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, fn, target: Target):
        name, layer, meter = target.name, target.layer, target.meter
        spans, counts, tls = self.spans, self.counts, self._tls
        tracer = self

        if asyncio.iscoroutinefunction(fn):
            ctx = self._ctx

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                rec = [name, layer, 0.0, 0.0, ctx.get(), tracer.default_op,
                       threading.current_thread().name]
                spans.append(rec)
                token = ctx.set(rec)
                rec[START] = _perf()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec[END] = _perf()
                    ctx.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            if stack:
                parent = stack[-1]
                op_id = parent[OP]
            else:
                parent = None
                op_id = tracer.default_op
            rec = [name, layer, 0.0, 0.0, parent, op_id,
                   threading.current_thread().name]
            spans.append(rec)
            stack.append(rec)
            rec[START] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = _perf()
                stack.pop()
            if meter is not None and op_id >= 0:  # only inside a timed op
                meter(counts, args, kwargs, result)
            return result

        return wrapper

    def register_op(self, **tags) -> int:
        """Allocate an op id for spans that have no root on their thread
        (assign it to :attr:`default_op`)."""
        self.ops.append(tags)
        return len(self.ops) - 1

    @contextmanager
    def op(self, **tags):
        """Root span of one benchmark op on the calling thread; spans
        recorded inside inherit its op id."""
        op_id = self.register_op(**tags)
        rec = [tags.get("cls", "op"), OP_LAYER, 0.0, 0.0, None, op_id,
               threading.current_thread().name]
        self.spans.append(rec)
        stack = self._stack()
        stack.append(rec)
        rec[START] = _perf()
        try:
            yield op_id
        finally:
            rec[END] = _perf()
            stack.pop()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, parallel to :attr:`spans`."""
        return self_times(self.spans)

    def dump(self, path: str) -> int:
        """Write spans as JSON lines; returns the span count."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                parent = rec[PARENT]
                tags = self.ops[rec[OP]] if 0 <= rec[OP] < len(self.ops) else {}
                handle.write(json.dumps({
                    "id": i,
                    "name": rec[NAME],
                    "layer": rec[LAYER],
                    "start": rec[START],
                    "end": rec[END],
                    "parent": ids[id(parent)] if parent is not None else None,
                    "op_id": rec[OP],
                    "thread": rec[THREAD],
                    **({"op": tags} if rec[LAYER] == OP_LAYER else {}),
                }) + "\n")
        return len(self.spans)


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (children may overlap each other or stick out of the parent)."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Duration minus child-covered interval, per span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        parent = rec[PARENT]
        if parent is not None:
            children[id(parent)].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        duration = rec[END] - rec[START]
        kids = children.get(id(rec))
        out.append(
            duration - covered(kids, rec[START], rec[END]) if kids else duration
        )
    return out
