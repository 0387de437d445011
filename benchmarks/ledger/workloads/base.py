"""The frame every workload runs in: set-up, one untraced pass, an
optional traced pass of the same length, answer verification, and the
metric roll-up.

A *pass* is one execution of the workload's schedule: a fixed part that
runs once (e.g. the week of ingest) followed by identical *rounds* of
ops that repeat until the ``--seconds`` budget is spent.  Timings pool
the samples of every round; counts are taken from the fixed part plus
round 1 only, so they repeat exactly for a seed however many rounds the
box had time for; per-layer times are reported per schedule pass (fixed
part + the mean round).
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ledger import stats
from ledger.harness import FORMATS, Budget, IngestTally, Recorder, metric_counters
from ledger.trace import END, LAYER, NAME, OP, OP_LAYER, START, THREAD, Tracer

_perf = time.perf_counter


@dataclass
class Pass:
    """State of one measurement pass."""

    recorder: Recorder
    seconds: float
    tracer: Tracer | None = None
    #: True when this run reports per-layer metrics, so the pass should
    #: also take the (cheap) extra measurements only they need.
    detail: bool = False
    #: Values the workload computes itself (system counters, tallies).
    layer: dict[str, float] = field(default_factory=dict)
    tallies: dict[str, IngestTally] = field(default_factory=dict)
    rounds: int = 0
    #: Meter counts frozen at the end of round 1.
    meter_counts: dict[str, int] = field(default_factory=dict)
    #: SQL rows returned by the end of round 1 (denominator of
    #: ``rows_examined_per_row_returned``).
    rows_returned_round_one: int = 0
    #: metric name -> sample count, for timings the recorder does not hold.
    counts: dict[str, int] = field(default_factory=dict)

    def budget(self, share: float = 1.0) -> Budget:
        return Budget(self.seconds * share)

    @contextmanager
    def tracing(self):
        """Wrappers on for the block, when this is the traced pass."""
        if self.tracer is None:
            yield
            return
        with self.tracer:
            yield

    def end_round_one(self) -> None:
        recorder = self.recorder
        self.rows_returned_round_one = recorder.rows_returned
        if recorder.explore_ops:
            self.layer["query.explore.records_per_op"] = (
                recorder.explore_records / recorder.explore_ops
            )
        if self.tracer is not None and not self.meter_counts:
            self.meter_counts = dict(self.tracer.counts)

    def count_fixed_part_since(self, mark: dict[str, int]) -> None:
        """Add what the meters counted since ``mark`` to the frozen
        counts: a fixed part that runs after the rounds."""
        for name, value in self.tracer.counts.items():
            self.meter_counts[name] = self.meter_counts.get(name, 0) + value - mark.get(name, 0)


def park_heap() -> None:
    """Move everything alive into the permanent generation.

    Stores and warmed caches hold millions of long-lived strings; a full
    collection that walks them costs tens of milliseconds and lands on
    whichever op crosses the allocation threshold.  Parked, the
    collector only walks what the timed ops themselves allocate.  Called
    after set-up, and by a workload whose pass builds a store that later
    ops of the same pass read."""
    gc.collect()
    gc.freeze()


class Workload:
    """Base class; subclasses fill in ``setup`` and ``measure``."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool = False, seconds: float = 15.0) -> None:
        self.seed = seed
        self.smoke = smoke
        #: The measuring budget, for workloads that size inputs by it.
        self.seconds = seconds
        self.setup_s = 0.0
        self.generate_s = 0.0

    # -- hooks ----------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs and build whatever is not measured."""

    def measure(self, run: Pass) -> None:
        """Execute one pass, recording into ``run``."""
        raise NotImplementedError

    def end_to_end(self, run: Pass) -> dict[str, float]:
        """The eight per-format end-to-end metrics of one pass."""
        recorder, tallies = run.recorder, run.tallies
        values = {
            "ingest_rows_per_s": {f: t.rows_per_s for f, t in tallies.items()},
            "stored_bytes_per_user_byte": {
                f: t.stored_per_user_byte for f, t in tallies.items()
            },
            "sql_geomean_ms": {f: recorder.sql_geomean_ms(f) for f in FORMATS},
            "explore_geomean_ms": {f: recorder.explore_geomean_ms(f) for f in FORMATS},
        }
        return {
            f"{name}.{fmt}": by_format[fmt]
            for name, by_format in values.items()
            for fmt in FORMATS
        }

    def per_layer(self, run: Pass) -> dict[str, float]:
        """What the workload computed itself (system counters, tallies)
        plus the per-class medians of the pass."""
        return {**run.layer, **class_metrics(run.recorder)}

    def config(self) -> dict[str, Any]:
        return {}

    def teardown(self) -> None:
        """Stop anything the workload started."""


# ----------------------------------------------------------------------
# Span roll-up
# ----------------------------------------------------------------------

#: per-layer time metric -> span names whose self time it sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "core.layout.serialize_s": (
        "serialize_table", "columnar_column_cells", "encode_column", "assemble_columnar",
    ),
    "core.layout.deserialize_s": ("deserialize_table", "deserialize_table_columns"),
    "compression.compress_s": ("gzip-ref.compress", "typedchannel.compress"),
    "compression.decompress_s": ("gzip-ref.decompress", "typedchannel.decompress"),
    "compression.typedchannel.read_header_s": ("read_header",),
    "compression.typedchannel.decode_columns_s": ("decode_columns", "decode_table"),
    "dfs.write_s": ("write_file",),
    "dfs.read_s": ("read_file",),
    "index.highlights.summarize_s": ("highlights.summarize_snapshot",),
    "index.incremence.index_leaf_s": ("incremence.index_leaf",),
    "index.wal.flush_s": ("wal.append", "wal.flush"),
    "index.checkpoint.write_s": ("checkpoint.write",),
    "index.decay.run_s": ("decay.run",),
    "core.leaf_cache.lookup_s": ("get", "put"),
    "query.leafscan.scan_self_s": ("read_rows", "read_columns"),
    "query.sql.parse_plan_s": ("parse_sql", "Database.execute"),
    "query.sql.execute_self_s": ("VectorizedExecutor.execute",),
    "query.explore.fold_self_s": ("evaluate",),
    "shard.coordinator_self_s": (
        "key.groups_for_box", "split_snapshot", "coordinator.read_rows",
        "coordinator.read_columns", "coordinator.explore", "coordinator.ingest",
        "rpc.call",
    ),
    "shard.transport_wait_s": ("transport.invoke_rpc",),
    "shard.wire.codec_s": ("wire.dumps", "wire.loads"),
    "server.admission_wait_s": ("admission.admit",),
}

#: Thread-name prefix of ``SpateService``'s single ingest worker.
INGEST_THREAD = "spate-ingest"

_SPAN_TO_METRIC = {
    span: metric for metric, spans in TIME_METRICS.items() for span in spans
}


def roll_up_spans(tracer: Tracer, rounds: int) -> dict[str, Any]:
    """Per-layer self times of one schedule pass, the per-format share
    table and the attributed share.

    Only spans recorded inside a timed op count.  Spans tagged with a
    ``round`` weigh ``1/rounds``; spans of the fixed part weigh 1.
    """
    times = {metric: 0.0 for metric in TIME_METRICS}
    by_format: dict[str, dict[str, float]] = {}
    op_wall: dict[str, float] = {}
    attributed = total_wall = 0.0
    for rec, own in zip(tracer.spans, tracer.self_times()):
        if rec[OP] < 0:
            continue  # outside any timed op (finalize, recovery, probes)
        tags = tracer.ops[rec[OP]]
        weight = 1.0 / rounds if tags.get("round") and rounds else 1.0
        fmt = tags.get("fmt", "-")
        if rec[LAYER] == OP_LAYER or tags.get("root") == rec[NAME]:
            # An op root (the benchmark's own span, or ``service.query``
            # on serve_mixed): its duration is the op wall, its self
            # time the remainder no wrapped layer accounts for.
            wall = (rec[END] - rec[START]) * weight
            op_wall[fmt] = op_wall.get(fmt, 0.0) + wall
            total_wall += wall
            continue
        own *= weight
        metric = _SPAN_TO_METRIC.get(rec[NAME])
        if metric is not None:
            times[metric] += own
        if rec[THREAD].startswith(INGEST_THREAD):
            continue  # live ingest beside the queries: timed, not part of an op
        shares = by_format.setdefault(fmt, {})
        shares[rec[LAYER]] = shares.get(rec[LAYER], 0.0) + own
        attributed += own
    return {
        "times": times,
        "self_s_by_format": by_format,
        "op_wall_s_by_format": op_wall,
        "attributed_share": attributed / total_wall if total_wall else 0.0,
    }


# ----------------------------------------------------------------------
# The driver of one workload
# ----------------------------------------------------------------------


def run_workload(workload: Workload, seconds: float, trace: bool,
                 trace_dir: str | None = None) -> dict[str, Any]:
    """Run set-up, the untraced pass and (with ``trace``) a traced pass
    of the same schedule; returns the workload's result record."""
    tracer = Tracer() if trace else None
    try:
        start = _perf()
        workload.setup()
        workload.setup_s = _perf() - start
        park_heap()

        plain = Pass(Recorder(workload.name), seconds, detail=trace)
        workload.measure(plain)
        plain.recorder.verify()
        result: dict[str, Any] = {
            "workload": workload.name,
            "seed": workload.seed,
            "seconds": seconds,
            "config": workload.config(),
            "rounds": plain.rounds,
            "attempted": plain.recorder.attempted,
            "failed": plain.recorder.failed,
            "errors": list(plain.recorder.errors),
            "end_to_end": {"setup_s": workload.setup_s, **workload.end_to_end(plain)},
            "samples": {
                f"{cls}.{fmt}": stats.summarize(values)
                for (fmt, cls), values in sorted(plain.recorder.samples.items())
            },
            # Sample counts printed beside timings that no single class feeds.
            "n": {**plain.recorder.aggregate_counts(), **plain.counts},
        }
        if tracer is not None:
            # measure() turns the wrappers on around its timed region
            # only (after any worker process has been forked).
            traced = Pass(Recorder(workload.name, tracer), seconds, tracer, detail=True)
            workload.measure(traced)
            traced.recorder.verify()
            result["attempted"] += traced.recorder.attempted
            result["failed"] += traced.recorder.failed
            result["errors"] += traced.recorder.errors
            result["rounds_traced"] = traced.rounds
            rolled = roll_up_spans(tracer, traced.rounds)
            layer = {"telco.generate_s": workload.generate_s}
            layer.update(rolled["times"])
            # Timings and system counters come from the untraced pass;
            # the traced pass adds only what needs spans or meters.
            layer.update(workload.per_layer(traced))
            layer.update(workload.per_layer(plain))
            result["n"].update(traced.counts)
            result["n"].update(plain.counts)
            layer.update(meter_metrics(traced, workload))
            plain_per_op = plain.recorder.op_wall_s / max(1, plain.recorder.timed_ops)
            traced_per_op = traced.recorder.op_wall_s / max(1, traced.recorder.timed_ops)
            layer["trace.overhead_share"] = (
                traced_per_op / plain_per_op - 1.0 if plain_per_op else 0.0
            )
            layer["trace.attributed_share"] = rolled["attributed_share"]
            result["per_layer"] = layer
            result["self_s_by_format"] = rolled["self_s_by_format"]
            result["op_wall_s_by_format"] = rolled["op_wall_s_by_format"]
            if trace_dir:
                os.makedirs(trace_dir, exist_ok=True)
                result["spans"] = tracer.dump(
                    os.path.join(trace_dir, f"{workload.name}.jsonl")
                )
        result["correct"] = result["failed"] == 0
        return result
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()


def meter_metrics(run: Pass, workload: Workload) -> dict[str, float]:
    """Counts the system exposes no counter for, from the traced pass's
    meters (frozen at the end of round 1)."""
    counts = run.meter_counts or dict(run.tracer.counts)
    user_bytes = run.recorder.ingested_user_bytes
    rows_returned = run.rows_returned_round_one
    examined = counts.get("query.leafscan.rows_examined", 0)
    ratios = {}
    if user_bytes:
        ratios["dfs.bytes_written_per_user_byte"] = (
            counts.get("dfs.bytes_written", 0) / user_bytes
        )
    if rows_returned:
        ratios["query.leafscan.rows_examined_per_row_returned"] = examined / rows_returned
    return {
        **ratios,
        "core.layout.deserialize_calls": counts.get("core.layout.deserialize_calls", 0),
        "compression.bytes_in": counts.get("compression.bytes_in", 0),
        "compression.bytes_out": counts.get("compression.bytes_out", 0),
        "compression.bytes_decompressed": counts.get("compression.bytes_decompressed", 0),
        "compression.typedchannel.read_header_calls": counts.get(
            "compression.typedchannel.read_header_calls", 0
        ),
        "dfs.write_calls": counts.get("dfs.write_calls", 0),
        "dfs.read_calls": counts.get("dfs.read_calls", 0),
        "dfs.bytes_read": counts.get("dfs.bytes_read", 0),
    }


class ReadCounters:
    """System counters of the read path around a workload's rounds:
    ``ScanStats`` totals (through ``WarehouseMetrics``) up to the end of
    round 1, per-op; ``LeafCacheStats`` over all rounds."""

    def __init__(self, run: Pass, stores: dict[str, Any]) -> None:
        self.run = run
        self.stores = stores
        self.ops_before = run.recorder.attempted
        self.scans = {fmt: metric_counters(store) for fmt, store in stores.items()}
        self.caches = {fmt: _cache_stats(store) for fmt, store in stores.items()}

    def end_round_one(self) -> None:
        run = self.run
        run.end_round_one()
        ops = run.recorder.attempted - self.ops_before
        delta: dict[str, int] = {}
        for fmt, store in self.stores.items():
            for key, value in metric_counters(store).items():
                delta[key] = delta.get(key, 0) + value - self.scans[fmt][key]
        run.layer.update({
            "query.leafscan.leaves_scanned_per_op": delta["query_leaves_scanned"] / ops,
            "query.leafscan.leaves_summary_pruned_per_op": delta["query_leaves_pruned"] / ops,
            "query.leafscan.leaves_zone_pruned_per_op": delta["query_leaves_zone_pruned"] / ops,
            "compression.typedchannel.channels_decoded": delta["query_channels_decoded"],
            "compression.typedchannel.channel_bytes_skipped": delta["query_channel_bytes_skipped"],
            "query.sql.row_engine_fallbacks": delta["sql_queries_row"],
        })

    def finish(self) -> None:
        run = self.run
        evictions = 0
        for fmt, store in self.stores.items():
            before, after = self.caches[fmt], _cache_stats(store)
            lookups = after[0] + after[1] - before[0] - before[1]
            if lookups:  # none with the cache off: no rate to report
                run.layer[f"core.leaf_cache.hit_rate.{fmt}"] = (after[0] - before[0]) / lookups
            evictions += after[2] - before[2]
        run.layer["core.leaf_cache.evictions"] = evictions


def _cache_stats(store) -> tuple[int, int, int]:
    if store.leaf_cache is None:
        return (0, 0, 0)
    snapshot = store.leaf_cache.stats()
    return (snapshot.hits, snapshot.misses, snapshot.evictions)


def class_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-class medians, the pooled explore median and its tail, per
    format."""
    out: dict[str, float] = {}
    for (fmt, cls), values in recorder.samples.items():
        layer = "query.explore" if recorder.kinds[cls] == "explore" else "query.sql"
        out[f"{layer}.{cls}_p50_ms.{fmt}"] = stats.percentile(values, 50)
    for fmt in FORMATS:
        samples = recorder.explore_samples(fmt)
        if samples:
            out[f"query.explore.pooled_p50_ms.{fmt}"] = stats.percentile(samples, 50)
        # p90 needs 100 samples (10 beyond it).
        if len(samples) >= 100:
            out[f"query.explore.p90_ms.{fmt}"] = stats.percentile(samples, 90)
    return out
