"""The ledger's metric catalogue: names, units, directions and bounds.

Later issues name a claim as "metric X on workload Y" using exactly the
names defined here.  ``BENCHMARK.json`` at the repository root is
generated from this module (``run.py manifest``) and a harness
self-test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ledger.harness import EXPLORE_CLASSES, FORMATS, SQL_CLASSES
from ledger.workloads import WORKLOADS
from ledger.workloads.serve_mixed import RATES
from ledger.workloads.shard_socket import CLASSES as SHARD_CLASSES

#: How long one run measures; sizes in ``workloads/`` were tuned so the
#: fixed parts fit inside it on the 2-core reference box.
RUN_SECONDS = 15

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse
    #: before a change counts as a regression; None for per-layer
    #: metrics, which explain a change and do not gate it.
    bound: float | None = None
    about: str = ""
    #: The bound ``compare`` applies when both sides ran the same seed
    #: (the issue's table); ``bound`` also has to absorb what a different
    #: seed's data does to the metric, because the driver varies the seed.
    same_seed_bound: float | None = None


def _per_format(name, unit, better, bounds, same_seed_bound, about):
    return [
        Metric(f"{name}.{fmt}", unit, better, bound, about, same_seed_bound)
        for fmt, bound in zip(FORMATS, bounds)
    ]


#: Reported by every workload (the driver requires each end-to-end
#: metric on each workload): what a user of that workload's warehouse
#: sees for writing, keeping and reading it.  ``bound`` (.row, .typed) is
#: max(the issue's value, 3 x the widest spread over ten seeds on any
#: workload in either of two sets), capped at 0.25 — README "How the
#: bounds were set".
END_TO_END: list[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "generation + store builds + pre-warming, outside every timed region", 0.25),
    *_per_format("ingest_rows_per_s", "records/s", "higher", (0.12, 0.11), 0.10,
                 "records / sum of wall of the public ingest() calls"),
    *_per_format("stored_bytes_per_user_byte", "ratio", "lower", (0.03, 0.025), 0.001,
                 "sum IngestStats.stored_bytes / sum len(Table.serialize()); exact for a seed"),
    *_per_format("sql_geomean_ms", "ms", "lower", (0.12, 0.16), 0.10,
                 "geometric mean over the workload's SQL classes of the per-class median"),
    *_per_format("explore_geomean_ms", "ms", "lower", (0.12, 0.13), 0.10,
                 "geometric mean over the workload's explore classes of the per-class median"),
]

#: End-to-end metrics of ``serve_mixed`` alone.  They cannot be measured
#: on the other four workloads (no server runs there), so the driver's
#: manifest lists them per-layer; the ledger's own ``compare`` applies
#: these bounds.
SERVE_END_TO_END: list[Metric] = [
    Metric("serve_geomean_ms.lo", "ms", "lower", 0.10,
           "geometric mean over the mix's four classes of the median due-time-to-response "
           "latency at the lo rate", 0.10),
    Metric("serve_geomean_ms.hi", "ms", "lower", 0.10, "the same at the hi rate", 0.10),
    Metric("serve_p95_ms.hi", "ms", "lower", 0.15, "p95 of all requests at the hi rate (needs 200 samples)", 0.15),
    Metric("serve_ingest_ack_p50_ms", "ms", "lower", 0.10, "append to acknowledgement at the hi rate", 0.10),
]


def _layer(name: str, unit: str, better: str = "lower", about: str = "") -> Metric:
    return Metric(name, unit, better, None, about)


PER_LAYER: list[Metric] = [
    _layer("telco.generate_s", "s"),
    # core.layout
    _layer("core.layout.serialize_s", "s"),
    _layer("core.layout.deserialize_s", "s"),
    _layer("core.layout.deserialize_calls", "count"),
    # compression
    _layer("compression.compress_s", "s"),
    _layer("compression.decompress_s", "s"),
    _layer("compression.bytes_in", "bytes"),
    _layer("compression.bytes_out", "bytes"),
    _layer("compression.bytes_decompressed", "bytes"),
    _layer("compression.typedchannel.read_header_s", "s"),
    _layer("compression.typedchannel.read_header_calls", "count"),
    _layer("compression.typedchannel.decode_columns_s", "s"),
    _layer("compression.typedchannel.channels_decoded", "count"),
    _layer("compression.typedchannel.channel_bytes_skipped", "bytes", "higher"),
    # dfs
    _layer("dfs.write_s", "s"),
    _layer("dfs.write_calls", "count"),
    _layer("dfs.bytes_written_per_user_byte", "ratio"),
    _layer("dfs.read_s", "s"),
    _layer("dfs.read_calls", "count"),
    _layer("dfs.bytes_read", "bytes"),
    # index
    _layer("index.highlights.summarize_s", "s"),
    _layer("index.wal.flush_s", "s"),
    _layer("index.wal.bytes", "bytes"),
    _layer("index.checkpoint.write_s", "s"),
    _layer("index.checkpoint.count", "count"),
    _layer("index.decay.run_s", "s"),
    _layer("index.decay.leaves_evicted", "count", "higher"),
    _layer("index.decay.bytes_reclaimed", "bytes", "higher"),
    *[_layer(f"index.ingest_snapshot_p50_ms.{f}", "ms") for f in FORMATS],
    *[_layer(f"index.ingest_snapshot_p95_ms.{f}", "ms") for f in FORMATS],
    # core.recovery
    *[_layer(f"core.recovery.open_s.{f}", "s") for f in FORMATS],
    _layer("core.recovery.wal_records_replayed", "count"),
    # core.leaf_cache
    *[_layer(f"core.leaf_cache.hit_rate.{f}", "share", "higher") for f in FORMATS],
    _layer("core.leaf_cache.evictions", "count"),
    # query.leafscan
    _layer("query.leafscan.scan_self_s", "s"),
    _layer("query.leafscan.leaves_scanned_per_op", "count"),
    _layer("query.leafscan.leaves_summary_pruned_per_op", "count", "higher"),
    _layer("query.leafscan.leaves_zone_pruned_per_op", "count", "higher"),
    _layer("query.leafscan.rows_examined_per_row_returned", "ratio"),
    # query.sql
    _layer("query.sql.parse_plan_s", "s"),
    _layer("query.sql.execute_self_s", "s"),
    _layer("query.sql.row_engine_fallbacks", "count"),
    *[
        _layer(f"query.sql.{cls}_p50_ms.{f}", "ms")
        for cls in SQL_CLASSES + ("cell_pin",)
        for f in FORMATS
    ],
    # query.explore
    _layer("query.explore.fold_self_s", "s"),
    _layer("query.explore.records_per_op", "count"),
    *[_layer(f"query.explore.pooled_p50_ms.{f}", "ms") for f in FORMATS],
    *[_layer(f"query.explore.p90_ms.{f}", "ms") for f in FORMATS],
    *[
        _layer(f"query.explore.{cls}_p50_ms.{f}", "ms")
        for cls in EXPLORE_CLASSES
        for f in FORMATS
    ],
    # shard
    _layer("shard.coordinator_self_s", "s"),
    _layer("shard.transport_wait_s", "s"),
    _layer("shard.wire.codec_s", "s"),
    _layer("shard.rpc_roundtrip_p50_ms", "ms"),
    _layer("shard.retries", "count"),
    _layer("shard.failovers", "count"),
    *[_layer(f"shard.rpcs_per_op.{cls}", "count") for cls in SHARD_CLASSES],
    *[_layer(f"shard.groups_routed_away_per_op.{cls}", "count", "higher") for cls in SHARD_CLASSES],
    *[_layer(f"shard.wire.bytes_per_op.{cls}", "bytes") for cls in SHARD_CLASSES],
    *[_layer(f"shard.socket_over_inline.{cls}", "ratio") for cls in SHARD_CLASSES],
    *[_layer(f"shard.stored_bytes_per_user_byte.{f}", "ratio") for f in FORMATS],
    # server
    *[_layer(m.name, m.unit, m.better, m.about) for m in SERVE_END_TO_END],
    _layer("server.admission_wait_s", "s"),
    *[_layer(f"server.pooled_p50_ms.{p}", "ms") for p in RATES],
    _layer("server.p95_ms.lo", "ms"),
    _layer("server.rejected", "count"),
    _layer("server.shed", "count"),
    _layer("server.ingest_queue_high_water", "count"),
    _layer("server.tcp_roundtrip_overhead_ms", "ms"),
    _layer("server.closed_loop_capacity_qps", "1/s", "higher"),
    *[_layer(f"server.utilisation.{p}", "share") for p in RATES],
    *[_layer(f"server.admission_wait_p50_ms.{p}", "ms") for p in RATES],
    *[_layer(f"server.inflight_max.{p}", "count") for p in RATES],
    *[_layer(f"server.backlog_growing.{p}", "count") for p in RATES],
    *[_layer(f"server.within_limit_share.{p}", "share", "higher") for p in RATES],
    *[_layer(f"server.generator_late_p95_ms.{p}", "ms") for p in RATES],
    # trace
    _layer("trace.overhead_share", "share"),
    _layer("trace.attributed_share", "share", "higher"),
]

BY_NAME: dict[str, Metric] = {
    m.name: m for m in [*PER_LAYER, *SERVE_END_TO_END, *END_TO_END]
}

#: Metrics the ledger's own ``compare`` gates on, and where: everything
#: the driver gates, plus ``serve_*`` on ``serve_mixed``.
GATED: dict[str, tuple[str, ...]] = {
    **{m.name: tuple(WORKLOADS) for m in END_TO_END},
    **{m.name: ("serve_mixed",) for m in SERVE_END_TO_END},
}

#: The (metric, workload) pairs the issue's table lists — the ones a
#: workload was built to measure.  The other gated pairs exist because
#: the driver wants every end-to-end metric from every workload;
#: ``compare`` marks these with ``*``.
_READS = ("query_cold", "query_warm", "shard_socket")
ISSUE_PAIRS: dict[str, tuple[str, ...]] = {
    "setup_s": tuple(WORKLOADS),
    **{f"ingest_rows_per_s.{f}": ("ingest_week", "shard_socket") for f in FORMATS},
    **{f"stored_bytes_per_user_byte.{f}": ("ingest_week",) for f in FORMATS},
    **{f"sql_geomean_ms.{f}": _READS for f in FORMATS},
    **{f"explore_geomean_ms.{f}": _READS for f in FORMATS},
    **{m.name: ("serve_mixed",) for m in SERVE_END_TO_END},
}

#: What the driver's JSON line carries for a per-layer statistic the run
#: has no samples for (a class the workload does not run, a percentile
#: short of samples, a ratio over nothing).  The driver wants every
#: per-layer metric from every workload, as a number; 0.0 would read as a
#: perfect latency.  Counts, bytes and seconds of a layer that did not
#: run are genuinely 0 and stay 0.
NOT_MEASURED = -1.0
ADDITIVE_UNITS = ("count", "bytes", "s")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
