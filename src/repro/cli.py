"""Command-line interface for the SPATE reproduction.

Because the system is an in-process library (the DFS is simulated), each
command generates a seeded trace, ingests it, and runs the requested
operation — same seed, same answers.

Commands:
    info          list codecs, layouts, templates and defaults
    ingest        ingest a trace into SPATE and report storage/ingestion
    explore       run a Q(a, b, w) exploration query
    sql           run a SQL statement over the ingested tables
    explain       EXPLAIN ANALYZE a SQL statement (timings + scan stats)
    highlights    list detected rare-event highlights
    metrics       ingest + query a trace, print the warehouse metrics
    chaos         ingest under injected storage faults, heal, verify
    recover       kill a durable warehouse mid-trace, reopen, verify
    checkpoint    ingest a durable trace and report checkpoint/WAL state
    fsck          storage health check; exit code reflects the verdict
    bench-codecs  Table-I style codec microbenchmark
    tune          ingest with codec=auto, print the per-codec autotune report
    recompact     run the background densest-codec rewrite over aged leaves
    serve         run the JSON-lines TCP query server over a loaded trace
    loadtest      replay a diurnal query workload against a live server

Examples:
    python -m repro.cli ingest --scale 0.01 --days 1 --codec gzip
    python -m repro.cli explore --attr downflux --first 0 --last 47
    python -m repro.cli sql "SELECT call_type, COUNT(*) FROM CDR GROUP BY call_type"
    python -m repro.cli explain "SELECT COUNT(*) FROM CDR WHERE duration_s >= 1000"
    python -m repro.cli metrics --executor thread
    python -m repro.cli chaos --days 7 --corruption-rate 0.05 --crash-rate 0.02
    python -m repro.cli chaos --kill-at-epoch 30 --report-file chaos.txt
    python -m repro.cli recover --kill-at-epoch 20 --verify
    python -m repro.cli tune --compare --train-dicts
    python -m repro.cli recompact --codec auto --recompact-after 8
    python -m repro.cli serve --scale 0.005 --port 7717
    python -m repro.cli loadtest --scale 0.001 --duration 30s \
        --bench-file BENCH_serving.json --require-zero-failures
"""

from __future__ import annotations

import argparse
import sys

from repro.compression import available_codecs, get_codec
from repro.compression.base import StatsAccumulator
from repro.core import Spate, SpateConfig
from repro.core.config import AUTO_CODEC, AutotuneConfig
from repro.core.layout import LAYOUTS
from repro.engine.executor import EXECUTOR_BACKENDS
from repro.spatial.geometry import BoundingBox
from repro.telco import TelcoTraceGenerator, TraceConfig
from repro.ui import QUERY_TEMPLATES


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.005,
                        help="trace scale (1.0 = the paper's 5 GB week)")
    parser.add_argument("--days", type=int, default=1, help="trace length")
    parser.add_argument("--seed", type=int, default=2017, help="RNG seed")
    parser.add_argument("--codec", default="gzip-ref",
                        help=f"storage codec ({', '.join(available_codecs())})")
    parser.add_argument("--layout", default="row", choices=LAYOUTS,
                        help="physical table layout")
    parser.add_argument("--executor", default="auto", choices=EXECUTOR_BACKENDS,
                        help="ingest pipeline backend (stored bytes are "
                             "identical across backends)")
    parser.add_argument("--leaf-cache-bytes", type=int,
                        default=SpateConfig().leaf_cache_bytes,
                        help="decompressed leaf cache capacity (0 disables)")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker shards (>1 = scatter-gather warehouse "
                             "with replication-aware failover)")
    parser.add_argument("--replication-groups", type=int, default=2,
                        dest="group_replication",
                        help="replicas per region group (sharded mode)")
    parser.add_argument("--shard-transport", default="inline",
                        choices=("inline", "socket"),
                        help="shard RPC transport (socket = workers as "
                             "real processes over localhost TCP)")
    parser.add_argument("--region-layout", type=int, default=2,
                        choices=(1, 2),
                        help="region-map tiling layout (must match the "
                             "layout the warehouse was created with; "
                             "1 = legacy stripes, 2 = 2-D tiles)")


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wal-sync", default="always", choices=("always", "epoch"),
                        help="WAL sync policy (always = per record, "
                             "epoch = one segment per ingest cycle)")
    parser.add_argument("--checkpoint-interval", type=int, default=16,
                        help="epochs between automatic metadata checkpoints")


def _durable_config(args: argparse.Namespace) -> SpateConfig:
    from repro.core import DurabilityConfig

    return SpateConfig(
        codec=args.codec,
        layout=args.layout,
        executor=args.executor,
        leaf_cache_bytes=args.leaf_cache_bytes,
        durability=DurabilityConfig(
            enabled=True,
            wal_sync=args.wal_sync,
            checkpoint_interval_epochs=args.checkpoint_interval,
        ),
    )


def _sharded_config(args: argparse.Namespace) -> SpateConfig:
    from repro.core.config import ShardConfig

    return SpateConfig(
        codec=args.codec,
        layout=args.layout,
        executor=args.executor,
        leaf_cache_bytes=args.leaf_cache_bytes,
        sharding=ShardConfig(
            shards=max(1, args.shards),
            group_replication=args.group_replication,
            transport=getattr(args, "shard_transport", "inline"),
            region_layout=getattr(args, "region_layout", 2),
        ),
    )


def _build_spate(args: argparse.Namespace) -> tuple[Spate, TelcoTraceGenerator]:
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    if getattr(args, "shards", 1) > 1:
        spate = Spate.create(_sharded_config(args))
    else:
        spate = Spate(SpateConfig(
            codec=args.codec,
            layout=args.layout,
            executor=args.executor,
            leaf_cache_bytes=args.leaf_cache_bytes,
        ))
    spate.register_cells(generator.cells_table())
    for snapshot in generator.generate():
        spate.ingest(snapshot)
    spate.finalize()
    return spate, generator


def _frontier(spate) -> int:
    """Latest ingested epoch for either warehouse flavour."""
    index = getattr(spate, "index", None)
    return index.frontier_epoch if index is not None else spate.frontier_epoch


def cmd_info(args: argparse.Namespace) -> int:
    """``info``: list codecs, layouts, templates and trace defaults."""
    print("codecs:   ", ", ".join(available_codecs()))
    print("layouts:  ", ", ".join(LAYOUTS))
    print("templates:", ", ".join(sorted(QUERY_TEMPLATES)))
    config = TraceConfig()
    print(f"trace defaults: scale={config.scale} days={config.days} "
          f"seed={config.seed}")
    print("paper scale 1.0 = ~1.7M CDR + ~21M NMS records per week")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """``ingest``: build SPATE over a generated trace; print storage report."""
    spate, __ = _build_spate(args)
    if getattr(args, "shards", 1) > 1:
        print(f"ingested epochs:   {len(spate.ingested_epochs())}")
        print(f"shards:            {spate.shards} "
              f"({spate.region_groups} region groups, "
              f"replication {spate.replication})")
        print(spate.metrics.summary())
        return 0
    stats = spate.storage_stats()
    report = spate.last_ingest_report
    print(f"ingested epochs:   {len(spate.ingested_epochs())}")
    print(f"logical bytes:     {stats.logical_bytes:,}")
    print(f"physical bytes:    {stats.physical_bytes:,} "
          f"(replication {spate.config.replication})")
    if report is not None:
        print(f"last snapshot:     ratio {report.ratio:.2f}x, "
              f"{report.total_seconds * 1000:.1f} ms")
    if args.render_index:
        print(spate.render_index())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """``explore``: run Q(a, b, w) and print records/aggregates."""
    spate, __ = _build_spate(args)
    box = None
    if args.box:
        coords = [float(c) for c in args.box.split(",")]
        if len(coords) != 4:
            print("--box expects min_x,min_y,max_x,max_y", file=sys.stderr)
            return 2
        box = BoundingBox(*coords)
    result = spate.explore(
        args.table, tuple(args.attr), box, args.first, args.last
    )
    print(f"records: {len(result.records)}  "
          f"snapshots read: {result.snapshots_read}  "
          f"decayed data used: {result.used_decayed_data}")
    for attribute in args.attr:
        stats = result.aggregate(attribute)
        if stats.count:
            print(f"  {attribute}: count={stats.count} mean={stats.mean:,.1f} "
                  f"min={stats.minimum} max={stats.maximum}")
    for record in result.records[: args.limit]:
        print("  " + "|".join(record))
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    """``sql``: execute a SELECT over the ingested tables.

    Tables are registered as lazy warehouse scans, so each query's
    WHERE predicates prune leaves via day summaries and (on the
    columnar layout) only referenced columns are decoded.
    """
    spate, __ = _build_spate(args)
    db = spate.sql_database()
    db.register_table("CELL", *_cells_as_rows(spate))
    result = db.execute(args.statement)
    print("\t".join(result.columns))
    for row in result.rows[: args.limit]:
        print("\t".join(str(c) for c in row))
    if len(result.rows) > args.limit:
        print(f"... {len(result.rows) - args.limit} more rows")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: EXPLAIN ANALYZE — run the SQL statement, print its
    plan annotated with actual stage timings and read-path scan stats
    (leaves pruned, cache hits, bytes decompressed, decode speedup)."""
    spate, __ = _build_spate(args)
    db = spate.sql_database()
    db.register_table("CELL", *_cells_as_rows(spate))
    __, report = db.explain_analyze(args.statement)
    print(report)
    return 0


def _cells_as_rows(spate: Spate):
    columns = ["cell_id", "x", "y"]
    rows = [
        [cell_id, f"{p.x:.1f}", f"{p.y:.1f}"]
        for cell_id, p in spate.cell_locations.items()
    ]
    return columns, rows


def cmd_highlights(args: argparse.Namespace) -> int:
    """``highlights``: list detected rare events in a window."""
    spate, __ = _build_spate(args)
    highlights = spate.highlights(args.first, args.last)
    highlights.sort(key=lambda h: h.rate)
    print(f"{len(highlights)} highlights in epochs "
          f"[{args.first}, {args.last}]")
    for h in highlights[: args.limit]:
        print(f"  [{h.period}] {h.table}.{h.attribute} = {h.value!r} "
              f"({h.frequency}/{h.total}, {h.rate:.2%})")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: ingest a trace, run one whole-window exploration to
    exercise the read path, then print the warehouse counters."""
    spate, __ = _build_spate(args)
    last = _frontier(spate)
    if last >= 0:
        spate.explore("CDR", ("downflux", "upflux"), None, 0, last)
        if args.reread:
            spate.explore("CDR", ("downflux", "upflux"), None, 0, last)
    print(spate.metrics.summary())
    return 0


def _chaos_sharded(args: argparse.Namespace) -> int:
    """``chaos --kill-shard-at-epoch``: kill and recover worker shards
    mid-stream and mid-query, gating on the differential contract.

    Runs the same trace through an N-shard warehouse and a single-shard
    reference.  At the kill epoch one shard dies; ingest continues (the
    dead shard's mutations are buffered), queries fail over to replica
    shards, and every differential check must stay byte-identical.  One
    query is interrupted by a kill *mid-scatter* — failover must finish
    it from replicas within the deadline.  At the recovery epoch the
    shard restarts via WAL replay, catches up on buffered mutations and
    rejoins without reads ever stopping.  Exit 0 only with zero wrong
    answers, observed failovers, and a completed catch-up."""
    from repro.core.config import ShardConfig
    from repro.shard import ShardedSpate

    shards = max(2, args.shards)
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    cells = generator.cells_table()
    snapshots = list(generator.generate())
    total = len(snapshots)
    kill_at = args.kill_shard_at_epoch
    if not 0 < kill_at < total:
        print(f"--kill-shard-at-epoch must be in [1, {total - 1}]",
              file=sys.stderr)
        return 2
    recover_at = (
        args.recover_shard_at_epoch
        if args.recover_shard_at_epoch is not None
        else min(total - 1, kill_at + 8)
    )
    victim_shard = args.kill_shard

    def build(n: int) -> ShardedSpate:
        warehouse = ShardedSpate(SpateConfig(
            codec=args.codec,
            layout=args.layout,
            executor=args.executor,
            leaf_cache_bytes=args.leaf_cache_bytes,
            sharding=ShardConfig(
                shards=n,
                group_replication=args.group_replication,
                transport=getattr(args, "shard_transport", "inline"),
                region_layout=getattr(args, "region_layout", 2),
            ),
        ))
        warehouse.register_cells(cells)
        return warehouse

    reference = build(1)
    victim = build(shards)
    checks = wrong = 0
    outage_checks = 0

    def differential(last_epoch: int) -> None:
        nonlocal checks, wrong, outage_checks
        checks += 1
        if not victim.workers[victim_shard].alive:
            outage_checks += 1
        want = reference.explore("CDR", ("downflux", "upflux"), None, 0, last_epoch)
        got = victim.explore("CDR", ("downflux", "upflux"), None, 0, last_epoch)
        if (want.records != got.records
                or want.columns != got.columns
                or {k: v.to_dict() for k, v in want.aggregates.items()}
                != {k: v.to_dict() for k, v in got.aggregates.items()}):
            wrong += 1

    replayed = None
    for snapshot in snapshots:
        if snapshot.epoch == kill_at:
            victim.kill_shard(victim_shard)
            # The dead shard must fail heartbeats until it is suspected
            # and demoted to the back of every failover chain.
            limit = victim.config.sharding.heartbeat_miss_limit
            for __ in range(limit):
                victim.heartbeat()
        reference.ingest(snapshot)
        victim.ingest(snapshot)
        if snapshot.epoch == recover_at and replayed is None:
            replayed = victim.recover_shard(victim_shard)
        if snapshot.epoch % max(1, args.check_every) == 0 or snapshot.epoch in (
            kill_at, recover_at
        ):
            differential(snapshot.epoch)
    if replayed is None:
        replayed = victim.recover_shard(victim_shard)
    reference.finalize()
    victim.finalize()

    # Kill a (recovered) shard again, mid-scatter this time: arm the
    # RPC hook to crash it after a few calls of the next query.  The
    # in-flight scatter must fail over and still finish in budget.
    state = {"rpcs": 0}

    def mid_query_kill(shard_id: int, method: str) -> None:
        state["rpcs"] += 1
        if state["rpcs"] == args.kill_after_rpcs and victim.workers[victim_shard].alive:
            victim.kill_shard(victim_shard)

    victim.client.before_invoke = mid_query_kill
    last = total - 1
    got = victim.explore("CDR", ("downflux", "upflux"), None, 0, last,
                         deadline_ms=args.deadline_ms)
    victim.client.before_invoke = None
    want = reference.explore("CDR", ("downflux", "upflux"), None, 0, last)
    mid_query_ok = (
        want.records == got.records
        and not got.coverage.deadline_hit
        and not got.coverage.shards_skipped
    )
    checks += 1
    if not mid_query_ok:
        wrong += 1
    replayed_final = victim.recover_shard(victim_shard)
    differential(last)

    counters = victim.client.counters
    recovered = (
        wrong == 0
        and counters.failovers > 0
        and counters.heartbeat_misses > 0
        and mid_query_ok
    )
    lines = [
        "SPATE shard chaos run",
        f"  trace:                 scale={args.scale} days={args.days} "
        f"codec={args.codec} shards={shards} "
        f"replication={args.group_replication}",
        f"  schedule:              shard {victim_shard} killed at epoch "
        f"{kill_at}, recovered at {recover_at} "
        f"({replayed} buffered mutations replayed, then killed "
        f"mid-query and recovered again with {replayed_final})",
        f"  differential:          {checks} checks vs single-shard, "
        f"{wrong} wrong answers ({outage_checks} during the outage)",
        f"  mid-query kill:        "
        f"{'served from replicas in budget' if mid_query_ok else 'FAILED'}",
        f"  shard rpcs:            {counters.rpcs} "
        f"({counters.retries} retries, {counters.retry_budget_spent} "
        f"budget tokens)",
        f"  failovers:             {counters.failovers} "
        f"({counters.breaker_trips} breaker trips, "
        f"{counters.heartbeat_misses} heartbeat misses, "
        f"{counters.shards_skipped} shard slices skipped)",
        f"  recoveries:            {counters.recoveries}",
        f"  verdict:               {'RECOVERED' if recovered else 'DEGRADED'}",
    ]
    report = "\n".join(lines)
    print(report)
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0 if recovered else 1


def _chaos_coordinator_restart(args: argparse.Namespace) -> int:
    """``chaos --coordinator-restart``: crash the coordinator mid-query
    and reattach a fresh one to the surviving socket worker processes.

    Under the socket transport the workers are real processes and the
    coordinator is just a client object.  The drill ingests the trace,
    aborts one scatter partway through (the "crash"), abandons the
    coordinator with no shutdown of any kind, attaches a new
    coordinator to the same endpoints, resyncs its bookkeeping from the
    live workers, and gates on the differential contract — every
    answer from the revived coordinator, including through a worker
    kill and recovery, must be byte-identical to the single-shard
    reference.  Exit 0 only with zero wrong answers."""
    from repro.core.config import ShardConfig
    from repro.shard import ShardedSpate

    shards = max(2, args.shards)
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    cells = generator.cells_table()
    snapshots = list(generator.generate())
    last = snapshots[-1].epoch
    sql = (
        "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS total "
        "FROM CDR GROUP BY call_type"
    )

    def config(n: int, transport: str) -> SpateConfig:
        return SpateConfig(
            codec=args.codec,
            layout=args.layout,
            executor=args.executor,
            leaf_cache_bytes=args.leaf_cache_bytes,
            sharding=ShardConfig(
                shards=n,
                group_replication=args.group_replication,
                transport=transport,
                region_layout=getattr(args, "region_layout", 2),
            ),
        )

    reference = ShardedSpate(config(1, "inline"))
    victim = ShardedSpate(config(shards, "socket"))
    try:
        for warehouse in (reference, victim):
            warehouse.register_cells(cells)
            for snapshot in snapshots:
                warehouse.ingest(snapshot)
        endpoints = victim.worker_endpoints
        checks = wrong = 0
        want_explore = reference.explore(
            "CDR", ("downflux", "upflux"), None, 0, last
        ).records
        want_sql = reference.sql(sql).rows

        def differential(warehouse) -> None:
            nonlocal checks, wrong
            got_explore = warehouse.explore(
                "CDR", ("downflux", "upflux"), None, 0, last
            ).records
            got_sql = warehouse.sql(sql).rows
            checks += 2
            wrong += int(got_explore != want_explore)
            wrong += int(got_sql != want_sql)

        differential(victim)

        # The crash: abort a scatter a few RPCs in, then abandon the
        # coordinator object — no close(), no cleanup.  Its worker
        # processes keep serving.
        class CoordinatorCrash(RuntimeError):
            pass

        state = {"rpcs": 0}

        def crash_hook(shard_id: int, method: str) -> None:
            state["rpcs"] += 1
            if state["rpcs"] == args.kill_after_rpcs:
                raise CoordinatorCrash

        victim.client.before_invoke = crash_hook
        mid_query_crashed = False
        try:
            victim.explore("CDR", ("downflux", "upflux"), None, 0, last)
        except CoordinatorCrash:
            mid_query_crashed = True

        revived = ShardedSpate(
            config(shards, "socket"), worker_endpoints=endpoints
        )
        try:
            summary = revived.resync()
            resynced_ok = (
                summary["frontier"] == last and "CDR" in summary["tables"]
            )
            differential(revived)
            # The revived coordinator must also ride out a worker kill:
            # the failover stack is transport-independent.  Query once
            # with the dead shard still leading its chains (failover
            # proper), then again after heartbeats demote it.
            revived.kill_shard(0)
            differential(revived)
            limit = revived.config.sharding.heartbeat_miss_limit
            for __ in range(limit):
                revived.heartbeat()
            differential(revived)
            replayed = revived.recover_shard(0)
            differential(revived)
            counters = revived.client.counters
            recovered = (
                wrong == 0
                and mid_query_crashed
                and resynced_ok
                and counters.failovers > 0
            )
            lines = [
                "SPATE coordinator-restart chaos run",
                f"  trace:                 scale={args.scale} days={args.days} "
                f"shards={shards} replication={args.group_replication} "
                f"transport=socket",
                f"  crash:                 coordinator aborted mid-scatter "
                f"after {args.kill_after_rpcs} RPCs "
                f"({'yes' if mid_query_crashed else 'NO CRASH'}), "
                f"abandoned without shutdown",
                f"  reattach:              resynced "
                f"{summary['epochs']} epochs to frontier "
                f"{summary['frontier']}, tables "
                f"{','.join(summary['tables'])}",
                f"  differential:          {checks} checks vs single-shard, "
                f"{wrong} wrong answers (including through a worker kill "
                f"and recovery, {replayed} replayed)",
                f"  failovers:             {counters.failovers} "
                f"({counters.heartbeat_misses} heartbeat misses)",
                f"  verdict:               "
                f"{'RECOVERED' if recovered else 'DEGRADED'}",
            ]
            report = "\n".join(lines)
            print(report)
            if args.report_file:
                with open(args.report_file, "w", encoding="utf-8") as handle:
                    handle.write(report + "\n")
            return 0 if recovered else 1
        finally:
            revived.close()
    finally:
        # The spawner owns the worker processes; terminating them here
        # is the drill's only clean shutdown.
        victim.close()
        reference.close()


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: ingest a trace while a seeded fault injector crashes
    datanodes, corrupts replicas and fails writes; then heal and verify
    the warehouse recovered.  With ``--kill-at-epoch N`` the warehouse
    runs with metadata durability on, is killed (its process memory
    discarded) just before epoch N, reopened with :meth:`Spate.open`,
    and must resume the stream from the recovered frontier.  With
    ``--kill-shard-at-epoch N`` the drill instead targets the sharded
    warehouse (see :func:`_chaos_sharded`).  Exit code 0 only when the
    namespace holds no phantom files, every file reads back
    checksum-clean, and heal restored the requested replication
    factor."""
    from repro.core import DurabilityConfig, FaultToleranceConfig
    from repro.errors import RecoveryError, SpateError, StorageError

    if getattr(args, "coordinator_restart", False):
        return _chaos_coordinator_restart(args)
    if args.kill_shard_at_epoch is not None:
        return _chaos_sharded(args)
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    kill_at = args.kill_at_epoch
    config = SpateConfig(
        codec=args.codec,
        layout=args.layout,
        executor=args.executor,
        leaf_cache_bytes=args.leaf_cache_bytes,
        durability=DurabilityConfig(
            enabled=kill_at is not None,
            wal_sync=args.wal_sync,
            checkpoint_interval_epochs=args.checkpoint_interval,
        ),
        faults=FaultToleranceConfig(
            enabled=True,
            seed=args.fault_seed,
            crash_rate=args.crash_rate,
            restart_rate=args.restart_rate,
            corruption_rate=args.corruption_rate,
            write_failure_rate=args.write_failure_rate,
            max_write_retries=args.max_write_retries,
            heal_interval_epochs=args.heal_interval,
        ),
    )
    spate = Spate(config)
    dfs = spate.dfs
    injector = spate.fault_injector
    spate.register_cells(generator.cells_table())
    snapshots = list(generator.generate())
    attempted = ingested = failed = 0

    def ingest_phase(warehouse, stream):
        nonlocal attempted, ingested, failed
        for snapshot in stream:
            attempted += 1
            try:
                warehouse.ingest(snapshot)
                ingested += 1
            except StorageError:
                # The atomic write path rolled the snapshot back; the
                # stream moves on, exactly like a dropped ingest cycle.
                failed += 1

    # Per-phase fault accounting: delta of the injector's counters
    # across each phase boundary, so a long run can attribute faults to
    # the stage that absorbed them.
    phase_faults: list[tuple[str, dict[str, int]]] = []
    baseline = injector.snapshot()
    recovery_lines: list[str] = []
    recovered_ok = True
    if kill_at is None:
        ingest_phase(spate, snapshots)
    else:
        ingest_phase(spate, (s for s in snapshots if s.epoch < kill_at))
        phase_faults.append(("ingest (pre-kill)", injector.delta_since(baseline)))
        baseline = injector.snapshot()
        # The kill: every in-memory structure is discarded; only what
        # the DFS holds (data + WAL + checkpoints) survives.
        del spate
        try:
            spate = Spate.open(config, dfs=dfs)
        except (RecoveryError, StorageError) as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 1
        rec = spate.last_recovery_report
        resume_from = spate.index.frontier_epoch + 1
        recovered_ok = rec is not None and rec.fsck_healthy
        recovery_lines = [
            f"  killed at epoch:       {kill_at} (frontier recovered to "
            f"{spate.index.frontier_epoch}, resuming at {resume_from})",
            f"  recovery:              checkpoint v{rec.checkpoint_version}, "
            f"{rec.wal_records_replayed} WAL records replayed, "
            f"{rec.orphan_files_removed} orphans removed, "
            f"{rec.leaves_quarantined} leaves quarantined",
        ]
        phase_faults.append(("recovery", injector.delta_since(baseline)))
        baseline = injector.snapshot()
        ingest_phase(spate, (s for s in snapshots if s.epoch >= resume_from))
    spate.finalize()
    phase_faults.append(
        ("ingest" if kill_at is None else "ingest (resumed)",
         injector.delta_since(baseline))
    )

    # Recovery: bring crashed nodes back, then one final heal pass.
    for node_id, node in spate.dfs.datanodes.items():
        if not node.alive:
            spate.dfs.restart_datanode(node_id)
    heal = spate.heal()
    fsck = spate.dfs.fsck()

    # Phantom check: the namespace must hold exactly the files the
    # index points at — nothing extra, nothing missing.
    expected = {
        path
        for leaf in spate.index.leaves()
        if not leaf.decayed
        for path in leaf.table_paths.values()
    }
    actual = set(spate.dfs.list_dir("/spate/snapshots"))
    phantoms = sorted(actual - expected)
    missing = sorted(expected - actual)
    unreadable = []
    for path in sorted(expected & actual):
        try:
            spate.dfs.read_file(path)
        except SpateError:
            unreadable.append(path)

    recovered = (
        recovered_ok
        and not phantoms
        and not missing
        and not unreadable
        and heal.under_replicated_after == 0
        and fsck.healthy
    )
    lines = [
        "SPATE chaos run",
        f"  trace:                 scale={args.scale} days={args.days} "
        f"codec={args.codec} fault-seed={args.fault_seed}",
        f"  snapshots:             {ingested}/{attempted} ingested "
        f"({failed} failed writes rolled back cleanly)",
        f"  faults injected:       {injector.crashes_injected} crashes, "
        f"{injector.restarts_injected} restarts, "
        f"{injector.corruptions_injected} corruptions, "
        f"{injector.write_failures_injected} transient write failures",
    ]
    for phase_name, delta in phase_faults:
        lines.append(
            f"    during {phase_name + ':':<16} "
            + ", ".join(f"{count} {name}" for name, count in delta.items())
        )
    lines += recovery_lines
    lines += [
        f"  repairs:               {spate.dfs.fault_stats.write_retries} write retries, "
        f"{spate.dfs.fault_stats.writes_rolled_back} writes rolled back, "
        f"{spate.dfs.fault_stats.read_failovers} read failovers, "
        f"{spate.dfs.fault_stats.corrupt_replicas_dropped} corrupt replicas dropped",
        f"  re-replication:        {spate.dfs.fault_stats.re_replicated_copies} "
        f"replicas re-created, "
        f"{spate.dfs.fault_stats.excess_replicas_trimmed} excess trimmed, "
        f"{spate.dfs.fault_stats.heal_passes} heal passes",
        f"  namespace:             {len(actual)} files "
        f"({len(phantoms)} phantom, {len(missing)} missing, "
        f"{len(unreadable)} unreadable)",
        f"  cluster health:        {fsck.blocks} blocks, "
        f"{fsck.live_valid_replicas} valid replicas, "
        f"{fsck.corrupt_replicas} corrupt, "
        f"{fsck.under_replicated_blocks} under-replicated, "
        f"{fsck.lost_blocks} lost",
        f"  verdict:               {'RECOVERED' if recovered else 'DEGRADED'}",
    ]
    report = "\n".join(lines)
    if spate.last_recovery_report is not None:
        report += "\n\n" + spate.last_recovery_report.summary()
    print(report)
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0 if recovered else 1


def cmd_recover(args: argparse.Namespace) -> int:
    """``recover``: kill-and-recover drill for the metadata layer.

    Ingests a trace with durability on, discards the process state just
    before ``--kill-at-epoch``, reopens the warehouse from its WAL +
    checkpoints with :meth:`Spate.open`, and resumes the stream.  With
    ``--verify`` an uninterrupted run of the same trace is built on a
    second cluster and the recovered warehouse must match it exactly
    (index dump and exploration answers).  Exit 0 on success.
    """
    from repro.core.checkpoint import encode_index
    from repro.dfs.filesystem import SimulatedDFS
    from repro.errors import RecoveryError, StorageError

    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    cells = generator.cells_table()
    snapshots = list(generator.generate())
    total = len(snapshots)
    kill_at = args.kill_at_epoch if args.kill_at_epoch is not None else total // 2
    if not 0 < kill_at <= total:
        print(f"--kill-at-epoch must be in [1, {total}]", file=sys.stderr)
        return 2
    config = _durable_config(args)

    spate = Spate(config)
    dfs = spate.dfs
    spate.register_cells(cells)
    for snapshot in snapshots[:kill_at]:
        spate.ingest(snapshot)
    del spate  # the crash: in-memory metadata is gone

    try:
        spate = Spate.open(config, dfs=dfs)
    except (RecoveryError, StorageError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    report = spate.last_recovery_report
    print(report.summary())
    resume_from = spate.index.frontier_epoch + 1
    for snapshot in snapshots:
        if snapshot.epoch >= resume_from:
            spate.ingest(snapshot)
    spate.finalize()
    print(f"resumed at epoch {resume_from}, finished at frontier "
          f"{spate.index.frontier_epoch}")
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(report.summary() + "\n")

    ok = report.fsck_healthy and resume_from == kill_at
    if args.verify:
        truth = Spate(config, dfs=SimulatedDFS(
            block_size=config.block_size,
            default_replication=config.replication,
        ))
        truth.register_cells(cells)
        for snapshot in snapshots:
            truth.ingest(snapshot)
        truth.finalize()
        index_match = encode_index(truth.index) == encode_index(spate.index)
        last = truth.index.frontier_epoch
        left = truth.explore("CDR", ("downflux", "upflux"), None, 0, last)
        right = spate.explore("CDR", ("downflux", "upflux"), None, 0, last)
        answers_match = (
            left.records == right.records
            and [h.to_dict() for h in left.highlights]
            == [h.to_dict() for h in right.highlights]
        )
        print(f"verify: index {'identical' if index_match else 'MISMATCH'}, "
              f"answers {'identical' if answers_match else 'MISMATCH'} "
              f"vs uninterrupted run")
        ok = ok and index_match and answers_match
    return 0 if ok else 1


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """``checkpoint``: ingest a durable trace, force a final checkpoint
    and print the committed metadata state (version, WAL watermark,
    segment truncation)."""
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    spate = Spate(_durable_config(args))
    spate.register_cells(generator.cells_table())
    for snapshot in generator.generate():
        spate.ingest(snapshot)
    info = spate.checkpoint()
    print(f"checkpoint version:   {info.version}")
    print(f"checkpoint path:      {info.path}")
    print(f"WAL watermark:        seq {info.wal_seq}")
    print(f"payload bytes:        {info.payload_bytes:,} (compressed)")
    print(f"WAL segments on DFS:  {len(spate.wal.segment_paths())}")
    print(f"WAL records appended: {spate.wal.records_appended}")
    loaded = spate.checkpoints.load_latest()
    print(f"reads back clean:     {loaded is not None and loaded[1].version == info.version}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """``fsck``: ingest a trace, then audit every block of every file.
    ``--corrupt-replicas N`` damages N replicas first (to demonstrate a
    degraded verdict).  Exit code 0 only when the cluster is healthy:
    no corrupt, under-replicated or lost blocks."""
    spate, __ = _build_spate(args)
    if args.corrupt_replicas:
        damaged = 0
        for path in spate.dfs.list_dir("/spate/snapshots"):
            if damaged >= args.corrupt_replicas:
                break
            block_id = spate.dfs.namenode.lookup(path).blocks[0]
            for node_id in sorted(spate.dfs.namenode.locations(block_id)):
                if spate.dfs.datanodes[node_id].corrupt_block(block_id):
                    damaged += 1
                    break
    fsck = spate.dfs.fsck()
    print(f"files:            {len(spate.dfs.list_dir('/'))}")
    print(f"blocks:           {fsck.blocks}")
    print(f"valid replicas:   {fsck.live_valid_replicas}")
    print(f"corrupt replicas: {fsck.corrupt_replicas}")
    print(f"under-replicated: {fsck.under_replicated_blocks}")
    print(f"lost blocks:      {fsck.lost_blocks}")
    print(f"verdict:          {'HEALTHY' if fsck.healthy else 'DEGRADED'}")
    return 0 if fsck.healthy else 1


def cmd_bench_codecs(args: argparse.Namespace) -> int:
    """``bench-codecs``: Table-I style microbenchmark over snapshots."""
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=1, seed=args.seed)
    )
    payloads = [
        generator.snapshot(epoch).serialize()
        for epoch in range(12, 12 + args.snapshots)
    ]
    print(f"{'codec':>10} {'ratio':>8} {'Tc1(s)':>9} {'Tc2(s)':>9}")
    for name in args.codecs or ("gzip", "7z", "snappy", "zstd", "gzip-ref"):
        codec = get_codec(name)
        acc = StatsAccumulator()
        for payload in payloads:
            acc.add(codec.measure(payload))
        print(f"{name:>10} {acc.mean_ratio:>8.2f} "
              f"{acc.mean_compress_seconds:>9.4f} "
              f"{acc.mean_decompress_seconds:>9.4f}")
    return 0


def _leaf_bytes(spate: Spate) -> int:
    """Compressed bytes held by live snapshot leaves (the part the
    codec choice controls; summaries/WAL are codec-independent)."""
    return sum(
        leaf.compressed_bytes
        for leaf in spate.index.leaves()
        if not leaf.decayed
    )


def cmd_tune(args: argparse.Namespace) -> int:
    """``tune``: ingest a trace with ``codec="auto"`` and print the
    autotune report — per-candidate mean ratio, compress/decompress
    latency and win counts.  With ``--compare`` the same trace is also
    ingested once per static candidate, so the report shows auto's
    stored bytes against the best fixed choice."""
    candidates = tuple(args.candidates or AutotuneConfig().candidates)
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    cells = generator.cells_table()
    snapshots = list(generator.generate())

    def build(codec: str, autotune: AutotuneConfig) -> Spate:
        warehouse = Spate(SpateConfig(
            codec=codec,
            layout=args.layout,
            executor=args.executor,
            leaf_cache_bytes=args.leaf_cache_bytes,
            autotune=autotune,
        ))
        warehouse.register_cells(cells)
        for snapshot in snapshots:
            warehouse.ingest(snapshot)
        warehouse.finalize()
        return warehouse

    autotune = AutotuneConfig(
        candidates=candidates,
        sample_bytes=args.sample_bytes,
        latency_weight=args.latency_weight,
        train_dictionaries=args.train_dicts,
    )
    spate = build(AUTO_CODEC, autotune)
    auto_bytes = _leaf_bytes(spate)
    lines = [
        spate.codec_selector.report.describe(),
        f"{'auto':<12} leaf bytes: {auto_bytes:,}",
    ]
    if args.compare:
        totals = {
            name: _leaf_bytes(build(name, autotune)) for name in candidates
        }
        best = min(totals, key=lambda name: totals[name])
        for name in sorted(totals, key=lambda name: totals[name]):
            marker = "  <- best static" if name == best else ""
            lines.append(f"{name:<12} leaf bytes: {totals[name]:,}{marker}")
        lines.append(
            f"auto / best static: {auto_bytes / max(totals[best], 1):.4f}x"
        )
    report = "\n".join(lines)
    print(report)
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


def cmd_recompact(args: argparse.Namespace) -> int:
    """``recompact``: ingest a trace, run the background densest-codec
    rewrite over leaves older than ``--recompact-after`` epochs, print
    the pass report, and verify the whole-window exploration answer is
    byte-identical before and after.  Exit 0 only when it is."""
    generator = TelcoTraceGenerator(
        TraceConfig(scale=args.scale, days=args.days, seed=args.seed)
    )
    spate = Spate(SpateConfig(
        codec=args.codec,
        layout=args.layout,
        executor=args.executor,
        leaf_cache_bytes=args.leaf_cache_bytes,
        autotune=AutotuneConfig(
            candidates=tuple(args.candidates or AutotuneConfig().candidates),
            recompact_after_epochs=args.recompact_after,
        ),
    ))
    spate.register_cells(generator.cells_table())
    for snapshot in generator.generate():
        spate.ingest(snapshot)
    spate.finalize()
    last = spate.index.frontier_epoch
    before = spate.explore("CDR", ("downflux", "upflux"), None, 0, last)
    report = spate.recompact(max_leaves=args.max_leaves)
    after = spate.explore("CDR", ("downflux", "upflux"), None, 0, last)
    identical = before.records == after.records
    lines = [
        report.describe(),
        f"answers identical after recompaction: {identical}",
    ]
    text = "\n".join(lines)
    print(text)
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if identical else 1


def _server_config(args: argparse.Namespace):
    from repro.server import ServerConfig

    return ServerConfig(
        max_concurrent_queries=args.max_concurrent,
        max_queued_queries=args.max_queued,
        ingest_queue_depth=args.ingest_queue_depth,
    )


def _add_server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-concurrent", type=int, default=8,
                        help="reader pool width / global admission cap")
    parser.add_argument("--max-queued", type=int, default=64,
                        help="global waiting room; beyond it requests are shed")
    parser.add_argument("--ingest-queue-depth", type=int, default=4,
                        help="bounded ingest queue (backpressure threshold)")


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: ingest a trace, then run the JSON-lines TCP query
    server over it until interrupted.  One JSON request per line
    (ops: explore, sql, explore_stream, metrics, ping); see
    :mod:`repro.server.tcp` for the protocol."""
    import asyncio

    from repro.server.service import SpateService
    from repro.server.tcp import start_tcp_server

    spate, __ = _build_spate(args)
    print(f"warehouse ready: {len(spate.ingested_epochs())} epochs ingested")

    async def run() -> None:
        async with SpateService(spate, _server_config(args)) as service:
            server = await start_tcp_server(service, args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on {host}:{port} (Ctrl-C to stop)")
            async with server:
                await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """``loadtest``: replay a diurnal query workload against a live
    in-process server (ingest streams concurrently with the queries)
    and report latency percentiles.  Exit code reflects the gates:
    ``--require-zero-failures`` and ``--max-p99-ms`` turn SLO misses
    into a nonzero exit for CI."""
    from repro.server import WorkloadConfig, simulate
    from repro.server.simulate import parse_duration

    duration_s = None
    if args.duration is not None:
        duration_s = parse_duration(args.duration)
    config = WorkloadConfig(
        scale=args.scale,
        seed=args.seed,
        epochs=args.epochs,
        queries_per_epoch=args.queries_per_epoch,
        deadline_ms=args.deadline_ms,
        duration_s=duration_s,
        client_threads=args.client_threads,
        server=_server_config(args),
        codec=args.codec,
    )
    report = simulate(config, bench_file=args.bench_file)
    print(report.describe())
    if args.bench_file:
        print(f"results written to {args.bench_file}")
    exit_code = 0
    if args.require_zero_failures and report.failed:
        print(f"GATE FAILED: {report.failed} failed requests (wanted 0)",
              file=sys.stderr)
        exit_code = 1
    if args.max_p99_ms is not None:
        p99 = report.latency_percentiles()["p99"]
        if p99 > args.max_p99_ms:
            print(f"GATE FAILED: p99 {p99:.1f} ms exceeds the "
                  f"{args.max_p99_ms:.1f} ms bound", file=sys.stderr)
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-spate",
        description="SPATE telco big-data exploration (ICDE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list codecs/layouts/templates")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ingest", help="ingest a trace, report storage")
    _add_trace_args(p)
    p.add_argument("--render-index", action="store_true",
                   help="print the temporal index tree")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("explore", help="run Q(a, b, w)")
    _add_trace_args(p)
    p.add_argument("--table", default="CDR")
    p.add_argument("--attr", action="append", default=None,
                   help="attribute to select (repeatable)")
    p.add_argument("--box", default=None,
                   help="spatial filter: min_x,min_y,max_x,max_y (metres)")
    p.add_argument("--first", type=int, default=0, help="first epoch")
    p.add_argument("--last", type=int, default=47, help="last epoch")
    p.add_argument("--limit", type=int, default=10, help="records to print")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("sql", help="run a SQL statement")
    _add_trace_args(p)
    p.add_argument("statement", help="the SELECT statement")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_sql)

    p = sub.add_parser("explain",
                       help="EXPLAIN ANALYZE a SQL statement (plan + "
                            "actual timings + scan stats)")
    _add_trace_args(p)
    p.add_argument("statement", help="the SELECT statement")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("highlights", help="list detected highlights")
    _add_trace_args(p)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--last", type=int, default=47)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_highlights)

    p = sub.add_parser("metrics", help="print warehouse metrics")
    _add_trace_args(p)
    p.add_argument("--reread", action="store_true",
                   help="run the exploration twice to show cache hits")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("chaos", help="fault-injection drill + recovery report")
    _add_trace_args(p)
    p.add_argument("--fault-seed", type=int, default=7,
                   help="fault injector RNG seed (reproducible chaos)")
    p.add_argument("--crash-rate", type=float, default=0.02,
                   help="per-write datanode crash probability")
    p.add_argument("--restart-rate", type=float, default=0.2,
                   help="per-write, per-dead-node restart probability")
    p.add_argument("--corruption-rate", type=float, default=0.05,
                   help="per-write silent replica corruption probability")
    p.add_argument("--write-failure-rate", type=float, default=0.05,
                   help="per-replica-store transient failure probability")
    p.add_argument("--max-write-retries", type=int, default=3,
                   help="transient-failure retries before rollback")
    p.add_argument("--heal-interval", type=int, default=8,
                   help="ingests between automatic heal passes")
    p.add_argument("--report-file", default=None,
                   help="also write the recovery report to this file")
    p.add_argument("--kill-at-epoch", type=int, default=None,
                   help="run with durability on, kill the warehouse just "
                        "before this epoch and recover via Spate.open")
    p.add_argument("--kill-shard-at-epoch", type=int, default=None,
                   help="sharded drill: kill a worker shard just before "
                        "this epoch (differential vs single-shard)")
    p.add_argument("--kill-shard", type=int, default=0,
                   help="shard id the sharded drill kills")
    p.add_argument("--recover-shard-at-epoch", type=int, default=None,
                   help="epoch the killed shard rejoins (default: "
                        "kill epoch + 8)")
    p.add_argument("--check-every", type=int, default=4,
                   help="epochs between differential checks (sharded drill)")
    p.add_argument("--kill-after-rpcs", type=int, default=3,
                   help="mid-query kill: RPCs into the final scatter "
                        "before the shard dies")
    p.add_argument("--deadline-ms", type=int, default=30_000,
                   help="budget for the mid-query-kill check")
    p.add_argument("--coordinator-restart", action="store_true",
                   help="socket-transport drill: crash the coordinator "
                        "mid-query, reattach a fresh one to the surviving "
                        "worker processes, differential vs single-shard")
    _add_durability_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("recover", help="kill-and-recover drill (WAL + checkpoint)")
    _add_trace_args(p)
    _add_durability_args(p)
    p.add_argument("--kill-at-epoch", type=int, default=None,
                   help="epoch to kill at (default: mid-trace)")
    p.add_argument("--verify", action="store_true",
                   help="compare the recovered warehouse against an "
                        "uninterrupted run of the same trace")
    p.add_argument("--report-file", default=None,
                   help="also write the recovery report to this file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("checkpoint", help="report committed metadata state")
    _add_trace_args(p)
    _add_durability_args(p)
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser("fsck", help="storage audit; exit 0 iff healthy")
    _add_trace_args(p)
    p.add_argument("--corrupt-replicas", type=int, default=0,
                   help="damage this many replicas before the audit "
                        "(demonstrates the degraded verdict)")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("bench-codecs", help="Table-I microbenchmark")
    p.add_argument("--scale", type=float, default=0.004)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--snapshots", type=int, default=4)
    p.add_argument("--codecs", nargs="*", default=None)
    p.set_defaults(func=cmd_bench_codecs)

    defaults = AutotuneConfig()
    p = sub.add_parser("tune", help="per-codec autotune report (codec=auto)")
    p.add_argument("--scale", type=float, default=0.005)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--layout", default="row", choices=LAYOUTS)
    p.add_argument("--executor", default="auto", choices=EXECUTOR_BACKENDS)
    p.add_argument("--leaf-cache-bytes", type=int,
                   default=SpateConfig().leaf_cache_bytes)
    p.add_argument("--candidates", nargs="*", default=None,
                   help=f"codecs the selector scores "
                        f"(default: {' '.join(defaults.candidates)})")
    p.add_argument("--sample-bytes", type=int, default=defaults.sample_bytes,
                   help="per-payload scoring sample cap")
    p.add_argument("--latency-weight", type=float,
                   default=defaults.latency_weight,
                   help="bicriteria latency weight (0 = densest wins)")
    p.add_argument("--train-dicts", action="store_true",
                   help="train shared zstd dictionaries per table")
    p.add_argument("--compare", action="store_true",
                   help="also ingest once per static candidate and "
                        "compare stored leaf bytes against auto")
    p.add_argument("--report-file", default=None,
                   help="also write the report to this file")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("recompact",
                       help="densest-codec rewrite of aged leaves")
    _add_trace_args(p)
    p.add_argument("--candidates", nargs="*", default=None,
                   help="codecs the rewrite may choose from")
    p.add_argument("--recompact-after", type=int, default=8,
                   help="age threshold in epochs behind the frontier")
    p.add_argument("--max-leaves", type=int, default=None,
                   help="cap on leaves considered this pass")
    p.add_argument("--report-file", default=None,
                   help="also write the pass report to this file")
    p.set_defaults(func=cmd_recompact)

    p = sub.add_parser("serve", help="JSON-lines TCP query server")
    _add_trace_args(p)
    _add_server_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7717,
                   help="TCP port (0 = pick a free one)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadtest",
                       help="diurnal workload replay against a live server")
    p.add_argument("--scale", type=float, default=0.002,
                   help="trace scale (1.0 = the paper's 5 GB week)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--codec", default="gzip-ref")
    p.add_argument("--epochs", type=int, default=48,
                   help="epochs to stream (48 = one day)")
    p.add_argument("--queries-per-epoch", type=float, default=4.0,
                   help="mean query rate before the diurnal multiplier")
    p.add_argument("--deadline-ms", type=int, default=15_000,
                   help="per-request deadline (partial answers past it)")
    p.add_argument("--duration", default=None,
                   help="wall-clock cap, e.g. 30s / 2m (default: no cap)")
    p.add_argument("--client-threads", type=int, default=8,
                   help="concurrent client threads")
    _add_server_args(p)
    p.add_argument("--bench-file", default=None,
                   help="write BENCH_serving.json-style results here")
    p.add_argument("--max-p99-ms", type=float, default=None,
                   help="fail (exit 1) when p99 latency exceeds this")
    p.add_argument("--require-zero-failures", action="store_true",
                   help="fail (exit 1) on any failed request")
    p.set_defaults(func=cmd_loadtest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "attr", "sentinel") is None:
        args.attr = ["downflux", "upflux"]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
