"""``ingest_week``: the write path the paper streams.

A week of 30-minute snapshots goes into a fresh *durable* store per
format — WAL flushed per epoch, a checkpoint every 16 epochs, decay
keeping 96 epochs so eviction runs for five of the seven days and
background work reaches steady state — then ``finalize()`` and a
``Spate.open`` recovery over the same DFS.  Serialize, compress, DFS
write, summarize, WAL, checkpoint and decay do all the work; no
read-path layer runs during the ingest.

What remains of the ``--seconds`` budget goes to rounds of queries
against the decayed warehouse (SQL over the live tail, explores over a
window whose first day has decayed to its summary), so the read cost of
a durable, decaying store is on the ledger beside its write cost.
"""

from __future__ import annotations

import time

from repro.core import Spate
from repro.core.config import DecayPolicyConfig, DurabilityConfig
from repro.dfs.filesystem import SimulatedDFS

from ledger import stats
from ledger.harness import (
    FORMATS,
    SQL_CLASSES,
    IngestTally,
    explore_op,
    generate,
    metric_counters,
    sql_op,
    store_config,
    top_decile_duration,
)
from ledger.workloads.base import Pass, ReadCounters, Workload, park_heap

_perf = time.perf_counter

PROBE_SQL = "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS total FROM CDR GROUP BY call_type"


class IngestWeek(Workload):
    name = "ingest_week"
    why = (
        "a week of snapshots into a durable, decaying store: serialize, compress, DFS write, "
        "summarize, WAL, checkpoint, decay do the work; the budget left goes to reads of the decayed store"
    )

    # Scale 0.005 (half the issue's probe size, ~123k records, ~9.5 MB of
    # row text) keeps the fixed part near 9 s on the reference box; the
    # week's shape — 336 snapshots, 21 checkpoints, 240 evictions — is
    # scale-independent.
    scale = 0.005
    days = 7
    keep_epochs = 96
    checkpoint_every = 16
    sql_window = 24
    join_window = 12
    explore_window = 144

    def setup(self) -> None:
        if self.smoke:
            self.days, self.keep_epochs = 1, 16
            self.sql_window, self.join_window, self.explore_window = 8, 4, 32
        self.data = generate(self.scale, range(self.days * 48), self.seed)
        self.generate_s = self.data.generate_s
        self.threshold = top_decile_duration(self.data.snapshots[-self.sql_window:])
        self.stores: dict[str, Spate] = {}

    def config(self):
        return {
            "scale": self.scale,
            "snapshots": len(self.data.snapshots),
            "records": self.data.records,
            "user_bytes": self.data.user_bytes,
            "keep_epochs": self.keep_epochs,
            "checkpoint_interval_epochs": self.checkpoint_every,
            "wal_sync": "epoch",
        }

    def _store_config(self, fmt: str):
        return store_config(
            fmt,
            durability=DurabilityConfig(
                enabled=True,
                wal_sync="epoch",
                checkpoint_interval_epochs=self.checkpoint_every,
            ),
            decay=DecayPolicyConfig(enabled=True, keep_epochs=self.keep_epochs),
            query_cache_entries=0,
        )

    def measure(self, run: Pass) -> None:
        deadline = _perf() + run.seconds
        with run.tracing():
            self._ingest_and_restart(run)
            self._query_rounds(run, deadline)

    def _ingest_and_restart(self, run: Pass) -> None:
        recorder, data = run.recorder, self.data
        replayed = 0
        for fmt in FORMATS:
            config = self._store_config(fmt)
            dfs = SimulatedDFS(
                block_size=config.block_size, default_replication=config.replication
            )
            store = Spate(config, dfs=dfs)
            store.register_cells(data.cells)
            tally = run.tallies[fmt] = IngestTally()
            recorder.ingest(fmt, store, data, tally)
            store.finalize()
            self.stores[fmt] = store

            # Restart: every acknowledged write must be readable.
            recorder.attempted += 1
            start = _perf()
            reopened = Spate.open(config, dfs=dfs)
            run.layer[f"core.recovery.open_s.{fmt}"] = _perf() - start
            replayed += reopened.last_recovery_report.wal_records_replayed
            if reopened.ingested_epochs() != store.ingested_epochs():
                recorder.fail(f"{fmt}: reopened store lists different epochs")
            for source, target in (("before", store), ("after", reopened)):
                recorder.file_answer(("probe", fmt), source, target.sql(PROBE_SQL))

            snapshot_ms = tally.per_snapshot_ms
            for q in (50, 95):
                run.counts[f"index.ingest_snapshot_p{q}_ms.{fmt}"] = len(snapshot_ms)
            run.layer[f"index.ingest_snapshot_p50_ms.{fmt}"] = stats.percentile(snapshot_ms, 50)
            if stats.tail_percentile(len(snapshot_ms)) == 95:
                run.layer[f"index.ingest_snapshot_p95_ms.{fmt}"] = stats.percentile(snapshot_ms, 95)
        counters = [metric_counters(self.stores[fmt]) for fmt in FORMATS]
        run.layer.update({
            "core.recovery.wal_records_replayed": replayed,
            "index.wal.bytes": sum(c["wal_bytes_written"] for c in counters),
            "index.checkpoint.count": sum(c["checkpoints_written"] for c in counters),
            "index.decay.leaves_evicted": sum(c["leaves_evicted"] for c in counters),
            "index.decay.bytes_reclaimed": sum(c["bytes_reclaimed"] for c in counters),
        })

    def _query_rounds(self, run: Pass, deadline: float) -> None:
        """Rounds of reads on the decayed stores until ``deadline``."""
        recorder, data = run.recorder, self.data
        last = data.last_epoch
        first = max(0, last - self.sql_window + 1)
        # Full-area explores only: at this scale the map has 8 sites, so
        # a box holds one of them or nearly all.
        explore_first = max(0, last - self.explore_window + 1)
        ops = [
            sql_op(cls, max(0, last - self.join_window + 1) if cls == "t4_join" else first,
                   last, threshold=self.threshold)
            for cls in SQL_CLASSES
        ] + [explore_op(cls, explore_first, last) for cls in ("cdr_full", "nms_full")]
        recorder.warm_up(ops, self.stores, data.cells)
        park_heap()  # the week's stores and what the warm-up cached
        reads = ReadCounters(run, self.stores)
        budget = run.budget(share=max(0.0, deadline - _perf()) / run.seconds)
        while budget.another_round():
            recorder.run_round(budget.rounds, ops, self.stores, data.cells)
            if budget.rounds == 1:
                reads.end_round_one()
        run.rounds = budget.rounds
        reads.finish()
