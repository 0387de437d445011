"""``query_cold`` and ``query_warm``: the single-node read path.

Both build one store per format at set-up and then repeat rounds of the
six SQL classes plus seeded explore ops against fixed windows.  They
differ in exactly the property the read path's behaviour depends on —
working set against cache:

- ``query_cold``: few big leaves, leaf cache and result cache off, so
  every op pays DFS read, decompress, deserialize / channel decode and
  the SQL kernels in proportion to rows;
- ``query_warm``: many small leaves that fit the default 16 MiB leaf
  cache, pre-warmed, so ``.row`` bypasses the decode layers entirely
  and ``.typed`` (whose projected decodes never enter the cache) pays
  a ``read_header`` per leaf per op.
"""

from __future__ import annotations

from dataclasses import dataclass

from ledger.harness import (
    FORMATS,
    SQL_CLASSES,
    IngestTally,
    Recorder,
    build_store,
    explore_round,
    generate,
    site_traffic,
    sql_op,
    top_decile_duration,
)
from ledger.workloads.base import Pass, ReadCounters, Workload


@dataclass(frozen=True)
class QueryShape:
    scale: float
    epochs: range
    #: Epochs in the SQL / explore window (the window ends at the last
    #: ingested epoch) and in ``t4_join``'s.
    window: int
    join_window: int
    leaf_cache_bytes: int
    explores_per_round: int


class QueryWorkload(Workload):
    shape: QueryShape

    def setup(self) -> None:
        shape = self.shape
        epochs = shape.epochs
        explores = shape.explores_per_round
        if self.smoke:
            epochs = range(epochs.start, epochs.start + max(4, len(epochs) // 10))
            explores = 4
        self.data = generate(shape.scale, epochs, self.seed)
        self.generate_s = self.data.generate_s
        self.tallies = {fmt: IngestTally() for fmt in FORMATS}
        self.stores = {
            fmt: build_store(
                fmt,
                self.data,
                self.tallies[fmt],
                leaf_cache_bytes=shape.leaf_cache_bytes,
                query_cache_entries=0,
            )
            for fmt in FORMATS
        }
        last = self.data.last_epoch
        first = max(self.data.first_epoch, last - shape.window + 1)
        join_first = max(self.data.first_epoch, last - shape.join_window + 1)
        threshold = top_decile_duration(self.data.snapshots)
        self.window = (first, last)
        self.sites = site_traffic(
            self.data.snapshots, self.stores["row"].cell_locations, first, last
        )
        self.sql_ops = [
            sql_op(cls, join_first if cls == "t4_join" else first, last,
                   threshold=threshold)
            for cls in SQL_CLASSES
        ]
        self.explores = explores
        # One untimed op per class and format: warms code paths, and on
        # ``query_warm`` fills the leaf cache with the whole window.
        one_per_class = {op.cls: op for op in self._explore_ops(0)}
        Recorder(self.name).warm_up(
            self.sql_ops + list(one_per_class.values()), self.stores, self.data.cells
        )

    def _explore_ops(self, round_no: int):
        first, last = self.window
        return explore_round(
            self.seed, round_no, self.explores, self.stores["row"].area, self.sites,
            first, last,
        )

    def config(self):
        shape = self.shape
        return {
            "scale": shape.scale,
            "epochs": [self.data.first_epoch, self.data.last_epoch],
            "records": self.data.records,
            "user_bytes": self.data.user_bytes,
            "window": list(self.window),
            "leaf_cache_bytes": shape.leaf_cache_bytes,
            "explores_per_round": self.explores,
        }

    def measure(self, run: Pass) -> None:
        run.tallies = self.tallies
        counters = ReadCounters(run, self.stores)
        budget = run.budget()
        with run.tracing():
            while budget.another_round():
                run.recorder.run_round(
                    budget.rounds, self.sql_ops + self._explore_ops(budget.rounds),
                    self.stores, self.data.cells,
                )
                if budget.rounds == 1:
                    counters.end_round_one()
        run.rounds = budget.rounds
        counters.finish()


class QueryCold(QueryWorkload):
    name = "query_cold"
    why = (
        "big leaves, caches off: DFS read, decompress, deserialize/channel decode and SQL kernels "
        "scale with rows; per-leaf fixed costs are a small share (write metrics: the set-up build)"
    )
    # The twelve busiest epochs of a day (11:00-17:00) at scale 0.04:
    # ~4.5k records a leaf, ~55k records, ~4 MB of row text against a
    # cache of 0 bytes.
    shape = QueryShape(
        scale=0.04, epochs=range(22, 34), window=12, join_window=6,
        leaf_cache_bytes=0, explores_per_round=8,
    )


class QueryWarm(QueryWorkload):
    name = "query_warm"
    why = (
        "small leaves that fit the pre-warmed leaf cache: .row skips decode (planning, gatekeeping, "
        "fold, kernels remain); .typed pays read_header per leaf (write metrics: the set-up build)"
    )
    # Two days at scale 0.01 (~750 records a leaf); the 48-epoch window
    # is ~2.7 MB of row text against the default 16 MiB cache.
    shape = QueryShape(
        scale=0.01, epochs=range(0, 96), window=48, join_window=48,
        leaf_cache_bytes=16 * 1024 * 1024, explores_per_round=16,
    )
