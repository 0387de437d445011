"""Process-backed worker shard: hosts its slice of the region groups.

A :class:`ShardWorker` models one worker process of the cluster.  It
owns one full :class:`~repro.core.spate.Spate` store per region group
it hosts — each over its *own* simulated DFS, with metadata durability
forced on — so killing and restarting the worker exercises the real
crash-recovery machinery: ``kill()`` drops the store objects (the
process dies; the DFS state, standing in for the disks, survives) and
``restart()`` reopens every group store with ``Spate.open`` — newest
checkpoint + WAL replay — exactly the PR-2/3 recovery path.

Methods raise :class:`~repro.errors.ShardUnavailableError` while the
worker is dead; the RPC client turns that into failover.  Application
errors (bad query, quarantined leaf in strict mode) propagate as
themselves — they are deterministic answers, not shard failures, and
must never trigger a retry.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import ShardConfig, SpateConfig
from repro.core.snapshot import Snapshot, Table
from repro.errors import ShardUnavailableError


def group_store_config(config: SpateConfig) -> SpateConfig:
    """Derive a group store's config from the coordinator's.

    Durability is forced on (kill/restart needs WAL replay to work),
    sharding is reset (a group store is always single-shard), and the
    decode executor is pinned serial — eight stores per worker times N
    workers would otherwise multiply thread pools for no answer-side
    difference.  ``region_layout`` is carried over: the group store
    records it in its warehouse creation record, and ``restart()``'s
    ``Spate.open`` refuses a contradicting layout.
    """
    return dataclasses.replace(
        config,
        durability=dataclasses.replace(config.durability, enabled=True),
        sharding=ShardConfig(region_layout=config.sharding.region_layout),
        executor="serial",
    )


class ShardWorker:
    """One worker shard hosting ``groups`` of the region-group ring."""

    def __init__(
        self,
        shard_id: int,
        config: SpateConfig,
        groups: list[int],
    ) -> None:
        from repro.core.spate import Spate

        self.shard_id = shard_id
        self.groups = sorted(groups)
        self._config = group_store_config(config)
        self.alive = True
        #: Times this worker was killed / restarted (chaos bookkeeping).
        self.kills = 0
        self.restarts = 0
        self._stores = {
            group: Spate(self._config) for group in self.groups
        }
        #: group -> the group store's DFS; survives ``kill()`` the way
        #: disks survive a process crash.
        self._dfs = {
            group: store.dfs for group, store in self._stores.items()
        }

    # ------------------------------------------------------------------
    # Lifecycle (driven by the chaos harness / coordinator)
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Crash the worker process: stores vanish, DFS state stays."""
        self.alive = False
        self.kills += 1
        self._stores = {}

    def restart(self) -> None:
        """Recover every group store from its durable state (checkpoint
        + WAL replay) and rejoin the ring."""
        from repro.core.spate import Spate

        stores = {}
        for group in self.groups:
            stores[group] = Spate.open(self._config, dfs=self._dfs[group])
        self._stores = stores
        self.alive = True
        self.restarts += 1

    def _store(self, group: int):
        if not self.alive:
            raise ShardUnavailableError(f"shard {self.shard_id} is dead")
        store = self._stores.get(group)
        if store is None:
            raise ShardUnavailableError(
                f"shard {self.shard_id} does not host group {group}"
            )
        return store

    # ------------------------------------------------------------------
    # Shard RPC surface (called through repro.shard.rpc)
    # ------------------------------------------------------------------

    def ping(self) -> str:
        """Heartbeat probe."""
        if not self.alive:
            raise ShardUnavailableError(f"shard {self.shard_id} is dead")
        return "ok"

    def register_cells(self, cells: Table) -> None:
        """Load the full CELL relation into every hosted group store —
        each store needs the whole service area so spatial filtering
        matches the unsharded warehouse exactly."""
        if not self.alive:
            raise ShardUnavailableError(f"shard {self.shard_id} is dead")
        for group in self.groups:
            self._stores[group].register_cells(cells)

    def ingest(self, group: int, sub_snapshot: Snapshot):
        """Ingest one group's sub-snapshot into its store."""
        return self._store(group).ingest(sub_snapshot)

    def finalize(self, group: int) -> None:
        self._store(group).finalize()

    def read_columns_by_epoch(
        self,
        group: int,
        table: str,
        first_epoch: int,
        last_epoch: int,
        partial_ok: bool = False,
        predicates=None,
        columns=None,
    ):
        """The scan RPC: the group store's column scan plus the
        telemetry the coordinator needs to merge — ``(columns, [(epoch,
        column_lists)...], coverage_dict, scan_stats)``.

        Coverage and stats are captured here, on the serving thread —
        they are thread-local on the store, so the coordinator could
        not read them after the RPC returned.
        """
        store = self._store(group)
        out_columns, by_epoch = store.read_columns_by_epoch(
            table,
            first_epoch,
            last_epoch,
            partial_ok=partial_ok,
            predicates=predicates,
            columns=columns,
        )
        return out_columns, by_epoch, store.last_scan_coverage, store.last_scan_stats

    def table_statistics(
        self, group: int, table: str, first_epoch: int, last_epoch: int
    ):
        """Planner statistics for this group's slice of ``table``."""
        return self._store(group).table_statistics(
            table, first_epoch, last_epoch
        )

    def explore(
        self,
        group: int,
        table: str,
        attributes: tuple,
        box,
        first_epoch: int,
        last_epoch: int,
        coarse: bool = False,
        partial_ok: bool = False,
        deadline_ms: int | None = None,
    ):
        return self._store(group).explore(
            table,
            attributes,
            box,
            first_epoch,
            last_epoch,
            coarse=coarse,
            partial_ok=partial_ok,
            deadline_ms=deadline_ms,
        )

    def highlights(self, group: int, first_epoch: int, last_epoch: int):
        return self._store(group).highlights(first_epoch, last_epoch)

    def table_columns(
        self, group: int, table: str, first_epoch: int, last_epoch: int
    ) -> list[str]:
        return self._store(group).table_columns(table, first_epoch, last_epoch)

    def ingested_epochs(self, group: int) -> list[int]:
        return self._store(group).ingested_epochs()

    def known_tables(self, group: int) -> list[str]:
        """Table names with live leaves in this group store — what a
        reattaching coordinator needs to rebuild its SQL catalog."""
        store = self._store(group)
        return sorted(
            {
                name
                for leaf in store.index.leaves()
                if not leaf.decayed
                for name in leaf.table_paths
            }
        )

    def run_decay(self, group: int):
        return self._store(group).run_decay()

    def decay_groups(self, group: int, older_than_epoch: int, keep_fraction: float):
        return self._store(group).decay_groups(older_than_epoch, keep_fraction)

    def heal(self, group: int):
        return self._store(group).heal()

    def store_metrics(self, group: int):
        """The group store's own WarehouseMetrics (ingest-side truth)."""
        return self._store(group).metrics


__all__ = ["ShardWorker", "group_store_config"]
