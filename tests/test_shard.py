"""Sharded warehouse: placement, RPC robustness, failover, identity.

The differential contract under test: ``ShardedSpate`` answers are
byte-identical for every shard count, because the region-group count is
fixed and the coordinator merges in deterministic (epoch, group-rank)
order.  ``ShardedSpate`` with ``shards=1`` is the reference; the chaos
cases then kill shards mid-stream and mid-query and require the same
identity (served via replica failover) or an accurately itemised
degraded answer when no replica is left.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import ShardConfig
from repro.errors import (
    QueryError,
    ShardError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.query.explore import CoverageReport
from repro.shard import (
    CircuitBreaker,
    DeadlineBudget,
    RegionMap,
    ShardClient,
    ShardedSpate,
    groups_for_shard,
    shards_for_group,
    split_snapshot,
)
from repro.spatial.geometry import Point
from repro.telco import TelcoTraceGenerator, TraceConfig

TRACE = TraceConfig(scale=0.002, days=1, seed=99)
EPOCHS = 10


def build_sharded(shards: int, replication: int = 2, **shard_kwargs) -> ShardedSpate:
    generator = TelcoTraceGenerator(TRACE)
    warehouse = ShardedSpate(SpateConfig(sharding=ShardConfig(
        shards=shards, group_replication=replication, **shard_kwargs
    )))
    warehouse.register_cells(generator.cells_table())
    for epoch in range(EPOCHS):
        warehouse.ingest(generator.snapshot(epoch))
    warehouse.finalize()
    return warehouse


@pytest.fixture(scope="module")
def reference() -> ShardedSpate:
    """The single-shard truth every shard count must reproduce."""
    return build_sharded(1)


@pytest.fixture(scope="module")
def sharded3() -> ShardedSpate:
    return build_sharded(3)


class TestPlacement:
    def test_replicas_land_on_distinct_shards(self):
        for shards in (1, 2, 3, 5, 8):
            for group in range(8):
                chain = shards_for_group(group, shards, replication=2)
                assert len(chain) == len(set(chain))
                assert all(0 <= s < shards for s in chain)
                assert chain[0] == group % shards

    def test_every_group_is_hosted(self):
        for shards in (1, 2, 3, 5):
            hosted = set()
            for shard in range(shards):
                hosted.update(groups_for_shard(shard, shards, 8, 2))
            assert hosted == set(range(8))

    def test_losing_one_shard_keeps_every_group_live(self):
        for shards in (2, 3, 5):
            for dead in range(shards):
                for group in range(8):
                    chain = shards_for_group(group, shards, replication=2)
                    assert any(s != dead for s in chain)

    def test_region_map_is_deterministic_and_total(self):
        generator = TelcoTraceGenerator(TRACE)
        cells = generator.cells_table()
        idx = cells.column_index("cell_id")
        locations = {
            row[idx]: Point(float(row[cells.column_index("x")]),
                            float(row[cells.column_index("y")]))
            for row in cells.rows
        }
        a = RegionMap(locations, 8)
        b = RegionMap(locations, 8)
        for cell_id in locations:
            group = a.group_of(cell_id)
            assert group == b.group_of(cell_id)
            assert 0 <= group < 8
        assert a.group_of("no-such-cell") == 0


class TestSplit:
    def test_split_partitions_without_loss_or_reorder(self):
        generator = TelcoTraceGenerator(TRACE)
        warehouse = ShardedSpate(SpateConfig())
        warehouse.register_cells(generator.cells_table())
        snapshot = generator.snapshot(0)
        subs = split_snapshot(snapshot, warehouse._group_of_cell, 8)
        assert len(subs) == 8
        for name, table in snapshot.tables.items():
            # Every sub-snapshot carries every table (maybe empty).
            for sub in subs:
                assert name in sub.tables
                assert sub.tables[name].columns == table.columns
            merged = [row for sub in subs for row in sub.tables[name].rows]
            assert sorted(map(tuple, merged)) == sorted(map(tuple, table.rows))
            # Relative order within each group is preserved.
            for sub in subs:
                rows = sub.tables[name].rows
                positions = [table.rows.index(row) for row in rows]
                assert positions == sorted(positions)


class TestShardIdentity:
    """N-shard scatter-gather must be byte-identical to single-shard."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_read_rows_identical(self, reference, shards, sharded3):
        warehouse = sharded3 if shards == 3 else build_sharded(shards)
        for table in ("CDR", "NMS", "MR"):
            assert warehouse.read_rows(table, 0, EPOCHS - 1) == \
                reference.read_rows(table, 0, EPOCHS - 1)

    def test_explore_identical(self, reference, sharded3):
        want = reference.explore("CDR", ("downflux", "upflux"), None, 0, EPOCHS - 1)
        got = sharded3.explore("CDR", ("downflux", "upflux"), None, 0, EPOCHS - 1)
        assert got.records == want.records
        assert got.columns == want.columns
        assert {k: v.to_dict() for k, v in got.aggregates.items()} == \
            {k: v.to_dict() for k, v in want.aggregates.items()}
        assert got.snapshots_read == want.snapshots_read
        assert got.coverage.complete and want.coverage.complete

    def test_sql_identical(self, reference, sharded3):
        sql = ("SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS d "
               "FROM CDR GROUP BY call_type ORDER BY call_type")
        want = reference.sql(sql)
        got = sharded3.sql(sql)
        assert got.columns == want.columns
        assert got.rows == want.rows

    def test_highlights_identical(self, reference, sharded3):
        want = [h.to_dict() for h in reference.highlights(0, EPOCHS - 1)]
        got = [h.to_dict() for h in sharded3.highlights(0, EPOCHS - 1)]
        assert sorted(want, key=str) == sorted(got, key=str)

    def test_aggregates_match_plain_spate(self, reference):
        """Sharding permutes within-epoch row order but must never
        change what the rows *are*: multiset and aggregates agree with
        the unsharded warehouse."""
        generator = TelcoTraceGenerator(TRACE)
        plain = Spate(SpateConfig())
        plain.register_cells(generator.cells_table())
        for epoch in range(EPOCHS):
            plain.ingest(generator.snapshot(epoch))
        plain.finalize()
        want = plain.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        got = reference.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        assert sorted(map(tuple, want.records)) == sorted(map(tuple, got.records))
        assert {k: v.to_dict() for k, v in want.aggregates.items()} == \
            {k: v.to_dict() for k, v in got.aggregates.items()}

    def test_spate_create_routes_by_shard_count(self):
        assert isinstance(Spate.create(SpateConfig()), Spate)
        sharded = Spate.create(
            SpateConfig(sharding=ShardConfig(shards=2))
        )
        assert isinstance(sharded, ShardedSpate)


class TestFailover:
    def test_kill_one_shard_serves_from_replicas(self, reference):
        warehouse = build_sharded(3)
        warehouse.kill_shard(1)
        want = reference.read_rows("CDR", 0, EPOCHS - 1)
        assert warehouse.read_rows("CDR", 0, EPOCHS - 1) == want
        assert warehouse.client.counters.failovers > 0

    def test_kill_mid_query_fails_over_in_flight(self, reference):
        """A shard dying *during* the scatter: remaining groups fail
        over to replicas and the answer stays identical."""
        warehouse = build_sharded(3)
        state = {"rpcs": 0}

        def hook(shard_id: int, method: str) -> None:
            state["rpcs"] += 1
            if state["rpcs"] == 4 and warehouse.workers[0].alive:
                warehouse.kill_shard(0)

        warehouse.client.before_invoke = hook
        got = warehouse.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        warehouse.client.before_invoke = None
        want = reference.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)
        assert got.records == want.records
        assert got.coverage.complete
        assert warehouse.client.counters.failovers > 0

    def test_partial_ok_degrades_with_shards_skipped(self):
        """replication=1: a dead shard's groups have no replica, so
        partial_ok must itemise the skipped shard slices and strict
        queries must raise."""
        warehouse = build_sharded(2, replication=1)
        warehouse.kill_shard(1)
        got = warehouse.explore(
            "CDR", ("downflux",), None, 0, EPOCHS - 1, partial_ok=True
        )
        assert got.coverage.shards_skipped
        assert not got.coverage.complete
        assert all(
            reason in ("dead", "breaker_open", "timeout", "error")
            for reason in got.coverage.shards_skipped.values()
        )
        assert warehouse.client.counters.shards_skipped > 0
        with pytest.raises(ShardError):
            warehouse.explore("CDR", ("downflux",), None, 0, EPOCHS - 1)

    def test_recover_shard_replays_missed_mutations(self, reference):
        warehouse = build_sharded(3)
        generator = TelcoTraceGenerator(TRACE)
        ref2 = build_sharded(1)
        warehouse.kill_shard(2)
        extra = generator.snapshot(EPOCHS)
        with pytest.raises(QueryError):
            warehouse.ingest(extra)  # stream already finalized
        # Rebuild un-finalized warehouses to exercise catch-up properly.
        warehouse = ShardedSpate(SpateConfig(sharding=ShardConfig(shards=3)))
        truth = ShardedSpate(SpateConfig(sharding=ShardConfig(shards=1)))
        generator = TelcoTraceGenerator(TRACE)
        cells = generator.cells_table()
        warehouse.register_cells(cells)
        truth.register_cells(cells)
        snapshots = [generator.snapshot(epoch) for epoch in range(EPOCHS)]
        for snapshot in snapshots[:4]:
            warehouse.ingest(snapshot)
            truth.ingest(snapshot)
        warehouse.kill_shard(0)
        for snapshot in snapshots[4:]:
            warehouse.ingest(snapshot)  # shard 0's copies are buffered
            truth.ingest(snapshot)
        replayed = warehouse.recover_shard(0)
        assert replayed > 0
        warehouse.finalize()
        truth.finalize()
        assert warehouse.read_rows("CDR", 0, EPOCHS - 1) == \
            truth.read_rows("CDR", 0, EPOCHS - 1)
        # The recovered shard serves its groups again: kill the OTHER
        # shards' ability to answer by checking shard 0 directly.
        worker = warehouse.workers[0]
        assert worker.alive and worker.restarts == 1

    def test_heartbeat_detects_and_suspects_dead_shard(self):
        warehouse = build_sharded(3, heartbeat_miss_limit=2)
        assert all(warehouse.heartbeat().values())
        warehouse.kill_shard(1)
        health = warehouse.heartbeat()
        assert health[1] is False and health[0] and health[2]
        assert 1 not in warehouse._suspected  # one miss is not enough
        warehouse.heartbeat()
        assert 1 in warehouse._suspected
        # Suspected shards go to the back of every failover chain.
        for group in range(warehouse.region_groups):
            chain = warehouse._chain(group)
            if 1 in chain:
                assert chain[-1] == 1
        assert warehouse.client.counters.heartbeat_misses >= 2
        warehouse.recover_shard(1)
        assert 1 not in warehouse._suspected
        assert all(warehouse.heartbeat().values())


class TestRpcStack:
    def test_circuit_breaker_trips_and_sheds(self):
        breaker = CircuitBreaker(threshold=3, cooldown_rpcs=2)
        for __ in range(3):
            assert breaker.allow()
            breaker.on_failure()
        assert breaker.trips == 1 and breaker.open
        assert not breaker.allow()  # shed 1
        assert not breaker.allow()  # shed 2
        assert breaker.allow()      # half-open probe
        breaker.on_success()
        assert breaker.failures == 0 and not breaker.open

    def test_breaker_sheds_calls_to_dead_shard(self):
        warehouse = build_sharded(2, breaker_threshold=2,
                                  breaker_cooldown_rpcs=4, rpc_retries=0)
        warehouse.kill_shard(0)
        client = warehouse.client
        for __ in range(2):
            with pytest.raises(ShardUnavailableError):
                client.call(0, "ping", retry=False)
        assert client.breakers[0].open
        with pytest.raises(ShardUnavailableError, match="breaker"):
            client.call(0, "ping", retry=False)
        assert client.counters.breaker_trips == 1

    def test_deadline_budget_expires_rpcs(self):
        warehouse = build_sharded(2)
        budget = DeadlineBudget(1)
        time.sleep(0.01)
        assert budget.expired()
        with pytest.raises(ShardTimeoutError):
            warehouse.client.call(0, "ping", deadline=budget)

    def test_retries_are_bounded_and_budgeted(self):
        warehouse = build_sharded(2, rpc_retries=2, rpc_retry_budget=3,
                                  breaker_threshold=99)
        warehouse.kill_shard(0)
        client = warehouse.client
        with pytest.raises(ShardUnavailableError):
            client.call(0, "ping")
        assert client.counters.retries == 2
        assert client.counters.retry_budget_spent == 2
        with pytest.raises(ShardUnavailableError):
            client.call(0, "ping")
        # Budget had 1 token left: the second call retried once.
        assert client.counters.retries == 3
        assert client.counters.retry_budget_exhausted >= 0
        assert client.modeled_backoff_s > 0  # inline transport models it

    def test_application_errors_do_not_retry_or_fail_over(self, sharded3):
        retries_before = sharded3.client.counters.retries
        failovers_before = sharded3.client.counters.failovers
        with pytest.raises(Exception) as err:
            sharded3.sql("SELECT nope FROM CDR WHERE")
        assert not isinstance(err.value, ShardError)
        # A deterministic application error must not look like a shard
        # failure: no retries, no failovers, all breakers stay closed.
        assert sharded3.client.counters.failovers == failovers_before
        assert sharded3.client.counters.retries == retries_before
        assert all(not b.open for b in sharded3.client.breakers.values())


class TestCoverageMergeAccumulates:
    """Satellite: reasons from multiple sources accumulate instead of
    last-writer-wins."""

    def test_distinct_reasons_join(self):
        a = CoverageReport(epochs_served=[0, 1], epochs_skipped={2: "deadline"})
        b = CoverageReport(epochs_served=[0], epochs_skipped={2: "quarantined"})
        a.merge(b)
        assert a.epochs_skipped[2] == "deadline + quarantined"

    def test_same_reason_not_duplicated(self):
        a = CoverageReport(epochs_skipped={2: "deadline"})
        a.merge(CoverageReport(epochs_skipped={2: "deadline"}))
        assert a.epochs_skipped[2] == "deadline"

    def test_three_sources_accumulate(self):
        merged = CoverageReport()
        merged.merge(CoverageReport(epochs_skipped={5: "deadline"}))
        merged.merge(CoverageReport(epochs_skipped={5: "unreadable: gone"}))
        merged.merge(CoverageReport(
            shards_skipped={"g3@s1": "dead"}, deadline_hit=True
        ))
        assert merged.epochs_skipped[5] == "deadline + unreadable: gone"
        assert merged.shards_skipped == {"g3@s1": "dead"}
        assert merged.deadline_hit
        assert not merged.complete

    def test_skipped_epoch_beats_served_and_pruned(self):
        a = CoverageReport(epochs_served=[1], epochs_pruned=[2, 3])
        b = CoverageReport(epochs_skipped={1: "dead"}, epochs_served=[2])
        a.merge(b)
        assert a.epochs_served == [2]
        assert a.epochs_skipped == {1: "dead"}
        assert a.epochs_pruned == [3]

    def test_shard_reasons_accumulate_across_merges(self):
        a = CoverageReport(shards_skipped={"g1@s0": "timeout"})
        a.merge(CoverageReport(shards_skipped={"g1@s0": "breaker_open"}))
        assert a.shards_skipped["g1@s0"] == "timeout + breaker_open"


class TestShardMetrics:
    def test_counters_flow_into_warehouse_metrics(self):
        warehouse = build_sharded(3)
        warehouse.kill_shard(0)
        warehouse.heartbeat()
        warehouse.read_rows("CDR", 0, EPOCHS - 1)
        warehouse.recover_shard(0)
        metrics = warehouse.metrics
        assert metrics.shard_rpcs > 0
        assert metrics.shard_failovers > 0
        assert metrics.shard_heartbeat_misses > 0
        assert metrics.shard_recoveries == 1
        summary = metrics.summary()
        assert "shards:" in summary
        assert "failovers" in summary

    def test_explain_analyze_renders_shard_skips(self):
        warehouse = build_sharded(2, replication=1)
        warehouse.kill_shard(1)
        report = warehouse.explain(
            "SELECT COUNT(*) FROM CDR", partial_ok=True
        )
        assert "shard slices skipped" in report
