"""Region-routed scatter and the RegionMap tiling fix.

The legacy tile->group fold ``(row * G + col) % G`` drops the row term
(it is a multiple of the modulus), collapsing the region grid to
vertical stripes.  Layout 2 factors the grid ``cols x rows`` with
``cols * rows == region_groups`` so every tile IS a group; layout 1 is
preserved bit-for-bit behind ``ShardConfig.region_layout`` so existing
warehouses keep their stripe placement.

Routing is a *superset* contract: a query's candidate group set always
includes group 0 (unknown cells and cell-less tables live there) and
every group that can hold a matching row — so routed answers must be
byte-identical to full scatter, across shard counts, both layouts, and
after decay.  These tests pin that contract, the clamp logging for
``replication > shards``, the socket transport's parity, and the
deadline-budget thread-local hygiene fixes.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DurabilityConfig, Spate, SpateConfig
from repro.core.config import ShardConfig
from repro.dfs.filesystem import SimulatedDFS
from repro.errors import (
    ConfigError,
    QueryError,
    ShardError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.query.sql.planner import ScanPredicate, cell_equality_values
from repro.shard import (
    DeadlineBudget,
    RegionMap,
    ShardedSpate,
    effective_replication,
    region_grid_shape,
    shards_for_group,
)
from repro.shard import wire
from repro.spatial.geometry import BoundingBox, Point
from repro.telco import TelcoTraceGenerator, TraceConfig

TRACE = TraceConfig(scale=0.002, days=1, seed=41)
EPOCHS = 8


def build_sharded(
    shards: int, epochs: int = EPOCHS, **shard_kwargs
) -> ShardedSpate:
    generator = TelcoTraceGenerator(TRACE)
    warehouse = ShardedSpate(
        SpateConfig(
            sharding=ShardConfig(
                shards=shards,
                group_replication=shard_kwargs.pop("group_replication", 2),
                **shard_kwargs,
            )
        )
    )
    warehouse.register_cells(generator.cells_table())
    for epoch in range(epochs):
        warehouse.ingest(generator.snapshot(epoch))
    return warehouse


def small_box(warehouse: ShardedSpate) -> BoundingBox:
    """A box over ~1/5 of each axis of the service area — spatially
    selective in both dimensions, so both layouts can route."""
    points = list(warehouse.cell_locations.values())
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return BoundingBox(
        min(xs),
        min(ys),
        min(xs) + (max(xs) - min(xs)) * 0.2,
        min(ys) + (max(ys) - min(ys)) * 0.2,
    )


# ----------------------------------------------------------------------
# The tiling fix itself
# ----------------------------------------------------------------------


class TestRegionLayouts:
    def test_grid_shapes(self):
        assert region_grid_shape(8, 1) == (8, 8)
        assert region_grid_shape(8, 2) == (4, 2)
        assert region_grid_shape(16, 2) == (4, 4)
        assert region_grid_shape(12, 2) == (4, 3)
        # Prime counts degenerate to stripes by arithmetic necessity.
        assert region_grid_shape(7, 2) == (7, 1)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            RegionMap({}, 8, layout=3)
        with pytest.raises(ConfigError):
            ShardConfig(region_layout=3)

    def _grid_cells(self, n: int) -> dict[str, Point]:
        """n x n cells on an integer lattice: cell ``r-c`` at (c, r)."""
        return {
            f"{r}-{c}": Point(float(c), float(r))
            for r in range(n)
            for c in range(n)
        }

    def test_layout1_drops_the_row_term(self):
        """The legacy fold reduces to the column: two cells differing
        only in y land in the same group — stripes, not tiles."""
        cells = self._grid_cells(8)
        legacy = RegionMap(cells, 8, layout=1)
        by_column = {}
        for r in range(8):
            for c in range(8):
                group = legacy.group_of(f"{r}-{c}")
                by_column.setdefault(c, set()).add(group)
        # Every column is one group, regardless of row.
        assert all(len(groups) == 1 for groups in by_column.values())

    def test_layout2_tiles_in_two_dimensions(self):
        """The fixed fold distinguishes rows: the 4x2 grid for 8 groups
        is a tile<->group bijection, so all 8 groups are populated and
        some same-column cell pair lands in different groups."""
        cells = self._grid_cells(8)
        fixed = RegionMap(cells, 8, layout=2)
        groups = {fixed.group_of(cid) for cid in cells}
        assert groups == set(range(8))
        assert any(
            fixed.group_of(f"0-{c}") != fixed.group_of(f"7-{c}")
            for c in range(8)
        )

    def test_group_of_unknown_cell_is_zero(self):
        region_map = RegionMap(self._grid_cells(4), 8, layout=2)
        assert region_map.group_of("nowhere") == 0


class TestReplicationClamp:
    def test_effective_replication(self):
        assert effective_replication(3, 2) == 2
        assert effective_replication(1, 2) == 1
        assert effective_replication(2, 5) == 2
        assert effective_replication(0, 0) == 1

    def test_replicas_are_distinct_shards(self):
        for group in range(8):
            chain = shards_for_group(group, 3, 2)
            assert len(chain) == len(set(chain)) == 2

    def test_clamp_is_logged_once_per_pair(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.shard.key"):
            shards_for_group(0, 2, 9)
            shards_for_group(1, 2, 9)
            shards_for_group(5, 2, 9)
        clamp_logs = [
            r for r in caplog.records if "clamped" in r.getMessage()
        ]
        assert len(clamp_logs) == 1
        assert "replication 9 clamped to 2" in clamp_logs[0].getMessage()

    def test_clamp_surfaces_in_metrics(self):
        warehouse = build_sharded(1, epochs=1, group_replication=2)
        try:
            assert warehouse.effective_replication == 1
            assert warehouse.metrics.shard_replication_configured == 2
            assert warehouse.metrics.shard_replication_effective == 1
            summary = warehouse.metrics.summary()
            assert "clamped to the shard count" in summary
        finally:
            warehouse.close()


# ----------------------------------------------------------------------
# Routing soundness (property): candidate sets are supersets
# ----------------------------------------------------------------------


@st.composite
def _cells_and_box(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    coords = st.floats(
        min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
    )
    cells = {
        f"c{i}": Point(draw(coords), draw(coords)) for i in range(n)
    }
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return cells, BoundingBox(x1, y1, x2, y2)


class TestRoutingSoundness:
    @settings(max_examples=120, deadline=None)
    @given(
        data=_cells_and_box(),
        region_groups=st.sampled_from([1, 4, 7, 8, 16]),
        layout=st.sampled_from([1, 2]),
    )
    def test_box_routing_covers_every_contained_cell(
        self, data, region_groups, layout
    ):
        """Any cell whose centroid lies in the box must have its group
        in the candidate set — the superset contract box routing rests
        on — and group 0 is always a candidate."""
        cells, box = data
        region_map = RegionMap(cells, region_groups, layout=layout)
        candidates = region_map.groups_for_box(box)
        assert 0 in candidates
        for cell_id, point in cells.items():
            if box.contains(point):
                assert region_map.group_of(cell_id) in candidates

    @settings(max_examples=60, deadline=None)
    @given(data=_cells_and_box(), layout=st.sampled_from([1, 2]))
    def test_cell_routing_covers_named_cells(self, data, layout):
        cells, __ = data
        region_map = RegionMap(cells, 8, layout=layout)
        named = sorted(cells)[: max(1, len(cells) // 3)]
        candidates = region_map.groups_for_cells(named)
        assert 0 in candidates
        for cell_id in named:
            assert region_map.group_of(cell_id) in candidates


class TestCellEqualityValues:
    def test_extracts_cell_pins(self):
        predicates = [
            ScanPredicate("cell_id", "=", "7"),
            ScanPredicate("duration_s", ">=", 30),
            ScanPredicate("cell_id", "=", 9),
        ]
        assert cell_equality_values("CDR", predicates) == ["7", "9"]

    def test_none_without_cell_pins(self):
        assert cell_equality_values("CDR", []) is None
        assert (
            cell_equality_values("CDR", [ScanPredicate("duration_s", ">", 1)])
            is None
        )
        # Range predicates on the cell column pin nothing.
        assert (
            cell_equality_values("CDR", [ScanPredicate("cell_id", ">", "3")])
            is None
        )
        # Unknown tables have no cell column.
        assert (
            cell_equality_values("NOPE", [ScanPredicate("cell_id", "=", "3")])
            is None
        )


# ----------------------------------------------------------------------
# Routed scatter == full scatter, byte for byte
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("layout", [1, 2])
class TestRoutedDifferential:
    def test_boxed_explore_matches_full_scatter(self, shards, layout):
        warehouse = build_sharded(shards, region_layout=layout)
        try:
            box = small_box(warehouse)
            args = ("CDR", ("downflux", "upflux"), box, 0, EPOCHS - 1)
            routed = warehouse.explore(*args)
            assert routed.coverage.groups_routed, (shards, layout)
            warehouse.route_queries = False
            full = warehouse.explore(*args)
            assert full.coverage.groups_routed == []
            assert routed.records == full.records
            assert routed.columns == full.columns
            assert {k: v.to_dict() for k, v in routed.aggregates.items()} == {
                k: v.to_dict() for k, v in full.aggregates.items()
            }
        finally:
            warehouse.close()

    def test_cell_pinned_sql_matches_full_scatter(self, shards, layout):
        warehouse = build_sharded(shards, region_layout=layout)
        try:
            cell_id = next(
                cid
                for cid in sorted(warehouse.cell_locations)
                if warehouse._region_map.group_of(cid) != 0
            )
            sql = (
                "SELECT cell_id, COUNT(*) AS n, SUM(duration_s) AS total "
                f"FROM CDR WHERE cell_id = '{cell_id}' GROUP BY cell_id"
            )
            routed = warehouse.sql(sql)
            routed_away = warehouse.last_scan_coverage["groups_routed"]
            assert routed_away, (shards, layout)
            warehouse.route_queries = False
            full = warehouse.sql(sql)
            assert warehouse.last_scan_coverage["groups_routed"] == []
            assert routed.columns == full.columns
            assert routed.rows == full.rows
        finally:
            warehouse.close()

    def test_routing_survives_decay_and_fungus(self, shards, layout):
        warehouse = build_sharded(shards, region_layout=layout)
        try:
            warehouse.decay_groups(older_than_epoch=4, keep_fraction=0.25)
            warehouse.run_decay()
            box = small_box(warehouse)
            args = ("CDR", ("downflux",), box, 0, EPOCHS - 1)
            routed = warehouse.explore(*args)
            warehouse.route_queries = False
            full = warehouse.explore(*args)
            assert routed.records == full.records
            assert {k: v.to_dict() for k, v in routed.aggregates.items()} == {
                k: v.to_dict() for k, v in full.aggregates.items()
            }
        finally:
            warehouse.close()


class TestRoutingGuards:
    def test_unboxed_explore_scatters_to_all_groups(self):
        warehouse = build_sharded(2, epochs=2)
        try:
            result = warehouse.explore(
                "CDR", ("downflux",), None, 0, 1
            )
            assert result.coverage.groups_routed == []
        finally:
            warehouse.close()

    def test_reregistering_cells_after_ingest_disables_routing(self):
        warehouse = build_sharded(2, epochs=2)
        try:
            assert warehouse.route_queries
            generator = TelcoTraceGenerator(TRACE)
            warehouse.register_cells(generator.cells_table())
            assert not warehouse.route_queries
            assert warehouse._route_groups(
                box=small_box(warehouse)
            ) == list(range(warehouse.region_groups))
        finally:
            warehouse.close()

    def test_explain_analyze_itemises_routed_groups(self):
        warehouse = build_sharded(2)
        try:
            cell_id = next(
                cid
                for cid in sorted(warehouse.cell_locations)
                if warehouse._region_map.group_of(cid) != 0
            )
            report = warehouse.explain(
                "SELECT COUNT(*) AS n FROM CDR "
                f"WHERE cell_id = '{cell_id}'"
            )
            assert "groups routed away" in report
        finally:
            warehouse.close()

    def test_coverage_describe_mentions_routing(self):
        warehouse = build_sharded(2)
        try:
            result = warehouse.explore(
                "CDR",
                ("downflux",),
                small_box(warehouse),
                0,
                EPOCHS - 1,
            )
            routed = len(result.coverage.groups_routed)
            assert result.coverage.complete
            assert f"{routed} groups routed away" in result.coverage.describe()
        finally:
            warehouse.close()


# ----------------------------------------------------------------------
# region_layout is part of the warehouse creation record
# ----------------------------------------------------------------------


class TestRegionLayoutRecord:
    def _config(self, layout: int) -> SpateConfig:
        return SpateConfig(
            durability=DurabilityConfig(enabled=True),
            sharding=ShardConfig(region_layout=layout),
        )

    def _build(self, layout: int) -> Spate:
        generator = TelcoTraceGenerator(TRACE)
        spate = Spate(self._config(layout), dfs=SimulatedDFS())
        spate.register_cells(generator.cells_table())
        for epoch in range(3):
            spate.ingest(generator.snapshot(epoch))
        return spate

    def test_layout_recorded_at_creation(self):
        spate = self._build(2)
        assert spate.stored_warehouse_meta()["region_layout"] == 2

    def test_reopen_with_other_layout_fails_fast(self):
        spate = self._build(2)
        dfs = spate.dfs
        del spate
        with pytest.raises(ConfigError, match="region_layout"):
            Spate.open(self._config(1), dfs=dfs)

    def test_reopen_with_same_layout_works(self):
        spate = self._build(1)
        dfs = spate.dfs
        del spate
        reopened = Spate.open(self._config(1), dfs=dfs)
        assert reopened.stored_warehouse_meta()["region_layout"] == 1

    def test_legacy_record_means_layout_one(self):
        """A creation record without the key predates the fix: layout 1
        placement is assumed, so opening with layout 2 must refuse."""
        import json

        spate = self._build(1)
        dfs = spate.dfs
        meta = spate.stored_warehouse_meta()
        del meta["region_layout"]
        dfs.delete_file(Spate.WAREHOUSE_META_PATH)
        dfs.write_file(
            Spate.WAREHOUSE_META_PATH,
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        del spate
        reopened = Spate.open(self._config(1), dfs=dfs)
        assert reopened.stored_warehouse_meta().get("region_layout") is None
        dfs = reopened.dfs
        del reopened
        with pytest.raises(ConfigError, match="region_layout"):
            Spate.open(self._config(2), dfs=dfs)


# ----------------------------------------------------------------------
# Socket transport: real worker processes behind the same ShardClient
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def socket_pair():
    """An inline single-shard reference and a 2-shard socket warehouse
    over the same trace."""
    inline = build_sharded(1, group_replication=1)
    socketed = build_sharded(2, transport="socket")
    yield inline, socketed
    inline.close()
    socketed.close()


class TestSocketTransport:
    def test_read_rows_parity(self, socket_pair):
        inline, socketed = socket_pair
        want = inline.read_rows("CDR", 0, EPOCHS - 1)
        got = socketed.read_rows("CDR", 0, EPOCHS - 1)
        assert got == want

    def test_explore_parity(self, socket_pair):
        inline, socketed = socket_pair
        args = ("CDR", ("downflux", "upflux"), None, 0, EPOCHS - 1)
        want = inline.explore(*args)
        got = socketed.explore(*args)
        assert got.records == want.records
        assert got.columns == want.columns
        assert {k: v.to_dict() for k, v in got.aggregates.items()} == {
            k: v.to_dict() for k, v in want.aggregates.items()
        }

    def test_sql_parity(self, socket_pair):
        inline, socketed = socket_pair
        sql = (
            "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS total "
            "FROM CDR GROUP BY call_type"
        )
        assert socketed.sql(sql).rows == inline.sql(sql).rows

    def test_routed_explore_parity(self, socket_pair):
        inline, socketed = socket_pair
        box = small_box(socketed)
        args = ("CDR", ("downflux",), box, 0, EPOCHS - 1)
        got = socketed.explore(*args)
        assert got.coverage.groups_routed
        assert got.records == inline.explore(*args).records

    def test_kill_and_recover_over_the_wire(self, socket_pair):
        __, socketed = socket_pair
        sql = "SELECT COUNT(*) AS n FROM CDR"
        want = socketed.sql(sql).rows
        socketed.kill_shard(0)
        with pytest.raises(ShardUnavailableError):
            socketed.workers[0].ping()
        # Replication 2 over 2 shards: every group still answers.
        assert socketed.sql(sql).rows == want
        socketed.recover_shard(0)
        assert socketed.workers[0].ping() == "ok"
        assert socketed.sql(sql).rows == want

    def test_unknown_method_raises_shard_error(self, socket_pair):
        __, socketed = socket_pair
        with pytest.raises(ShardError, match="unknown rpc method"):
            socketed.workers[0].definitely_not_a_method()

    def test_application_error_crosses_by_class(self, socket_pair):
        """A worker-side application error must re-raise as its own
        class, not as a shard failure — the retry stack must not treat
        a deterministic QueryError as retryable."""
        __, socketed = socket_pair
        proxy = socketed.workers[0]
        snapshot_error = None
        try:
            # Duplicate finalize on the worker raises QueryError from
            # the group store.
            proxy.finalize(0)
            proxy.finalize(0)
        except QueryError as exc:
            snapshot_error = exc
        assert isinstance(snapshot_error, QueryError)

    def test_coordinator_restart_reattaches(self, socket_pair):
        inline, socketed = socket_pair
        sql = (
            "SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type"
        )
        want = inline.sql(sql).rows
        revived = ShardedSpate(
            socketed.config, worker_endpoints=socketed.worker_endpoints
        )
        try:
            summary = revived.resync()
            assert summary["frontier"] == EPOCHS - 1
            assert "CDR" in summary["tables"]
            # Reattached coordinators answer by full scatter: the
            # rebuilt map cannot be proven to match old placement.
            assert revived.sql(sql).rows == want
        finally:
            revived.close()
        # The attacher's close must not take the workers down.
        assert socketed.sql(sql).rows == want

    def test_endpoints_require_socket_transport(self):
        with pytest.raises(ShardError, match="socket"):
            ShardedSpate(
                SpateConfig(sharding=ShardConfig(shards=2)),
                worker_endpoints={0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)},
            )


class TestWireCodec:
    def test_containers_round_trip(self):
        value = {
            "plain": [1, 2.5, None, True, "x"],
            "tuple": (1, "a"),
            "set": {3, 1},
            "frozen": frozenset({"b"}),
            "intkeys": {1: "one", (2, 3): "pair"},
        }
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_dataclasses_round_trip(self):
        stats = ScanPredicate(column="cell_id", op="=", value="7")
        assert wire.decode_value(wire.encode_value(stats)) == stats

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireError):
            wire.encode_value(object())

    def test_non_repro_dataclass_refused(self):
        payload = {"__dc__": "os.path:something", "f": {}}
        with pytest.raises(wire.WireError):
            wire.decode_value(payload)

    def test_errors_round_trip_by_class(self):
        for exc in (QueryError("bad sql"), ValueError("nope"),
                    ShardTimeoutError("slow")):
            rebuilt = wire.decode_error(wire.encode_error(exc))
            assert type(rebuilt) is type(exc)
            assert str(rebuilt) == str(exc)

    def test_unknown_error_module_degrades_to_shard_error(self):
        rebuilt = wire.decode_error(
            {"module": "evil", "qualname": "Boom", "message": "x"}
        )
        assert isinstance(rebuilt, ShardError)
        assert "Boom" in str(rebuilt)


# ----------------------------------------------------------------------
# Deadline-budget hygiene
# ----------------------------------------------------------------------


class TestThreadLaneHygiene:
    def test_nested_sql_restores_outer_deadline(self):
        warehouse = build_sharded(1, epochs=2, group_replication=1)
        try:
            sentinel = DeadlineBudget(None)
            warehouse._scan_tls.deadline = sentinel
            warehouse.sql("SELECT COUNT(*) AS n FROM CDR")
            assert warehouse._deadline() is sentinel
            warehouse.explain("SELECT COUNT(*) AS n FROM CDR")
            assert warehouse._deadline() is sentinel
        finally:
            warehouse._scan_tls.deadline = None
            warehouse.close()
