"""Tests for the simulated distributed filesystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfs import DataNode, IoCostModel, NameNode, SimulatedDFS
from repro.dfs.block import Block, split_into_blocks
from repro.dfs.namenode import normalize_path
from repro.errors import (
    BlockLostError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
    ReplicationError,
    StorageError,
)


class TestBlocks:
    def test_split_exact_multiple(self):
        chunks = split_into_blocks(b"x" * 100, 25)
        assert [len(c) for c in chunks] == [25, 25, 25, 25]

    def test_split_with_remainder(self):
        chunks = split_into_blocks(b"x" * 10, 4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_empty_payload_has_no_blocks(self):
        assert split_into_blocks(b"", 64) == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            split_into_blocks(b"x", 0)

    @given(st.binary(max_size=5000), st.integers(1, 999))
    @settings(max_examples=50, deadline=None)
    def test_property_concat_restores(self, data, size):
        assert b"".join(split_into_blocks(data, size)) == data


class TestDataNode:
    def test_store_and_read(self):
        node = DataNode(node_id="dn0")
        node.store(Block(block_id=1, data=b"abc"))
        assert node.read(1) == b"abc"
        assert node.used_bytes == 3
        assert node.block_count == 1

    def test_read_missing_block(self):
        node = DataNode(node_id="dn0")
        with pytest.raises(StorageError):
            node.read(99)

    def test_capacity_enforced(self):
        node = DataNode(node_id="dn0", capacity=4)
        node.store(Block(block_id=1, data=b"abc"))
        with pytest.raises(StorageError, match="full"):
            node.store(Block(block_id=2, data=b"de"))

    def test_dead_node_rejects_io(self):
        node = DataNode(node_id="dn0")
        node.store(Block(block_id=1, data=b"abc"))
        node.fail()
        with pytest.raises(StorageError, match="down"):
            node.read(1)
        with pytest.raises(StorageError, match="down"):
            node.store(Block(block_id=2, data=b"x"))

    def test_restart_recovers_replicas(self):
        node = DataNode(node_id="dn0")
        node.store(Block(block_id=1, data=b"abc"))
        node.fail()
        node.restart()
        assert node.read(1) == b"abc"

    def test_drop_is_idempotent(self):
        node = DataNode(node_id="dn0")
        node.drop(5)
        node.store(Block(block_id=5, data=b"x"))
        node.drop(5)
        assert not node.has_block(5)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["store", "corrupt", "drop", "fail", "restart"]),
                st.integers(0, 5),  # few ids: overwrites and re-drops happen
                st.binary(max_size=40),
            ),
            max_size=60,
        ),
        capacity=st.one_of(st.none(), st.integers(0, 120)),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_used_bytes_is_the_sum_of_resident_replicas(self, ops, capacity):
        """``used_bytes`` is a running total (placement sorts on it for
        every write); it must equal a recount after any sequence of
        store / overwrite / corrupt / drop, refused stores included."""
        node = DataNode(node_id="dn0", capacity=capacity)
        for op, block_id, data in ops:
            if op == "store":
                try:
                    node.store(Block(block_id=block_id, data=data))
                except StorageError:
                    pass  # dead or full: nothing stored, nothing counted
            elif op == "corrupt":
                node.corrupt_block(block_id, offset=len(data))
            elif op == "drop":
                node.drop(block_id)
            elif op == "fail":
                node.fail()
            else:
                node.restart()
            node.alive, was_alive = True, node.alive
            recount = sum(len(node.read(b, verify=False)) for b in node.block_ids())
            node.alive = was_alive
            assert node.used_bytes == recount
            if capacity is not None:
                assert node.free_bytes() == capacity - recount


class TestNameNode:
    def test_path_normalization(self):
        assert normalize_path("a/b/c") == "/a/b/c"
        assert normalize_path("/a//b/") == "/a/b"
        assert normalize_path("/") == "/"

    def test_create_lookup_delete(self):
        nn = NameNode()
        nn.create_file("/x/y", replication=2)
        assert nn.exists("/x/y")
        assert nn.lookup("x/y").replication == 2
        nn.delete_file("/x/y")
        assert not nn.exists("/x/y")

    def test_duplicate_create_rejected(self):
        nn = NameNode()
        nn.create_file("/f", replication=1)
        with pytest.raises(FileExistsInDFSError):
            nn.create_file("/f", replication=1)

    def test_lookup_missing_raises(self):
        with pytest.raises(FileNotFoundInDFSError):
            NameNode().lookup("/nope")

    def test_list_dir(self):
        nn = NameNode()
        for path in ("/a/1", "/a/2", "/b/3"):
            nn.create_file(path, replication=1)
        assert nn.list_dir("/a") == ["/a/1", "/a/2"]

    def test_under_replicated_detection(self):
        nn = NameNode()
        meta = nn.create_file("/f", replication=3)
        block = nn.allocate_block()
        meta.blocks.append(block)
        nn.add_location(block, "dn0")
        nn.add_location(block, "dn1")
        missing = nn.under_replicated({"dn0", "dn1", "dn2"})
        assert missing == [(block, 1)]

    def test_under_replicated_ignores_dead_locations(self):
        nn = NameNode()
        meta = nn.create_file("/f", replication=2)
        block = nn.allocate_block()
        meta.blocks.append(block)
        nn.add_location(block, "dead")
        assert nn.under_replicated({"live"}) == [(block, 2)]


class TestSimulatedDFS:
    def test_write_read_round_trip(self):
        dfs = SimulatedDFS(datanodes=4, block_size=16)
        payload = b"0123456789" * 20
        dfs.write_file("/data/one", payload)
        assert dfs.read_file("/data/one") == payload
        assert dfs.file_size("/data/one") == len(payload)

    def test_replication_accounting(self):
        dfs = SimulatedDFS(datanodes=4, default_replication=3)
        dfs.write_file("/f", b"x" * 1000)
        stats = dfs.stats()
        assert stats.logical_bytes == 1000
        assert stats.physical_bytes == 3000

    def test_replication_clamped_to_cluster_size(self):
        dfs = SimulatedDFS(datanodes=2, default_replication=3)
        dfs.write_file("/f", b"y" * 10)
        assert dfs.stats().physical_bytes == 20

    def test_delete_reclaims_space(self):
        dfs = SimulatedDFS()
        dfs.write_file("/f", b"z" * 100)
        dfs.delete_file("/f")
        assert dfs.stats().physical_bytes == 0
        assert not dfs.exists("/f")

    def test_read_missing_raises(self):
        with pytest.raises(FileNotFoundInDFSError):
            SimulatedDFS().read_file("/missing")

    def test_write_existing_raises(self):
        dfs = SimulatedDFS()
        dfs.write_file("/f", b"1")
        with pytest.raises(FileExistsInDFSError):
            dfs.write_file("/f", b"2")

    def test_survives_single_datanode_failure(self):
        dfs = SimulatedDFS(datanodes=4, default_replication=3)
        dfs.write_file("/f", b"important" * 100)
        dfs.kill_datanode("dn00")
        assert dfs.read_file("/f") == b"important" * 100

    def test_block_lost_when_all_replicas_dead(self):
        dfs = SimulatedDFS(datanodes=3, default_replication=3)
        dfs.write_file("/f", b"gone")
        for node_id in ("dn00", "dn01", "dn02"):
            dfs.kill_datanode(node_id)
        with pytest.raises(BlockLostError):
            dfs.read_file("/f")

    def test_re_replication_restores_factor(self):
        dfs = SimulatedDFS(datanodes=4, default_replication=3)
        dfs.write_file("/f", b"data" * 50)
        dfs.kill_datanode("dn00")
        created = dfs.re_replicate()
        # Whatever dn00 held must have been copied somewhere live.
        lost_blocks = dfs.namenode.blocks_on("dn00")
        live = {n.node_id for n in dfs.datanodes.values() if n.alive}
        for block in lost_blocks:
            holders = {
                nid
                for nid in dfs.namenode.locations(block)
                if nid in live and dfs.datanodes[nid].has_block(block)
            }
            assert len(holders) >= 3
        assert created >= 0

    def test_restart_makes_replicas_visible_again(self):
        dfs = SimulatedDFS(datanodes=3, default_replication=3)
        dfs.write_file("/f", b"back soon")
        for node_id in ("dn00", "dn01", "dn02"):
            dfs.kill_datanode(node_id)
        dfs.restart_datanode("dn01")
        assert dfs.read_file("/f") == b"back soon"

    def test_no_live_nodes_rejects_write(self):
        dfs = SimulatedDFS(datanodes=1)
        dfs.kill_datanode("dn00")
        with pytest.raises(ReplicationError):
            dfs.write_file("/f", b"x")

    def test_list_dir(self):
        dfs = SimulatedDFS()
        dfs.write_file("/snap/1", b"a")
        dfs.write_file("/snap/2", b"b")
        dfs.write_file("/other/3", b"c")
        assert dfs.list_dir("/snap") == ["/snap/1", "/snap/2"]

    def test_placement_balances_nodes(self):
        dfs = SimulatedDFS(datanodes=4, default_replication=1, block_size=10)
        for i in range(40):
            dfs.write_file(f"/f{i}", bytes(10))
        used = [n.used_bytes for n in dfs.datanodes.values()]
        assert max(used) - min(used) <= 20

    @given(st.binary(max_size=3000), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip_any_block_size(self, payload, block_size):
        dfs = SimulatedDFS(block_size=block_size)
        dfs.write_file("/p", payload)
        assert dfs.read_file("/p") == payload


class TestIoCostModel:
    def test_write_cost_scales_with_bytes(self):
        model = IoCostModel(bandwidth_bytes_per_s=1e6, op_latency_s=0.0)
        assert model.write_seconds(2_000_000, 1) == pytest.approx(2.0)

    def test_replication_pipeline_overhead(self):
        model = IoCostModel(bandwidth_bytes_per_s=1e6, op_latency_s=0.0,
                            replication_pipeline_factor=0.5)
        single = model.write_seconds(1_000_000, 1)
        triple = model.write_seconds(1_000_000, 3)
        assert triple == pytest.approx(single * 2.0)

    def test_dfs_accumulates_modeled_seconds(self):
        dfs = SimulatedDFS(io_model=IoCostModel(
            bandwidth_bytes_per_s=1e6, op_latency_s=0.01))
        assert dfs.modeled_io_seconds == 0.0
        dfs.write_file("/f", b"x" * 100_000)
        after_write = dfs.modeled_io_seconds
        assert after_write > 0.0
        dfs.read_file("/f")
        assert dfs.modeled_io_seconds > after_write

    def test_no_model_means_zero(self):
        dfs = SimulatedDFS()
        dfs.write_file("/f", b"x" * 100_000)
        dfs.read_file("/f")
        assert dfs.modeled_io_seconds == 0.0
