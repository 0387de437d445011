"""Tests for the incremence (ingest/rollup) and decay modules."""

import pytest

from repro.compression import get_codec
from repro.core.config import DecayPolicyConfig, SpateConfig
from repro.core.snapshot import EPOCHS_PER_DAY, Snapshot, Table
from repro.dfs import SimulatedDFS
from repro.index.decay import DecayModule, EvictOldestIndividuals, describe_policy
from repro.index.incremence import IncremenceModule
from repro.index.temporal import TemporalIndex


def snapshot_for(epoch: int) -> Snapshot:
    snap = Snapshot(epoch=epoch)
    cdr = Table(
        name="CDR",
        columns=["ts", "cell_id", "drop_flag", "downflux", "result",
                 "call_type", "upflux", "duration_s"],
    )
    for i in range(10):
        cdr.append([
            str(epoch), f"C{i % 2:03d}", "0", str(i * 10), "OK",
            "voice", "0", "30",
        ])
    snap.add_table(cdr)
    return snap


def build(config: SpateConfig | None = None):
    config = config or SpateConfig(codec="gzip-ref")
    dfs = SimulatedDFS()
    index = TemporalIndex()
    module = IncremenceModule(
        dfs=dfs, index=index, codec=get_codec(config.codec), config=config
    )
    return dfs, index, module, config


class TestIncremence:
    def test_ingest_writes_compressed_file(self):
        dfs, index, module, __ = build()
        report = module.ingest(snapshot_for(0))
        assert report.compressed_bytes < report.raw_bytes
        assert dfs.exists(module.leaf_path(0, "CDR"))
        assert index.leaf_count() == 1

    def test_report_has_stage_timings(self):
        __, __, module, __ = build()
        report = module.ingest(snapshot_for(0))
        assert report.total_seconds >= 0
        assert report.ratio > 1.0

    def test_day_summary_accumulates_during_day(self):
        __, index, module, __ = build()
        for epoch in range(5):
            module.ingest(snapshot_for(epoch))
        day = index.day_nodes()[0]
        assert day.summary is not None
        assert day.summary.record_counts["CDR"] == 50
        assert not day.finalized

    def test_day_finalized_on_boundary(self):
        __, index, module, __ = build()
        for epoch in range(EPOCHS_PER_DAY + 1):
            module.ingest(snapshot_for(epoch))
        days = index.day_nodes()
        assert days[0].finalized
        assert not days[1].finalized

    def test_month_rollup_receives_day_summary(self):
        __, index, module, __ = build()
        for epoch in range(EPOCHS_PER_DAY + 1):
            module.ingest(snapshot_for(epoch))
        month = index.month_nodes()[0]
        assert month.summary is not None
        assert month.summary.record_counts["CDR"] == EPOCHS_PER_DAY * 10

    def test_finalize_closes_trailing_periods(self):
        __, index, module, __ = build()
        for epoch in range(5):
            module.ingest(snapshot_for(epoch))
        module.finalize()
        assert index.day_nodes()[0].finalized
        assert index.month_nodes()[0].finalized
        assert index.years[0].finalized
        assert index.root_summary.record_counts.get("CDR") == 50

    def test_finalize_is_idempotent(self):
        __, index, module, __ = build()
        module.ingest(snapshot_for(0))
        module.finalize()
        module.finalize()
        assert index.root_summary.record_counts["CDR"] == 10

    def test_highlights_detected_at_finalize(self):
        __, index, module, __ = build()
        snap = snapshot_for(0)
        snap.tables["CDR"].rows[0][2] = "1"  # one rare drop flag
        module.ingest(snap)
        # More clean snapshots push the "1" rate below theta_day (5%).
        for epoch in range(1, 4):
            module.ingest(snapshot_for(epoch))
        module.finalize()
        day = index.day_nodes()[0]
        assert any(h.value == "1" and h.attribute == "drop_flag"
                   for h in day.summary.highlights)


class TestDecay:
    def make_loaded(self, keep_epochs: int, days: int = 3):
        config = SpateConfig(
            codec="gzip-ref",
            decay=DecayPolicyConfig(keep_epochs=keep_epochs),
        )
        dfs, index, module, __ = build(config)
        decay = DecayModule(dfs=dfs, index=index, config=config.decay)
        for epoch in range(days * EPOCHS_PER_DAY):
            module.ingest(snapshot_for(epoch))
        return dfs, index, decay

    def test_evicts_leaves_beyond_horizon(self):
        dfs, index, decay = self.make_loaded(keep_epochs=EPOCHS_PER_DAY)
        report = decay.run()
        assert report.leaves_evicted == 2 * EPOCHS_PER_DAY
        assert index.leaf_count() == EPOCHS_PER_DAY
        # Evicted files are gone from the DFS.
        for path in report.evicted_paths:
            assert not dfs.exists(path)

    def test_reclaims_bytes(self):
        dfs, __, decay = self.make_loaded(keep_epochs=EPOCHS_PER_DAY)
        before = dfs.stats().logical_bytes
        report = decay.run()
        after = dfs.stats().logical_bytes
        assert report.bytes_reclaimed == before - after > 0

    def test_idempotent_at_fixed_frontier(self):
        __, __, decay = self.make_loaded(keep_epochs=EPOCHS_PER_DAY)
        decay.run()
        second = decay.run()
        assert second.leaves_evicted == 0
        assert second.bytes_reclaimed == 0

    def test_disabled_policy_evicts_nothing(self):
        config = SpateConfig(
            codec="gzip-ref",
            decay=DecayPolicyConfig(enabled=False, keep_epochs=1),
        )
        dfs, index, module, __ = build(config)
        decay = DecayModule(dfs=dfs, index=index, config=config.decay)
        for epoch in range(10):
            module.ingest(snapshot_for(epoch))
        assert decay.run().leaves_evicted == 0
        assert index.leaf_count() == 10

    def test_summaries_survive_leaf_decay(self):
        __, index, decay = self.make_loaded(keep_epochs=EPOCHS_PER_DAY)
        decay.run()
        decayed_day = index.day_nodes()[0]
        assert decayed_day.live_leaves() == []
        assert decayed_day.summary is not None

    def test_day_summary_horizon(self):
        config = SpateConfig(
            codec="gzip-ref",
            decay=DecayPolicyConfig(
                keep_epochs=1, keep_highlight_days=1,
                keep_highlight_months_days=10_000,
            ),
        )
        dfs, index, module, __ = build(config)
        decay = DecayModule(dfs=dfs, index=index, config=config.decay)
        for epoch in range(3 * EPOCHS_PER_DAY):
            module.ingest(snapshot_for(epoch))
        report = decay.run()
        assert report.day_summaries_evicted >= 1
        assert index.day_nodes()[0].summary is None
        # Month summary still intact.
        assert index.month_nodes()[0].summary is not None

    def test_policy_horizons(self):
        policy = EvictOldestIndividuals(DecayPolicyConfig(keep_epochs=10))
        assert policy.leaf_horizon_epoch(100) == 91

    def test_describe_policy(self):
        text = describe_policy(DecayPolicyConfig())
        assert "Evict Oldest Individuals" in text

    def test_empty_index_decay_is_noop(self):
        config = SpateConfig(codec="gzip-ref")
        dfs, index, module, __ = build(config)
        decay = DecayModule(dfs=dfs, index=index, config=config.decay)
        report = decay.run()
        assert report.leaves_evicted == 0


# ----------------------------------------------------------------------
# Typed-channel ingest: cells -> channels in one pass (PR 15)
# ----------------------------------------------------------------------


def _typed_snapshot(epoch: int) -> Snapshot:
    snap = snapshot_for(epoch)
    nms = Table(name="NMS", columns=["ts", "cellid", "kpi", "val"])
    for i in range(25):
        nms.append([str(epoch), f"C{i % 3:03d}", ("drops", "rssi")[i % 2], str(i - 4)])
    snap.add_table(nms)
    snap.add_table(Table(name="EMPTY", columns=["a", "b"], rows=[]))
    return snap


class _PickByTable:
    """Stand-in codec selector: a fixed codec per table, so one snapshot
    exercises the channel fan-out and the payload fan-out together."""

    def __init__(self, picks: dict[str, str]) -> None:
        self.picks = picks
        self.observed: list[tuple[str, bytes]] = []

    def observe(self, table, payload):
        self.observed.append((table, payload))

    def choose(self, table, payload):
        from repro.compression.autotune import CodecChoice

        return CodecChoice(codec=self.picks[table], dict_id=None, scores=())

    def dict_blob(self, dict_id):
        return None


class TestTypedChannelFusedPath:
    TYPED = SpateConfig(codec="typedchannel", layout="columnar")

    def _expected(self, snapshot, codec_name="typedchannel"):
        from repro.core.layout import serialize_table

        payloads = {
            name: serialize_table(table, "columnar")
            for name, table in snapshot.tables.items()
        }
        stored = {
            name: get_codec(codec_name).compress(payload)
            for name, payload in payloads.items()
        }
        return payloads, stored

    def test_stores_what_the_bytes_adapter_would(self):
        dfs, index, module, __ = build(self.TYPED)
        snapshot = _typed_snapshot(0)
        report = module.ingest(snapshot)
        payloads, stored = self._expected(snapshot)
        for name in snapshot.tables:
            assert dfs.read_file(module.leaf_path(0, name)) == stored[name]
        assert report.raw_bytes == sum(map(len, payloads.values()))
        assert report.compressed_bytes == sum(map(len, stored.values()))
        assert index.find_leaf(0).table_codecs == dict.fromkeys(
            snapshot.tables, "typedchannel"
        )
        # One task per column; no per-table compress task on this path.
        assert report.parallel_tasks == sum(
            len(table.columns) for table in snapshot.tables.values()
        )

    def test_ingest_never_decodes_a_column_it_just_encoded(self, monkeypatch):
        import repro.compression.columnar as columnar
        import repro.compression.typedchannel as typedchannel
        import repro.core.layout as layout
        from repro.core import Spate

        calls = []
        real = columnar.decode_column

        def counting(data, expected_cells=None):
            calls.append(len(data))
            return real(data, expected_cells=expected_cells)

        for module in (columnar, typedchannel, layout):
            monkeypatch.setattr(module, "decode_column", counting)
        spate = Spate(SpateConfig(
            codec="typedchannel", layout="columnar", executor="serial",
            decay=DecayPolicyConfig(enabled=False),
        ))
        for epoch in range(3):
            spate.ingest(_typed_snapshot(epoch))
        assert calls == []
        # The counter is live: reading a leaf back does decode.
        assert spate.read_table(1, "NMS").rows == _typed_snapshot(1).tables["NMS"].rows
        assert calls

    def test_auto_mode_tables_that_pick_typed_channels_store_the_same_bytes(self):
        picks = {"CDR": "typedchannel", "NMS": "gzip-ref", "EMPTY": "typedchannel"}
        config = SpateConfig(codec="auto", layout="columnar")
        dfs = SimulatedDFS()
        index = TemporalIndex()
        selector = _PickByTable(picks)
        module = IncremenceModule(
            dfs=dfs, index=index, codec=get_codec(config.static_codec),
            config=config, selector=selector,
        )
        snapshot = _typed_snapshot(0)
        report = module.ingest(snapshot)
        payloads, __ = self._expected(snapshot)
        leaf = index.find_leaf(0)
        assert leaf.table_codecs == picks
        assert list(leaf.table_paths) == list(snapshot.tables)  # DFS write order
        for name, codec_name in picks.items():
            assert dfs.read_file(leaf.table_paths[name]) == get_codec(
                codec_name
            ).compress(payloads[name])
        # The selector still samples every serialized payload.
        assert selector.observed == list(payloads.items())
        assert report.raw_bytes == sum(map(len, payloads.values()))

    def test_auto_mode_with_only_typed_channels_to_pick(self):
        from repro.core import Spate
        from repro.core.config import AutotuneConfig

        auto = Spate(SpateConfig(
            codec="auto", layout="columnar", executor="serial",
            autotune=AutotuneConfig(candidates=("typedchannel",)),
            decay=DecayPolicyConfig(enabled=False),
        ))
        static = Spate(SpateConfig(
            codec="typedchannel", layout="columnar", executor="serial",
            decay=DecayPolicyConfig(enabled=False),
        ))
        for epoch in range(2):
            left = auto.ingest(_typed_snapshot(epoch))
            right = static.ingest(_typed_snapshot(epoch))
            assert (left.raw_bytes, left.stored_bytes) == (right.raw_bytes, right.stored_bytes)
            for name in ("CDR", "NMS", "EMPTY"):
                assert auto.dfs.read_file(
                    auto.index.find_leaf(epoch).table_paths[name]
                ) == static.dfs.read_file(
                    static.index.find_leaf(epoch).table_paths[name]
                )

    def test_other_codecs_over_columnar_are_untouched(self):
        config = SpateConfig(codec="gzip-ref", layout="columnar")
        dfs, __, module, __ = build(config)
        snapshot = _typed_snapshot(0)
        report = module.ingest(snapshot)
        payloads, stored = self._expected(snapshot, "gzip-ref")
        for name in snapshot.tables:
            assert dfs.read_file(module.leaf_path(0, name)) == stored[name]
        assert report.raw_bytes == sum(map(len, payloads.values()))

    def test_snapshot_without_tables(self):
        auto = SpateConfig(codec="auto", layout="columnar")
        auto_index = TemporalIndex()
        auto_module = IncremenceModule(
            dfs=SimulatedDFS(), index=auto_index,
            codec=get_codec(auto.static_codec), config=auto,
            selector=_PickByTable({}),
        )
        __, typed_index, typed_module, __ = build(self.TYPED)
        for index, module in ((typed_index, typed_module), (auto_index, auto_module)):
            report = module.ingest(Snapshot(epoch=0))
            assert (report.raw_bytes, report.compressed_bytes) == (0, 0)
            assert index.find_leaf(0).table_paths == {}
