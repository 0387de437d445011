"""Parallel, pruned query execution must be invisible in the answers.

Three contracts from the read-path redesign:

- **identity** — fanning leaf decodes out over any executor backend and
  pruning leaves via day summaries must leave exploration answers
  byte-identical to the serial, unpruned reference path;
- **deadlines** — ``deadline_ms`` + ``partial_ok`` still cancel cleanly
  under a parallel scan: skipped epochs are itemized exactly and no
  worker threads leak beyond the shared pool;
- **decay safety** — pruning stays sound after decay and fungus rewrite
  leaves underneath their (now superset) day summaries.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.query.explore as explore_mod
from repro.engine.executor import get_executor
from repro.errors import QueryDeadlineError
from repro.spatial.geometry import BoundingBox

PARALLEL_BACKENDS = ["thread", "process"]
ALL_BACKENDS = ["serial", *PARALLEL_BACKENDS]


def configure(spate, backend: str, pruning: bool):
    """Point an existing warehouse at another executor / pruning mode."""
    spate.config = dataclasses.replace(
        spate.config, executor=backend, query_pruning=pruning
    )
    spate.executor = get_executor(backend, workers=2)
    return spate


def answer(result):
    """Everything a caller can observe from an exploration answer."""
    return (
        result.columns,
        result.records,
        {
            attr: (s.count, s.total, s.minimum, s.maximum)
            for attr, s in sorted(result.aggregates.items())
        },
    )


def centered_box(area, fx: float, fy: float, fw: float) -> BoundingBox:
    return BoundingBox(
        area.min_x + fx * area.width,
        area.min_y + fy * area.height,
        min(area.min_x + (fx + fw) * area.width, area.max_x),
        min(area.min_y + (fy + fw) * area.height, area.max_y),
    )


class TestParallelPrunedIdentity:
    """Parallel + pruned answers equal the serial unpruned reference."""

    @given(
        fx=st.floats(0.0, 0.8),
        fy=st.floats(0.0, 0.8),
        fw=st.floats(0.05, 0.4),
        first=st.integers(0, 40),
        span=st.integers(0, 10),
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_box_queries_identical_across_backends(
        self, spate_day, fx, fy, fw, first, span
    ):
        last = min(first + span, 47)
        box = centered_box(spate_day.area, fx, fy, fw)

        configure(spate_day, "serial", pruning=False)
        reference = spate_day.explore("CDR", ("downflux",), box, first, last)
        assert not reference.coverage.epochs_pruned

        for backend in ALL_BACKENDS:
            configure(spate_day, backend, pruning=True)
            result = spate_day.explore("CDR", ("downflux",), box, first, last)
            assert answer(result) == answer(reference), backend
            assert result.coverage.complete
            served = set(result.coverage.epochs_served)
            pruned = set(result.coverage.epochs_pruned)
            assert not served & pruned
            assert served | pruned == set(reference.coverage.epochs_served)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_full_window_scan_identical(self, spate_day, backend):
        configure(spate_day, "serial", pruning=False)
        reference = spate_day.explore("CDR", ("upflux", "duration_s"), None, 0, 47)
        configure(spate_day, backend, pruning=True)
        result = spate_day.explore("CDR", ("upflux", "duration_s"), None, 0, 47)
        assert answer(result) == answer(reference)
        assert result.scan_stats.backend == backend

    def test_scan_stats_account_for_every_leaf(self, spate_day):
        configure(spate_day, "thread", pruning=True)
        box = centered_box(spate_day.area, 0.0, 0.0, 0.25)
        result = spate_day.explore("CDR", ("downflux",), box, 0, 47)
        stats = result.scan_stats
        assert stats.leaves_scanned + stats.leaves_pruned == 48
        if stats.leaves_scanned:
            assert stats.bytes_decompressed > 0 or stats.cache_hits > 0


class TestDeadlineUnderParallelScan:
    """deadline_ms + partial_ok cancellation with a fanned-out decode."""

    @pytest.fixture()
    def ticking_clock(self, monkeypatch):
        """Deterministic monotonic clock: one second per observation."""
        ticks = itertools.count(start=0.0, step=1.0)
        fake = types.SimpleNamespace(monotonic=lambda: next(ticks))
        monkeypatch.setattr(explore_mod, "time", fake)
        return fake

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_partial_deadline_itemizes_exactly(
        self, spate_day, ticking_clock, backend
    ):
        configure(spate_day, backend, pruning=True)
        result = spate_day.explore(
            "CDR", ("downflux",), None, 0, 47,
            deadline_ms=10_000, partial_ok=True,
        )
        coverage = result.coverage
        assert coverage.deadline_hit
        assert not coverage.complete
        served = set(coverage.epochs_served)
        skipped = set(coverage.epochs_skipped)
        assert skipped, "the ticking clock must expire mid-scan"
        assert set(coverage.epochs_skipped.values()) == {"deadline"}
        assert not served & skipped
        assert served | skipped == set(range(48))
        # The partial answer is a prefix: every served record belongs to
        # an epoch before every skipped one (epoch-order gatekeeping).
        if served and skipped:
            assert max(served) < min(skipped)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_strict_deadline_raises(self, spate_day, ticking_clock, backend):
        configure(spate_day, backend, pruning=True)
        with pytest.raises(QueryDeadlineError):
            spate_day.explore(
                "CDR", ("downflux",), None, 0, 47, deadline_ms=10_000
            )

    def test_no_worker_threads_leak(self, spate_day, ticking_clock):
        configure(spate_day, "thread", pruning=True)
        spate_day.explore(  # warm the shared pool
            "CDR", ("downflux",), None, 0, 5, partial_ok=True
        )
        before = threading.active_count()
        for _ in range(5):
            spate_day.explore(
                "CDR", ("downflux",), None, 0, 47,
                deadline_ms=10_000, partial_ok=True,
            )
        # Pools are shared per (kind, workers): repeated cancelled
        # queries must reuse the same two workers, never stack new ones.
        assert threading.active_count() <= before

    def test_deadline_answer_is_a_served_prefix_of_full_answer(
        self, spate_day, monkeypatch
    ):
        # Scan tick budgets until one expires mid-decode (after the
        # gatekeeping pass but before the last chunk), so part of the
        # window is served and the rest is cancelled.
        configure(spate_day, "thread", pruning=True)
        partial = None
        for budget_ms in range(48_000, 60_000, 1_000):
            ticks = itertools.count(start=0.0, step=1.0)
            fake = types.SimpleNamespace(monotonic=lambda: next(ticks))
            monkeypatch.setattr(explore_mod, "time", fake)
            candidate = spate_day.explore(
                "CDR", ("downflux",), None, 0, 47,
                deadline_ms=budget_ms, partial_ok=True,
            )
            if 0 < len(candidate.coverage.epochs_served) < 48:
                partial = candidate
                break
        assert partial is not None, "no budget expired mid-decode"
        served = partial.coverage.epochs_served
        configure(spate_day, "serial", pruning=False)
        full = spate_day.explore(
            "CDR", ("downflux",), None, min(served), max(served)
        )
        assert answer(partial) == answer(full)


class TestZonePruningIdentity:
    """Typed-channel zone-map pruning must be invisible in SQL answers:
    pruning on (zone gate + selective decode active) equals pruning off
    (full decode), across backends, and still after decay + fungus."""

    @pytest.fixture()
    def typed_day(self, tiny_generator, tiny_snapshots):
        from repro.core import Spate, SpateConfig

        spate = Spate(SpateConfig(
            codec="typedchannel", layout="columnar",
            # No leaf cache: a warm cache would serve decoded tables
            # before the zone gate, leaving the property untested.
            leaf_cache_bytes=0,
        ))
        spate.register_cells(tiny_generator.cells_table())
        for snapshot in tiny_snapshots:
            spate.ingest(snapshot)
        spate.finalize()
        return spate

    @given(
        threshold=st.integers(-10, 800),
        op=st.sampled_from(["=", "<", "<=", ">", ">="]),
        column=st.sampled_from(["duration_s", "upflux", "downflux"]),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_zone_pruned_sql_equals_full_decode(
        self, typed_day, threshold, op, column
    ):
        sql = (
            f"SELECT call_type, COUNT(*) AS n, SUM({column}) AS total "
            f"FROM CDR WHERE {column} {op} {threshold} GROUP BY call_type"
        )
        configure(typed_day, "serial", pruning=False)
        reference = typed_day.sql(sql)
        for backend in ALL_BACKENDS:
            configure(typed_day, backend, pruning=True)
            result = typed_day.sql(sql)
            assert result.columns == reference.columns, backend
            assert result.rows == reference.rows, backend

    @pytest.fixture()
    def typed_decayed(self, typed_day):
        report = typed_day.decay_groups(
            older_than_epoch=30, keep_fraction=0.2
        )
        assert report.leaves_rewritten > 0
        return typed_day

    @given(
        threshold=st.integers(0, 700),
        cell_suffix=st.integers(0, 30),
    )
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_zone_pruning_sound_after_decay_and_fungus(
        self, typed_decayed, threshold, cell_suffix
    ):
        typed_day = typed_decayed
        sql = (
            "SELECT cell_id, COUNT(*) AS n FROM CDR "
            f"WHERE duration_s >= {threshold} "
            f"AND cell_id != 'C{cell_suffix:05d}' GROUP BY cell_id"
        )
        configure(typed_day, "serial", pruning=False)
        reference = typed_day.sql(sql)
        configure(typed_day, "thread", pruning=True)
        result = typed_day.sql(sql)
        assert result.columns == reference.columns
        assert result.rows == reference.rows

    def test_zone_gate_actually_fires_on_selective_query(self, typed_day):
        configure(typed_day, "thread", pruning=True)
        typed_day.sql(
            "SELECT COUNT(*) FROM CDR WHERE duration_s >= 400"
        )
        stats = typed_day.last_scan_stats
        assert stats.leaves_zone_pruned > 0
        assert stats.channel_bytes_skipped > 0

    def test_explore_box_identity_with_typed_leaves(self, typed_day):
        box = centered_box(typed_day.area, 0.1, 0.1, 0.3)
        configure(typed_day, "serial", pruning=False)
        reference = typed_day.explore("CDR", ("downflux",), box, 0, 47)
        for backend in ALL_BACKENDS:
            configure(typed_day, backend, pruning=True)
            result = typed_day.explore("CDR", ("downflux",), box, 0, 47)
            assert answer(result) == answer(reference), backend


class TestPruningIsDecaySafe:
    """Summaries outlive decay/fungus as supersets: pruning stays sound."""

    @pytest.fixture()
    def decayed(self, spate_day):
        report = spate_day.decay_groups(older_than_epoch=30, keep_fraction=0.2)
        assert report.leaves_rewritten > 0
        return spate_day

    @given(
        fx=st.floats(0.0, 0.7),
        fy=st.floats(0.0, 0.7),
        fw=st.floats(0.1, 0.3),
    )
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_box_pruning_after_fungus(self, decayed, fx, fy, fw):
        box = centered_box(decayed.area, fx, fy, fw)
        configure(decayed, "serial", pruning=False)
        reference = decayed.explore("CDR", ("downflux",), box, 0, 47)
        configure(decayed, "thread", pruning=True)
        result = decayed.explore("CDR", ("downflux",), box, 0, 47)
        assert answer(result) == answer(reference)

    def test_sql_predicate_pruning_after_fungus(self, decayed):
        sql = (
            "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS total "
            "FROM CDR WHERE duration_s >= 300 GROUP BY call_type"
        )
        configure(decayed, "serial", pruning=False)
        reference = decayed.sql(sql)
        configure(decayed, "thread", pruning=True)
        result = decayed.sql(sql)
        assert result.columns == reference.columns
        assert result.rows == reference.rows

    def test_deadline_truncated_result_never_poisons_cache(
        self, spate_day, monkeypatch
    ):
        """Regression: a deadline that expires mid-scan yields a partial
        answer; caching it would serve the truncation as complete to
        every later caller of the same window."""
        spate_day.config = dataclasses.replace(
            spate_day.config, query_cache_entries=8, executor="thread",
            query_pruning=True,
        )
        from repro.core.query_cache import QueryResultCache

        spate_day.query_cache = QueryResultCache(8)
        spate_day.executor = get_executor("thread", workers=2)

        ticks = itertools.count(start=0.0, step=1.0)
        fake = types.SimpleNamespace(monotonic=lambda: next(ticks))
        monkeypatch.setattr(explore_mod, "time", fake)
        partial = spate_day.explore(
            "CDR", ("downflux",), None, 0, 47,
            deadline_ms=10_000, partial_ok=True,
        )
        assert not partial.coverage.complete
        assert len(spate_day.query_cache) == 0

        monkeypatch.undo()
        full = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        assert full.coverage.complete
        assert spate_day.query_cache.hits == 0  # partial was never served
        assert len(full.records) > len(partial.records)

    def test_cache_put_refuses_incomplete_coverage_directly(self):
        from repro.core.query_cache import QueryResultCache

        class Result:
            def __init__(self, coverage):
                self.coverage = coverage

        class Coverage:
            def __init__(self, complete):
                self.complete = complete

        cache = QueryResultCache(4)
        cache.put("k1", 0, Result(Coverage(complete=False)))
        assert cache.get("k1", 0) is None
        cache.put("k2", 0, Result(Coverage(complete=True)))
        assert cache.get("k2", 0) is not None
        # Dict-shaped coverage (the SQL loaders' form): skipped epochs
        # or a tripped deadline both disqualify.
        cache.put("k3", 0, Result({"epochs_skipped": {3: "deadline"}}))
        assert cache.get("k3", 0) is None
        cache.put("k4", 0, Result({"deadline_hit": True}))
        assert cache.get("k4", 0) is None
        cache.put("k5", 0, Result({"epochs_skipped": {}, "deadline_hit": False}))
        assert cache.get("k5", 0) is not None

    def test_index_version_invalidates_query_cache_on_decay(self, spate_day):
        spate_day.config = dataclasses.replace(
            spate_day.config, query_cache_entries=8
        )
        from repro.core.query_cache import QueryResultCache

        spate_day.query_cache = QueryResultCache(8)
        first = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        again = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        assert answer(again) == answer(first)
        assert spate_day.query_cache.hits == 1

        spate_day.decay_groups(older_than_epoch=30, keep_fraction=0.2)
        after = spate_day.explore("CDR", ("downflux",), None, 0, 47)
        assert spate_day.query_cache.hits == 1  # stale entry not served
        assert len(after.records) <= len(first.records)


def observe(spate):
    """Every read form a typed leaf's residency can serve: the column
    scan (vectorized SQL), the row scan, and explore — over whatever is
    stored right now.  Projected scans promise only the columns they
    name (the rest are blank or real, depending on what served them)."""
    last = max(spate.ingested_epochs(), default=0)
    box = centered_box(spate.area, 0.1, 0.1, 0.6)
    names, data = spate.read_columns(
        "CDR", 0, last, columns=["cell_id", "duration_s"]
    )
    row_names, rows = spate.read_rows("CDR", 0, last, columns=["call_type"])
    call_type = row_names.index("call_type") if rows else 0
    return (
        spate.sql(
            "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS t "
            "FROM CDR WHERE duration_s >= 60 GROUP BY call_type"
        ).rows,
        names,
        [data[names.index(c)] for c in ("cell_id", "duration_s") if c in names],
        spate.read_columns("NMS", 0, last),
        row_names,
        [row[call_type] for row in rows],
        answer(spate.explore("CDR", ("downflux", "duration_s"), box, 0, last)),
        answer(spate.explore("NMS", ("val",), None, 0, last)),
    )


class TestResidencySoundness:
    """A typed leaf's parsed header and decoded channels live in the leaf
    cache; a scan served from them must be indistinguishable from one
    that re-reads and re-decodes every leaf, whatever rewrote, purged or
    recovered the leaves in between."""

    @staticmethod
    def _config(codec: str, leaf_cache_bytes: int):
        from repro.core import SpateConfig
        from repro.core.config import (
            AutotuneConfig,
            DecayPolicyConfig,
            DurabilityConfig,
        )

        return SpateConfig(
            codec=codec, layout="columnar", executor="serial",
            leaf_cache_bytes=leaf_cache_bytes,
            decay=DecayPolicyConfig(enabled=True, keep_epochs=6),
            durability=DurabilityConfig(enabled=True),
            autotune=AutotuneConfig(recompact_after_epochs=2),
        )

    @pytest.mark.parametrize("codec", ["typedchannel", "auto"])
    def test_property_warm_scan_equals_cache_off_scan(
        self, tiny_generator, tiny_snapshots, codec
    ):
        from repro.core import Spate

        configs = {
            "warm": self._config(codec, 16 * 1024 * 1024),
            "cold": self._config(codec, 0),
        }

        @given(
            ops=st.lists(
                st.sampled_from(
                    ["ingest", "ingest", "decay", "fungus", "recompact", "reopen"]
                ),
                min_size=3,
                max_size=9,
            )
        )
        @settings(max_examples=6, deadline=None)
        def run(ops):
            stores = {}
            for name, config in configs.items():
                stores[name] = Spate(config)
                stores[name].register_cells(tiny_generator.cells_table())
            # The busy afternoon: leaves big enough for every codec to matter.
            feed = iter(tiny_snapshots[24:])
            for op in ["ingest", "ingest", *ops]:
                if op == "ingest":
                    snapshot = next(feed)
                for name, spate in list(stores.items()):
                    frontier = max(spate.ingested_epochs(), default=0)
                    if op == "ingest":
                        spate.ingest(snapshot)
                    elif op == "decay":
                        spate.run_decay()
                    elif op == "fungus":
                        spate.decay_groups(
                            older_than_epoch=frontier, keep_fraction=0.5
                        )
                    elif op == "recompact":
                        spate.recompact()
                    else:  # kill: only the DFS survives
                        stores[name] = Spate.open(configs[name], dfs=spate.dfs)
                reference = observe(stores["cold"])
                assert observe(stores["warm"]) == reference, (op, "filling")
                assert observe(stores["warm"]) == reference, (op, "resident")
            assert stores["cold"].leaf_cache is None

        run()

    def test_warm_typed_store_is_really_served_from_residency(
        self, tiny_generator, tiny_snapshots
    ):
        from repro.core import Spate

        spate = Spate(self._config("typedchannel", 16 * 1024 * 1024))
        spate.register_cells(tiny_generator.cells_table())
        for snapshot in tiny_snapshots[24:28]:
            spate.ingest(snapshot)
        first = observe(spate)
        before = spate.metrics.query_bytes_decompressed
        assert observe(spate) == first
        assert spate.metrics.query_bytes_decompressed == before
        assert spate.metrics.query_channels_from_cache > 0
        assert spate.metrics.query_header_cache_hits > 0

    def test_recompaction_to_another_codec_drops_header_and_channels(
        self, tiny_generator, tiny_snapshots
    ):
        """The hazard: a typed-channel header left resident over a blob
        recompaction rewrote under another codec would plan a channel
        decode of bytes that are no longer channels."""
        from repro.core import Spate, SpateConfig
        from repro.core.config import AutotuneConfig, DecayPolicyConfig

        spate = Spate(SpateConfig(
            codec="typedchannel", layout="columnar", executor="serial",
            decay=DecayPolicyConfig(enabled=False),
            autotune=AutotuneConfig(
                candidates=("gzip-ref", "bz2-ref"), recompact_after_epochs=2
            ),
        ))
        spate.register_cells(tiny_generator.cells_table())
        for snapshot in tiny_snapshots[24:30]:
            spate.ingest(snapshot)
        sql = "SELECT cell_id, COUNT(*) AS n FROM CDR GROUP BY cell_id"
        reference = spate.sql(sql).rows
        assert spate.sql(sql).rows == reference
        cache = spate.leaf_cache
        # (Epoch 24 holds the planner's schema probe as a full Table.)
        assert cache.has_header(25, "CDR")
        assert cache.resident_channels(25, "CDR") == {"cell_id"}

        report = spate.recompact()
        assert 25 in report.rewritten_epochs
        assert spate.index.find_leaf(25).codec_for("CDR") != "typedchannel"
        for epoch in report.rewritten_epochs:
            assert not cache.has_header(epoch, "CDR")
            assert cache.resident_channels(epoch, "CDR") == set()
        # The rewritten leaves decode under their new codec; the young
        # ones recompaction left alone are still served from residency.
        assert spate.sql(sql).rows == reference
        assert cache.has_header(29, "CDR")
        # ... and a wider scan, which cannot be served from the resident
        # channel alone, reads the new blobs and still agrees.
        wide = "SELECT cell_id, SUM(duration_s) AS t FROM CDR GROUP BY cell_id"
        spate.config = dataclasses.replace(spate.config, leaf_cache_bytes=0)
        assert spate.sql(wide).columns == ["cell_id", "t"]
