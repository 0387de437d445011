"""The read forms are edge transposes of one column scan.

``read_columns_by_epoch`` is the only scan a store implements;
``read_columns`` concatenates it, ``read_rows_by_epoch`` transposes it
and ``read_rows`` does both.  Whatever ingest, decay, the fungus or
recompaction did to the leaves, and whatever the leaf cache holds, the
four must agree — on every store format, with the cache off, thrashing
and roomy, single-node and across shards.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Spate, SpateConfig
from repro.core.config import (
    AutotuneConfig,
    DecayPolicyConfig,
    ShardConfig,
)

FORMATS = {
    "row": ("gzip-ref", "row"),
    "typed": ("typedchannel", "columnar"),
    "auto": ("auto", "columnar"),
}
#: Off, far too small for one leaf's columns (constant eviction), roomy.
CACHES = (0, 24 * 1024, 16 * 1024 * 1024)
#: A projected scan promises only the columns it names.
PROJECTED = ["cell_id", "duration_s"]


def _config(fmt: str, cache_bytes: int, shards: int) -> SpateConfig:
    codec, layout = FORMATS[fmt]
    return SpateConfig(
        codec=codec, layout=layout, executor="serial",
        leaf_cache_bytes=cache_bytes,
        decay=DecayPolicyConfig(enabled=True, keep_epochs=6),
        autotune=AutotuneConfig(recompact_after_epochs=2),
        sharding=ShardConfig(
            shards=shards, group_replication=1, region_groups=4
        ),
    )


def _transpose(cells: list[list[str]]) -> list[list[str]]:
    return [list(row) for row in zip(*cells)]


def check_forms(store, table: str, columns=None):
    """Assert the four read forms of one scan agree; return the rows."""
    last = max(store.ingested_epochs(), default=0)
    names, rows = store.read_rows(table, 0, last, columns=columns)
    col_names, data = store.read_columns(table, 0, last, columns=columns)
    assert col_names == names
    assert _transpose(data) == rows
    by_names, by_epoch = store.read_rows_by_epoch(table, 0, last, columns=columns)
    assert by_names == names
    assert [row for __, chunk in by_epoch for row in chunk] == rows
    chunk_names, chunks = store.read_columns_by_epoch(
        table, 0, last, columns=columns
    )
    assert chunk_names == names
    assert [(e, _transpose(cells)) for e, cells in chunks] == by_epoch
    assert [e for e, __ in by_epoch] == sorted(e for e, __ in by_epoch)
    if columns is None:
        return names, rows
    wanted = [names.index(c) for c in columns if c in names]
    return names, [[row[i] for i in wanted] for row in rows]


@pytest.mark.parametrize("shards", [1, 3], ids=["single", "3-shard"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_property_read_forms_agree(tiny_generator, tiny_snapshots, fmt, shards):
    @given(
        ops=st.lists(
            st.sampled_from(["ingest", "ingest", "decay", "fungus", "recompact"]),
            min_size=2,
            max_size=6,
        )
    )
    # (A sharded store ingests every snapshot once per region group.)
    @settings(max_examples=3 if shards == 1 else 2, deadline=None)
    def run(ops):
        stores = [
            Spate.create(_config(fmt, cache_bytes, shards))
            for cache_bytes in CACHES
        ]
        try:
            for store in stores:
                store.register_cells(tiny_generator.cells_table())
            feed = iter(tiny_snapshots[24:])
            for op in ["ingest", "ingest", *ops]:
                if op == "ingest":
                    snapshot = next(feed)
                answers = []
                for store in stores:
                    frontier = max(store.ingested_epochs(), default=0)
                    if op == "ingest":
                        store.ingest(snapshot)
                    elif op == "decay":
                        store.run_decay()
                    elif op == "fungus":
                        store.decay_groups(
                            older_than_epoch=frontier, keep_fraction=0.5
                        )
                    elif shards == 1:  # recompaction is a single-node verb
                        store.recompact()
                    for __ in range(2):  # filling the cache, then from it
                        answers.append((
                            check_forms(store, "CDR"),
                            check_forms(store, "CDR", PROJECTED),
                            check_forms(store, "NMS"),
                        ))
                # ... and the cache never shows in an answer.
                assert all(answer == answers[0] for answer in answers), op
        finally:
            if shards > 1:
                for store in stores:
                    store.close()

    run()
