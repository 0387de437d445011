"""Golden digests: the bytes a seeded day leaves on the DFS are pinned.

Every differential suite compares two code paths of the *same* commit;
none of them notices when both drift together.  These digests were
captured from the commit before the typed-channel write path was fused
(PR 15) and must hold on every later one: a stored leaf, a WAL record
or a checkpoint that changes by one byte is an on-disk format change,
and a PR that means to make one says so by updating the digest here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Spate, SpateConfig
from repro.core.config import DecayPolicyConfig, DurabilityConfig
from repro.telco import TelcoTraceGenerator, TraceConfig

FORMATS = [("gzip-ref", "row"), ("typedchannel", "columnar")]

#: (codec, layout) -> (sha256 over every stored leaf, Σ raw_bytes,
#: Σ stored_bytes) of one seeded day (scale 0.01, seed 7).
GOLDEN_DAY = {
    ("gzip-ref", "row"): (
        "d81a45389e052f7362bc464c4b3cdef49c795a18e9c60a35fa1a90b19a52d906",
        2679710,
        410437,
    ),
    ("typedchannel", "columnar"): (
        "a7d41bccbbcd27402bb55c4e3f60a4f4da0367cee3a5250af3a6dfa26a74047a",
        735113,
        748608,
    ),
}

#: (codec, layout) -> sha256 over the WAL and checkpoint files a seeded
#: durable, decaying week (scale 0.002, seed 7) leaves behind.  Every
#: logged record carries its snapshot's highlight summary, so this
#: also pins ``summarize_snapshot``'s output, key order included.
GOLDEN_WEEK_META = {
    ("gzip-ref", "row"): "4d1b268b025dc4276f9c1dd87501d14d21f538ac59e337579759ee5f7e9c5118",
    ("typedchannel", "columnar"): "445365b0ca4e2d993612886b2234537036abae63d361cce9a1b2247be311f211",
}


def _store(codec: str, layout: str, scale: float, **settings):
    generator = TelcoTraceGenerator(TraceConfig(scale=scale, days=7, seed=7))
    spate = Spate(SpateConfig(codec=codec, layout=layout, executor="serial", **settings))
    spate.register_cells(generator.cells_table())
    return generator, spate


def _seeded_day(codec: str, layout: str) -> tuple[str, int, int]:
    generator, spate = _store(
        codec, layout, 0.01, decay=DecayPolicyConfig(enabled=False)
    )
    leaves = hashlib.sha256()
    raw_bytes = stored_bytes = 0
    for epoch in range(48):
        stats = spate.ingest(generator.snapshot(epoch))
        raw_bytes += stats.raw_bytes
        stored_bytes += stats.stored_bytes
        paths = spate.index.find_leaf(epoch).table_paths
        for table in sorted(paths):
            leaves.update(spate.dfs.read_file(paths[table]))
    return leaves.hexdigest(), raw_bytes, stored_bytes


def _seeded_durable_week(codec: str, layout: str) -> str:
    generator, spate = _store(
        codec, layout, 0.002,
        durability=DurabilityConfig(
            enabled=True, wal_sync="epoch", checkpoint_interval_epochs=16
        ),
        decay=DecayPolicyConfig(enabled=True, keep_epochs=96),
    )
    for epoch in range(7 * 48):
        spate.ingest(generator.snapshot(epoch))
    spate.finalize()
    meta = hashlib.sha256()
    for path in sorted(spate.dfs.list_dir("/spate/meta")):
        meta.update(path.encode("utf-8"))
        meta.update(spate.dfs.read_file(path))
    return meta.hexdigest()


@pytest.mark.parametrize("codec,layout", FORMATS)
def test_seeded_day_stores_the_pinned_leaves(codec, layout):
    assert _seeded_day(codec, layout) == GOLDEN_DAY[(codec, layout)]


@pytest.mark.parametrize("codec,layout", FORMATS)
def test_seeded_durable_week_logs_the_pinned_wal_and_checkpoints(codec, layout):
    assert _seeded_durable_week(codec, layout) == GOLDEN_WEEK_META[(codec, layout)]
