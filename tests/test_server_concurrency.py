"""Thread-safety contracts behind the serving layer.

Two layers of guarantees:

- **shared structures** — :class:`LeafCache`, :class:`QueryResultCache`
  and :class:`WarehouseMetrics` take concurrent hits from every reader
  thread; a multi-thread stress pass must leave their invariants intact
  (byte accounting, LRU size bounds, counter totals) and leak no
  exceptions;
- **read-during-ingest** — worker threads querying fixed windows at or
  below the ingest frontier while an ingest session streams epochs must
  observe exactly the answers a quiesced re-run of the same queries
  produces, with no leaked exceptions — the reentrant RW lock makes
  concurrent exploration safe, not merely non-crashing.
"""

from __future__ import annotations

import threading

from repro.core import Spate, SpateConfig
from repro.core.leaf_cache import LeafCache, LeafDescriptor
from repro.core.metrics import WarehouseMetrics, percentile
from repro.core.query_cache import QueryResultCache
from repro.server import QueryRequest, ServerConfig, SpateServer

THREADS = 8
ROUNDS = 300


def run_threads(worker, n=THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise any failure."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    if errors:
        raise errors[0]
    return errors


def make_leaf(rows: int = 4):
    """(descriptor, {column: cells}) of one decoded leaf table."""
    cells = {
        "a": [str(i) for i in range(rows)],
        "b": [str(i * 2) for i in range(rows)],
    }
    return LeafDescriptor(("a", "b"), rows), cells


class TestLeafCacheThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = LeafCache(capacity_bytes=64 * 1024)

        def worker(index: int) -> None:
            for round_no in range(ROUNDS):
                epoch = (index * ROUNDS + round_no) % 32
                cache.put(epoch, "CDR", *make_leaf(), nbytes=1024)
                cache.get(epoch, "CDR", ("a",))
                cache.has_header(epoch, "CDR")
                if round_no % 17 == 0:
                    cache.invalidate_epoch(epoch)
                if round_no % 91 == 0:
                    cache.clear()
                len(cache)
                cache.current_bytes

        run_threads(worker)
        # Invariants survived: accounting never exceeds capacity and the
        # stats counters saw every probe.
        assert 0 <= cache.current_bytes <= 64 * 1024
        stats = cache.stats()
        assert stats.hits + stats.misses >= THREADS * ROUNDS

    def test_eviction_accounting_under_contention(self):
        # Capacity of 3 leaves: concurrent puts force constant LRU
        # eviction; byte accounting must stay exact.  (A 100-byte leaf
        # of two one-letter columns is 3 entries: 48 + 48 + 4.)
        cache = LeafCache(capacity_bytes=3 * 100)

        def worker(index: int) -> None:
            for round_no in range(ROUNDS):
                cache.put((index, round_no), "CDR", *make_leaf(), 100)

        run_threads(worker)
        charged = {"a": 48, "b": 48, None: 4}
        assert cache.current_bytes == sum(
            charged[key[2]] for key in cache._entries
        )
        assert cache.current_bytes <= 300 and len(cache) <= 9


class TestQueryCacheThreadSafety:
    def test_concurrent_put_get_clear(self):
        cache = QueryResultCache(capacity=16)

        def worker(index: int) -> None:
            for round_no in range(ROUNDS):
                key = ("sql", f"q{round_no % 24}")
                cache.put(key, version=1, result=[round_no, index])
                value = cache.get(key, version=1)
                # A hit must be a deep copy: mutating it cannot poison
                # the cached entry other threads read.
                if value is not None:
                    value.append("mutated")
                if round_no % 50 == 0:
                    cache.clear()
                len(cache)

        run_threads(worker)
        assert len(cache) <= 16
        for round_no in range(24):
            value = cache.get(("sql", f"q{round_no}"), version=1)
            if value is not None:
                assert "mutated" not in value

    def test_version_mismatch_is_safe_concurrently(self):
        cache = QueryResultCache(capacity=8)
        cache.put("k", version=1, result=["v1"])

        def worker(index: int) -> None:
            for round_no in range(ROUNDS):
                cache.put("k", version=round_no % 3, result=[round_no])
                cache.get("k", version=(round_no + 1) % 3)

        run_threads(worker)


class TestMetricsThreadSafety:
    def test_counters_sum_exactly(self):
        metrics = WarehouseMetrics()

        def worker(index: int) -> None:
            for round_no in range(ROUNDS):
                metrics.on_request_admitted(f"tenant-{index % 3}")
                metrics.on_request_done(float(round_no % 50), ok=True)
                metrics.on_request_rejected(shed=round_no % 2 == 0)
                metrics.on_ingest_enqueued(queue_depth=round_no % 5)
                metrics.on_query_cache(hit=round_no % 2 == 0)

        run_threads(worker)
        total = THREADS * ROUNDS
        assert metrics.requests_admitted == total
        assert metrics.requests_completed == total
        assert metrics.requests_rejected + metrics.requests_shed == total
        assert sum(metrics.tenant_queries.values()) == total
        assert metrics.ingest_queue_depth_max == 4
        # The latency reservoir kept every sample (total < cap) and the
        # percentile helper sees a coherent distribution.
        assert metrics.query_latency_ms(100.0) == 49.0
        assert 0.0 <= percentile(metrics._latency_samples_ms, 50.0) <= 49.0
        # summary() renders without tripping over concurrent updates.
        assert "serving admission:" in metrics.summary()


class TestReadDuringIngest:
    def test_queries_during_ingest_match_quiesced_rerun(
        self, tiny_generator, tiny_snapshots
    ):
        """The acceptance check: N reader threads explore fixed windows
        below the frontier while an ingest session streams epochs; every
        answer must be byte-identical to the same query re-run after
        quiesce, and no thread may leak an exception."""
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        total_epochs = 16
        snapshots = tiny_snapshots[:total_epochs]

        live_answers: dict[tuple, dict] = {}
        answers_lock = threading.Lock()
        reader_errors: list[BaseException] = []

        def reader(server, ready_epochs, stop, index):
            try:
                while not stop.is_set():
                    frontier = len(ready_epochs) - 1
                    if frontier < 1:
                        continue
                    # Fixed window entirely at/below the ingest frontier.
                    last = (index + frontier) % (frontier + 1)
                    first = max(0, last - 3)
                    request = QueryRequest(
                        op="explore",
                        tenant=f"reader-{index}",
                        table="CDR",
                        attributes=("downflux", "upflux"),
                        first_epoch=first,
                        last_epoch=last,
                    )
                    response = server.query(request, timeout=120)
                    assert response.ok, response.error
                    assert response.coverage["complete"] is True
                    with answers_lock:
                        live_answers[(first, last)] = {
                            "rows": response.rows,
                            "columns": response.columns,
                        }
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                reader_errors.append(exc)

        ready_epochs: list[int] = []
        stop = threading.Event()
        with SpateServer(
            spate, ServerConfig(max_concurrent_queries=4)
        ) as server:
            session = server.ingest_session()
            readers = [
                threading.Thread(
                    target=reader, args=(server, ready_epochs, stop, i)
                )
                for i in range(4)
            ]
            for thread in readers:
                thread.start()
            try:
                for snapshot in snapshots:
                    session.append(snapshot).result(timeout=120)
                    ready_epochs.append(snapshot.epoch)
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=120)
            session.close()

            assert not reader_errors, f"reader leaked: {reader_errors[0]!r}"
            assert not any(t.is_alive() for t in readers)
            assert live_answers, "no queries completed during ingest"

            # Quiesced re-run: identical windows must yield identical
            # bytes now that ingest has stopped.
            for (first, last), seen in live_answers.items():
                again = server.query(
                    QueryRequest(
                        op="explore",
                        table="CDR",
                        attributes=("downflux", "upflux"),
                        first_epoch=first,
                        last_epoch=last,
                    )
                )
                assert again.ok
                assert again.columns == seen["columns"]
                assert again.rows == seen["rows"], (
                    f"window [{first}, {last}] diverged between live and "
                    "quiesced execution"
                )
        assert spate.ingested_epochs() == list(range(total_epochs))

    def test_sql_during_ingest_is_exception_free(
        self, tiny_generator, tiny_snapshots
    ):
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        statement = (
            "SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type"
        )
        responses: list = []
        with SpateServer(spate) as server:
            session = server.ingest_session()
            acks = [session.append(s) for s in tiny_snapshots[:8]]

            def sql_reader(index: int) -> None:
                acks[min(index, len(acks) - 1)].result(timeout=120)
                responses.append(
                    server.query(
                        QueryRequest(
                            op="sql",
                            sql=statement,
                            first_epoch=0,
                            last_epoch=index,
                        ),
                        timeout=120,
                    )
                )

            run_threads(sql_reader, n=6)
            session.close()
        assert len(responses) == 6
        assert all(r.ok for r in responses), [
            (r.error_code, r.error) for r in responses if not r.ok
        ]


class TestSharedResidentChannels:
    def test_readers_never_mutate_shared_cell_lists(
        self, tiny_generator, tiny_snapshots
    ):
        """A typed leaf's decoded channels are cached as the very lists
        every reader is handed.  Two readers hammering every read form
        over a warm store must get the cold answers every time, and
        leave each resident list the same object with the same cells."""
        import sys

        spate = Spate(SpateConfig(
            codec="typedchannel", layout="columnar", executor="serial",
        ))
        spate.register_cells(tiny_generator.cells_table())
        for snapshot in tiny_snapshots[24:32]:
            spate.ingest(snapshot)

        def read_all():
            by_epoch = spate.read_columns_by_epoch(
                "CDR", 24, 31, columns=["cell_id", "duration_s"]
            )
            return (
                spate.sql(
                    "SELECT cell_id, COUNT(*) AS n, SUM(duration_s) AS t "
                    "FROM CDR WHERE duration_s >= 30 GROUP BY cell_id"
                ).rows,
                by_epoch,
                spate.read_columns("CDR", 24, 31, columns=["cell_id"]),
                spate.read_rows("CDR", 24, 31, columns=["duration_s"]),
                spate.explore(
                    "CDR", ("duration_s", "downflux"), None, 24, 31
                ).records,
            )

        reference = read_all()  # fills the cache
        assert read_all() == reference
        resident = {
            key: (entry[0], list(entry[0]))
            for key, entry in spate.leaf_cache._entries.items()
            if len(key) == 3 and key[2] is not None
        }
        assert len(resident) >= 8 * 2
        served = spate.metrics.query_channels_from_cache

        def reader(index: int) -> None:
            for __ in range(15):
                assert read_all() == reference

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(reader, n=2)
        finally:
            sys.setswitchinterval(interval)
        assert spate.metrics.query_channels_from_cache > served
        for key, (cells, frozen) in resident.items():
            assert spate.leaf_cache._entries[key][0] is cells, key
            assert cells == frozen, key
        stats = spate.leaf_cache.stats()
        assert spate.metrics.leaf_cache_hits == stats.hits
        assert spate.metrics.leaf_cache_misses == stats.misses
