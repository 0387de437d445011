"""The serving layer's request-path contracts.

- **admission** — per-tenant quotas and priorities: over-quota queueing
  is rejected with ``QuotaExceededError``, a full global waiting room
  sheds with ``ServerOverloadedError``, freed slots go to the highest
  priority waiter, and counters land in ``WarehouseMetrics``;
- **backpressure** — the bounded ingest queue parks waiting appenders
  and raises ``IngestBackpressureError`` on ``wait=False`` overflow;
- **deadlines** — time spent queueing is charged against the request's
  budget, so a request that starved in the queue fails (or degrades)
  with a ``deadline`` error code instead of running unbounded;
- **streaming** — ``explore_stream`` yields per-chunk partial results
  whose concatenation equals the unary answer;
- **wire** — requests/responses survive the JSON round-trip and the
  TCP front-end serves real queries over a socket.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core import Spate, SpateConfig
from repro.errors import (
    IngestBackpressureError,
    QuotaExceededError,
    ServerOverloadedError,
    SessionClosedError,
)
from repro.server import (
    AdmissionController,
    QueryRequest,
    QueryResponse,
    ServerConfig,
    SpateServer,
    TenantQuota,
)
from repro.server.service import SpateService
from repro.server.tcp import TcpClient, start_tcp_server

from tests.sql_reference import (
    Agg,
    Filter,
    InSubquery,
    QuerySpec,
    ScalarCompare,
    evaluate,
    render_sql,
)


def make_spate(tiny_generator, tiny_snapshots, epochs=6) -> Spate:
    spate = Spate(SpateConfig(codec="gzip-ref"))
    spate.register_cells(tiny_generator.cells_table())
    for snapshot in tiny_snapshots[:epochs]:
        spate.ingest(snapshot)
    return spate


@pytest.fixture()
def spate_six(tiny_generator, tiny_snapshots) -> Spate:
    return make_spate(tiny_generator, tiny_snapshots)


def explore_request(**overrides) -> QueryRequest:
    base = dict(
        op="explore",
        table="CDR",
        attributes=("downflux", "upflux"),
        first_epoch=0,
        last_epoch=5,
    )
    base.update(overrides)
    return QueryRequest(**base)


# ---------------------------------------------------------------------------
# Admission controller (pure asyncio, no warehouse)
# ---------------------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_fast_path_admits_up_to_cap(self):
        async def main():
            ctl = AdmissionController(max_concurrent=2)
            await ctl.admit("a")
            await ctl.admit("a")
            assert ctl.running_total == 2
            ctl.release("a")
            ctl.release("a")
            assert ctl.running_total == 0

        run(main())

    def test_waiters_run_when_slots_free(self):
        async def main():
            ctl = AdmissionController(max_concurrent=1)
            await ctl.admit("a")
            waiter = asyncio.ensure_future(ctl.admit("b"))
            await asyncio.sleep(0)
            assert ctl.waiting_total == 1
            ctl.release("a")
            await asyncio.wait_for(waiter, timeout=5)
            assert ctl.running_total == 1
            ctl.release("b")

        run(main())

    def test_priority_order(self):
        async def main():
            quotas = {
                "vip": TenantQuota(priority=10),
                "batch": TenantQuota(priority=1),
            }
            ctl = AdmissionController(max_concurrent=1, quotas=quotas)
            await ctl.admit("batch")
            low = asyncio.ensure_future(ctl.admit("batch"))
            await asyncio.sleep(0)
            high = asyncio.ensure_future(ctl.admit("vip"))
            await asyncio.sleep(0)
            ctl.release("batch")
            await asyncio.wait_for(high, timeout=5)
            assert not low.done(), "low-priority waiter must not jump the vip"
            ctl.release("vip")
            await asyncio.wait_for(low, timeout=5)
            ctl.release("batch")

        run(main())

    def test_global_queue_full_sheds(self):
        async def main():
            ctl = AdmissionController(max_concurrent=1, max_queued=1)
            await ctl.admit("a")
            waiter = asyncio.ensure_future(ctl.admit("a"))
            await asyncio.sleep(0)
            with pytest.raises(ServerOverloadedError):
                await ctl.admit("b")
            ctl.release("a")
            await asyncio.wait_for(waiter, timeout=5)
            ctl.release("a")

        run(main())

    def test_tenant_quota_rejects_only_that_tenant(self):
        async def main():
            quotas = {"greedy": TenantQuota(max_concurrent=1, max_queued=1)}
            ctl = AdmissionController(
                max_concurrent=1, max_queued=10, quotas=quotas
            )
            await ctl.admit("greedy")
            waiter = asyncio.ensure_future(ctl.admit("greedy"))
            await asyncio.sleep(0)
            with pytest.raises(QuotaExceededError):
                await ctl.admit("greedy")
            # Another tenant still queues fine.
            other = asyncio.ensure_future(ctl.admit("polite"))
            await asyncio.sleep(0)
            assert ctl.waiting_total == 2
            ctl.release("greedy")
            await asyncio.wait_for(waiter, timeout=5)
            ctl.release("greedy")
            await asyncio.wait_for(other, timeout=5)
            ctl.release("polite")

        run(main())

    def test_tenant_cap_does_not_block_other_tenants(self):
        async def main():
            quotas = {"capped": TenantQuota(max_concurrent=1)}
            ctl = AdmissionController(max_concurrent=4, quotas=quotas)
            await ctl.admit("capped")
            blocked = asyncio.ensure_future(ctl.admit("capped"))
            await asyncio.sleep(0)
            # A freed-unrelated-slot dispatch must skip the capped tenant
            # and still grant others.
            await asyncio.wait_for(ctl.admit("free"), timeout=5)
            assert not blocked.done()
            ctl.release("capped")
            await asyncio.wait_for(blocked, timeout=5)
            ctl.release("capped")
            ctl.release("free")

        run(main())

    def test_cancelled_waiter_releases_bookkeeping(self):
        async def main():
            ctl = AdmissionController(max_concurrent=1, max_queued=2)
            await ctl.admit("a")
            waiter = asyncio.ensure_future(ctl.admit("a"))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert ctl.waiting_total == 0
            ctl.release("a")
            await asyncio.wait_for(ctl.admit("b"), timeout=5)
            ctl.release("b")
            assert ctl.running_total == 0

        run(main())

    def test_metrics_feed(self):
        from repro.core.metrics import WarehouseMetrics

        async def main():
            metrics = WarehouseMetrics()
            ctl = AdmissionController(
                max_concurrent=1, max_queued=0, metrics=metrics
            )
            await ctl.admit("a")
            with pytest.raises(ServerOverloadedError):
                await ctl.admit("b")
            ctl.release("a")
            assert metrics.requests_admitted == 1
            assert metrics.requests_shed == 1

        run(main())


# ---------------------------------------------------------------------------
# Service: queries, deadlines, streaming
# ---------------------------------------------------------------------------


class TestService:
    def test_explore_matches_direct_call(self, spate_six):
        direct = spate_six.explore(
            "CDR", ("downflux", "upflux"), None, 0, 5
        )
        with SpateServer(spate_six) as server:
            response = server.query(explore_request())
        assert response.ok
        assert response.rows == [list(r) for r in direct.records]
        assert response.coverage["complete"] is True
        assert not response.partial

    def test_sql_matches_direct_call(self, spate_six):
        statement = "SELECT call_type, COUNT(*) AS n FROM CDR GROUP BY call_type"
        direct = spate_six.sql(statement)
        with SpateServer(spate_six) as server:
            response = server.query(QueryRequest(op="sql", sql=statement))
        assert response.ok
        assert response.columns == direct.columns
        assert response.rows == [list(r) for r in direct.rows]

    def test_queue_starved_request_gets_deadline_error(self, spate_six):
        with SpateServer(spate_six) as server:
            # Budget of 0ms is consumed before the warehouse is reached.
            response = server.query(explore_request(deadline_ms=0))
        assert not response.ok
        assert response.error_code == "deadline"

    def test_bad_request_codes(self, spate_six):
        with SpateServer(spate_six) as server:
            no_table = server.query(
                QueryRequest(op="explore", attributes=("downflux",))
            )
            no_sql = server.query(QueryRequest(op="sql"))
        assert (no_table.ok, no_table.error_code) == (False, "bad_request")
        assert (no_sql.ok, no_sql.error_code) == (False, "bad_request")

    def test_query_error_surfaces_as_query_code(self, spate_six):
        with SpateServer(spate_six) as server:
            response = server.query(
                QueryRequest(op="sql", sql="SELECT FROM nonsense !!")
            )
        assert not response.ok
        assert response.error_code == "query"

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT " + "(" * 400 + "1" + ")" * 400,
            "SELECT 1 FROM " + "(SELECT 1 FROM " * 300 + "CDR" + ") s" * 300,
        ],
        ids=["parentheses", "from-subqueries"],
    )
    def test_hostile_nesting_is_a_query_error(self, spate_six, statement):
        """The parser's depth limit is a typed error: the wire says
        ``query`` — never ``internal`` from an escaped RecursionError."""
        with SpateServer(spate_six) as server:
            response = server.query(QueryRequest(op="sql", sql=statement))
        assert not response.ok
        assert response.error_code == "query"
        assert "nests deeper than" in response.error

    def test_sql_subqueries_match_the_reference(self, spate_six):
        """Each subquery position through the served ``sql`` op returns
        what the naive reference computes over the stored rows."""
        tables = {
            name: spate_six.read_rows(name, 0, 5) for name in ("CDR", "NMS")
        }
        per_type = QuerySpec(
            table="CDR",
            select=(("CDR", "call_type"),),
            aggs=(Agg("COUNT"), Agg("SUM", "duration_s")),
            group_by=("call_type",),
        )
        specs = [
            QuerySpec(  # FROM (SELECT ...)
                table="S",
                source=per_type,
                select=(("S", "c0"), ("S", "a1")),
                filters=(Filter("S", "a0", ">", 0),),
            ),
            QuerySpec(  # IN (SELECT ...)
                table="CDR",
                select=(("CDR", "cell_id"), ("CDR", "duration_s")),
                in_filters=(
                    InSubquery(
                        "CDR",
                        "cell_id",
                        QuerySpec(
                            table="NMS",
                            select=(("NMS", "cellid"),),
                            filters=(Filter("NMS", "drops", ">", 0),),
                        ),
                    ),
                ),
            ),
            QuerySpec(  # op (SELECT ...)
                table="CDR",
                select=(("CDR", "call_type"), ("CDR", "duration_s")),
                scalar_filters=(
                    ScalarCompare(
                        "CDR",
                        "duration_s",
                        ">",
                        QuerySpec(table="CDR", aggs=(Agg("AVG", "duration_s"),)),
                    ),
                ),
            ),
        ]
        with SpateServer(spate_six) as server:
            for spec in specs:
                sql = render_sql(spec)
                response = server.query(QueryRequest(op="sql", sql=sql))
                want_columns, want_rows = evaluate(spec, tables)
                assert response.ok, (sql, response.error)
                assert response.columns == want_columns, sql
                assert response.rows == want_rows, sql
                assert response.rows, sql

    def test_metrics_op_reports_serving_counters(self, spate_six):
        with SpateServer(spate_six) as server:
            server.query(explore_request())
            response = server.query(QueryRequest(op="metrics"))
        assert response.ok
        assert "serving admission:" in response.extra["summary"]
        assert response.extra["admission"]["running"] == 0

    def test_stream_concatenation_equals_unary(self, spate_six):
        with SpateServer(spate_six) as server:
            unary = server.query(explore_request())
            chunks = list(
                server.stream_explore(
                    explore_request(op="explore_stream", chunk_epochs=2)
                )
            )
        assert all(c.ok for c in chunks)
        assert len(chunks) == 3
        assert chunks[-1].extra["final"] is True
        streamed_rows = [row for c in chunks for row in c.rows]
        assert streamed_rows == unary.rows
        served = sorted(
            epoch for c in chunks for epoch in c.coverage["epochs_served"]
        )
        assert served == sorted(unary.coverage["epochs_served"])

    def test_rejections_counted_in_metrics(self, tiny_generator, tiny_snapshots):
        spate = make_spate(tiny_generator, tiny_snapshots)
        config = ServerConfig(
            max_concurrent_queries=1,
            max_queued_queries=0,
            quotas={"t": TenantQuota(max_concurrent=1, max_queued=0)},
        )

        async def main():
            async with SpateService(spate, config) as service:
                block = asyncio.Event()
                release = asyncio.Event()

                async def blocker():
                    await service.admission.admit("t")
                    block.set()
                    await release.wait()
                    service.admission.release("t")

                task = asyncio.ensure_future(blocker())
                await block.wait()
                shed = await service.query(
                    explore_request(tenant="other")
                )
                release.set()
                await task
                return shed

        shed = asyncio.run(main())
        assert (shed.ok, shed.error_code) == (False, "overload")
        assert spate.metrics.requests_shed == 1


# ---------------------------------------------------------------------------
# Ingest sessions: ordering + backpressure
# ---------------------------------------------------------------------------


class TestIngestSession:
    def test_appends_ingest_in_order(self, tiny_generator, tiny_snapshots):
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        with SpateServer(spate) as server:
            session = server.ingest_session()
            acks = [session.append(s) for s in tiny_snapshots[:5]]
            stats = [a.result(timeout=60) for a in acks]
            session.close()
        assert all(s is not None for s in stats)
        assert spate.ingested_epochs() == [0, 1, 2, 3, 4]

    def test_nowait_overflow_raises_backpressure(
        self, tiny_generator, tiny_snapshots
    ):
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        config = ServerConfig(ingest_queue_depth=1)

        async def main():
            async with SpateService(spate, config) as service:
                session = service.ingest_session()
                # Flood the depth-1 queue faster than the worker drains.
                overflowed = False
                acks = []
                for snapshot in tiny_snapshots[:8]:
                    try:
                        acks.append(
                            await session.append(snapshot, wait=False)
                        )
                    except IngestBackpressureError:
                        overflowed = True
                        break
                await session.close()
                return overflowed

        assert asyncio.run(main()) is True
        assert spate.metrics.ingest_sheds >= 1

    def test_closed_session_rejects_appends(
        self, tiny_generator, tiny_snapshots
    ):
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())

        async def main():
            async with SpateService(spate) as service:
                session = service.ingest_session()
                await session.close()
                with pytest.raises(SessionClosedError):
                    await session.append(tiny_snapshots[0])

        asyncio.run(main())

    def test_close_finalize_closes_the_stream(
        self, tiny_generator, tiny_snapshots
    ):
        spate = Spate(SpateConfig(codec="gzip-ref"))
        spate.register_cells(tiny_generator.cells_table())
        with SpateServer(spate) as server:
            session = server.ingest_session()
            session.append(tiny_snapshots[0]).result(timeout=60)
            session.close(finalize=True)
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            spate.ingest(tiny_snapshots[1])


# ---------------------------------------------------------------------------
# Wire format + TCP
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_round_trip(self):
        request = explore_request(
            tenant="t9",
            box=(1.0, 2.0, 3.0, 4.0),
            deadline_ms=250,
            partial_ok=True,
        )
        again = QueryRequest.from_dict(request.to_dict())
        assert again == request

    def test_response_round_trip(self):
        response = QueryResponse(
            ok=True,
            columns=["epoch", "downflux"],
            rows=[["1", "22"]],
            aggregates={"downflux": {"count": 1, "total": 22}},
            coverage={"complete": True},
            partial=False,
            latency_ms=1.25,
            extra={"final": True},
        )
        again = QueryResponse.from_dict(response.to_dict())
        assert again.rows == response.rows
        assert again.extra == response.extra

    def test_malformed_requests_rejected(self):
        with pytest.raises(ValueError):
            QueryRequest.from_dict({"op": "drop_tables"})
        with pytest.raises(ValueError):
            QueryRequest.from_dict({"op": "explore", "box": [1, 2]})
        with pytest.raises(ValueError):
            QueryRequest.from_dict("not a dict")


class TestTcp:
    def test_tcp_round_trip(self, spate_six):
        import threading

        port_box: dict[str, int] = {}
        ready = threading.Event()
        done = threading.Event()

        def serve():
            async def main():
                async with SpateService(spate_six) as service:
                    server = await start_tcp_server(service)
                    port_box["port"] = server.sockets[0].getsockname()[1]
                    ready.set()
                    while not done.is_set():
                        await asyncio.sleep(0.02)
                    server.close()
                    await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)
        try:
            with TcpClient("127.0.0.1", port_box["port"]) as client:
                ping = client.request(QueryRequest(op="ping"))
                assert ping.ok and ping.extra["pong"] is True
                response = client.request(explore_request())
                assert response.ok and response.coverage["complete"]
                chunks = list(
                    client.stream(
                        explore_request(op="explore_stream", chunk_epochs=3)
                    )
                )
                assert [c.ok for c in chunks] == [True, True]
                assert chunks[-1].extra["final"] is True
                bad = client.request(QueryRequest(op="sql"))
                assert (bad.ok, bad.error_code) == (False, "bad_request")
        finally:
            done.set()
            thread.join(timeout=30)


# ---------------------------------------------------------------------------
# Deadline accounting
# ---------------------------------------------------------------------------


def test_remaining_deadline_shrinks_while_queued():
    from repro.server.service import _RequestDeadline

    deadline = _RequestDeadline(50)
    assert deadline.remaining_ms() <= 50
    time.sleep(0.06)
    assert deadline.remaining_ms() == 0
    assert _RequestDeadline(None).remaining_ms() is None
