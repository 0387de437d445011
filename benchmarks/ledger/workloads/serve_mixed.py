"""``serve_mixed``: reads beside writes under arrival-time load.

A ``SpateService`` (two concurrent queries) over a ``.row`` store
pre-loaded with 24 hours runs inside the benchmark's own asyncio loop.
One feeder appends the following epochs through ``IngestSession.append``
at two snapshots a second while an **open-loop** generator issues the
seeded ``repro.server.simulate`` query mix (45 % CDR explore, 20 % NMS
explore, 35 % SQL; 12-epoch window ending at the acknowledged frontier)
at two fixed rates, ``lo`` then ``hi`` (:data:`RATES`).  Each request is
timed from when it was *due*; generator lateness is reported.  It is
open-loop because dashboard users are independent: a slow system
receives the same load, and its queue can grow.

The rates are shares of the *measured* closed-loop capacity of this
service on the reference box — 117 q/s (116-119 over three seeds; one
client or four give the same: everything shares one GIL) — so that
``hi`` runs it near 70 % busy, where requests overlap, the admission
queue forms and readers contend, and ``lo`` near 30 %, where they
seldom do.  The traced run measures that capacity again
(``server.closed_loop_capacity_qps``) and reports each rate as a share
of it, so a baseline shows whether the load still loads the system.

The live feed runs over the day's plateau (13:00-23:30 of the generated
day): the 12-epoch window then holds 11-15 thousand records whichever
epoch the frontier has reached.  Fed across midnight instead, the window
shrinks fivefold and the same rate is 70 % busy at one end of a phase
and 20 % at the other.

Admission, the reader pool, the RW lock against the single ingest
worker, leaf-cache invalidation by live ingest and response building
only run here.  ``run_simulation`` is not reused for the timing: its
as-fast-as-possible replay has no fixed rate to compare across commits.

``.typed`` is not served: probed at 50 q/s it saturates (p95 > 500 ms),
which makes every latency a function of the phase length.  Its twin
store answers the same classes by direct call — timed before the
service starts, for this workload's share of the format-generic
metrics, and once the frontier has quiesced as the oracle: served ==
direct ``.row`` == direct ``.typed``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import statistics
import time

from repro.core import Spate
from repro.server import QueryRequest, ServerConfig, SpateService
from repro.server.simulate import WorkloadConfig, build_schedule
from repro.server.tcp import TcpClient, start_tcp_server

from ledger import stats
from ledger.harness import (
    SQL_CLASSES,
    IngestTally,
    Op,
    Recorder,
    digest_response,
    explore_round,
    generate,
    site_traffic,
    sql_op,
    store_config,
    top_decile_duration,
)
from ledger.trace import END, NAME, OP, START
from ledger.workloads.base import Pass, ReadCounters, Workload, park_heap

_perf = time.perf_counter

#: Offered load, queries a second: 0.30 and 0.68 of the 117 q/s the
#: service completes closed-loop on the reference box (module docstring).
RATES = {"lo": 35.0, "hi": 80.0}
#: Shares of ``--seconds``: the direct rounds, then the lo and hi phases.
DIRECT_SHARE = 0.3
PHASE_SHARE = {"lo": 0.25, "hi": 0.45}
FEED_PER_S = 2.0
WINDOW = 12
LATENCY_LIMIT_MS = 250.0
TENANTS = ("dashboard", "analyst", "batch")
MAX_CONCURRENT = 2
#: The closed-loop capacity probe of a traced run: this many clients
#: (more add nothing under one GIL), each sending its next request when
#: the previous one answers, for this long.
CAPACITY_CLIENTS = MAX_CONCURRENT
CAPACITY_SECONDS = 1.5


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "open-loop 35 then 80 q/s (0.3 and 0.7 of measured capacity) beside 2 snapshots/s of "
        "live ingest: admission, reader pool, RW lock, cache invalidation; before it, direct reads, both formats"
    )

    scale = 0.01
    #: 13:00 of day 1 is the first epoch pre-loaded; 24 hours of them.
    first_epoch = 26
    preload_epochs = 48

    def setup(self) -> None:
        if self.smoke:
            self.preload_epochs = 12
        serve_s = self.seconds * (PHASE_SHARE["lo"] + PHASE_SHARE["hi"])
        self.live_epochs = math.ceil(serve_s * FEED_PER_S) + 1
        total = self.preload_epochs + self.live_epochs
        self.data = generate(
            self.scale, range(self.first_epoch, self.first_epoch + total), self.seed
        )
        self.generate_s = self.data.generate_s
        self.preload = self.data.snapshots[: self.preload_epochs]
        self.live = self.data.snapshots[self.preload_epochs:]
        # The typed twin holds every epoch; windows are explicit, so it
        # answers for whatever frontier the served store reaches.
        self.typed_tally = IngestTally()
        self.twin = self._store("typed", self.data.snapshots, self.typed_tally)
        requests = math.ceil(sum(RATES[p] * self.seconds * PHASE_SHARE[p] for p in RATES))
        schedule = build_schedule(WorkloadConfig(
            seed=self.seed, epochs=48, queries_per_epoch=requests / 48 + 1,
            tenants=TENANTS, deadline_ms=None, partial_ok=False, window_epochs=WINDOW,
        ))
        self.mix = [request for batch in schedule for request in batch]

    def _store(self, fmt: str, snapshots, tally: IngestTally) -> Spate:
        store = Spate(store_config(fmt, query_cache_entries=0))
        store.register_cells(self.data.cells)
        Recorder("setup").ingest(fmt, store, self.data, tally, snapshots)
        return store

    def config(self):
        return {
            "scale": self.scale,
            "first_epoch": self.first_epoch,
            "preload_epochs": self.preload_epochs,
            "live_epochs": self.live_epochs,
            "rates_qps": RATES,
            "phase_seconds": {p: self.seconds * PHASE_SHARE[p] for p in RATES},
            "feed_snapshots_per_s": FEED_PER_S,
            "window_epochs": WINDOW,
            "max_concurrent_queries": MAX_CONCURRENT,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "loop": "open",
        }

    # ------------------------------------------------------------------

    def measure(self, run: Pass) -> None:
        run.tallies = {"row": IngestTally(), "typed": self.typed_tally}
        store = self._store("row", self.preload, run.tallies["row"])
        self._direct_rounds(run, store)
        metered = dict(run.tracer.counts) if run.tracer is not None else None
        asyncio.run(self._serve(run, store))
        if metered is not None:
            run.count_fixed_part_since(metered)

    async def _serve(self, run: Pass, store: Spate) -> None:
        recorder, tracer = run.recorder, run.tracer
        service = SpateService(store, ServerConfig(
            max_concurrent_queries=MAX_CONCURRENT, max_queued_queries=100_000,
        ))
        service.start()
        session = service.ingest_session()
        frontier = [self.preload[-1].epoch]
        feed = iter(self.live)
        requests = iter(self.mix)
        phases: dict[str, dict] = {}

        async def feeder(start: float, duration: float, acks: list[float]) -> None:
            for i in range(int(duration * FEED_PER_S)):
                await asyncio.sleep(max(0.0, start + i / FEED_PER_S - _perf()))
                snapshot = next(feed)
                recorder.attempted += 1
                sent = _perf()
                try:
                    ingested = await (await session.append(snapshot))
                except Exception as exc:
                    recorder.fail(f"append epoch {snapshot.epoch}: {exc}")
                    continue
                acks.append((_perf() - sent) * 1000.0)
                frontier[0] = ingested.epoch

        async def phase(name: str) -> None:
            rate, duration = RATES[name], self.seconds * PHASE_SHARE[name]
            count = int(rate * duration)
            state = phases[name] = {
                "latency": [], "by_class": {}, "acks": [], "late": [], "outstanding": [],
                "missed": 0, "inflight_max": 0,
            }
            if tracer is not None:
                tracer.default_op = tracer.register_op(
                    workload=self.name, fmt="row", phase=name, root="service.query",
                    round=0,
                )
            inflight = [0]

            async def one(request: QueryRequest, due: float) -> None:
                recorder.attempted += 1
                inflight[0] += 1
                state["inflight_max"] = max(state["inflight_max"], inflight[0])
                response = await service.query(request)
                inflight[0] -= 1
                latency = (_perf() - due) * 1000.0
                recorder.op_wall_s += latency / 1000.0
                recorder.timed_ops += 1
                state["latency"].append(latency)
                state["by_class"].setdefault(_request_class(request), []).append(latency)
                if not response.ok:
                    recorder.fail(f"{name}: {response.error_code}: {response.error}")
                if not response.ok or latency > LATENCY_LIMIT_MS:
                    state["missed"] += 1

            start = _perf()
            feeding = asyncio.create_task(feeder(start, duration, state["acks"]))
            tasks = []
            for i in range(count):
                due = start + i / rate
                wait = due - _perf()
                if wait > 0:
                    await asyncio.sleep(wait)
                state["late"].append((_perf() - due) * 1000.0)
                state["outstanding"].append(inflight[0])
                last = frontier[0]
                request = dataclasses.replace(
                    next(requests), first_epoch=last - WINDOW + 1, last_epoch=last
                )
                tasks.append(asyncio.create_task(one(request, due)))
            await asyncio.gather(*tasks)
            await feeding

        try:
            with run.tracing():
                for name in RATES:
                    await phase(name)
                await session.drain()  # quiesce: the frontier is now fixed
            await self._check_served(recorder, service, store, frontier[0])
            if run.detail:
                capacity = await self._closed_loop_capacity(service)
                run.layer["server.closed_loop_capacity_qps"] = capacity
                for name, rate in RATES.items():
                    run.layer[f"server.utilisation.{name}"] = rate / capacity
                run.layer["server.tcp_roundtrip_overhead_ms"] = await _tcp_overhead(
                    service, frontier[0]
                )
        finally:
            await session.close()
            await service.close()

        acknowledged = sum(len(state["acks"]) for state in phases.values())
        recorder.ingested_user_bytes = sum(
            self.data.user_bytes_by_epoch[s.epoch] for s in self.live[:acknowledged]
        )
        run.layer.update(_phase_metrics(phases))
        for name, state in phases.items():
            for metric in (f"server.pooled_p50_ms.{name}", f"serve_p95_ms.{name}",
                           f"server.p95_ms.{name}", f"server.generator_late_p95_ms.{name}"):
                run.counts[metric] = len(state["latency"])
            classes = state["by_class"].values()
            run.counts[f"serve_geomean_ms.{name}"] = (
                f"{min(map(len, classes))}/class x {len(classes)}"
            )
        # Acknowledgements of the hi phase alone.  An append waits for the
        # write lock when it meets a running query; pooled over both
        # phases half of them do, and the median of a half-and-half
        # mixture falls between its two modes (18-21 ms on one seed).
        acks = phases["hi"]["acks"]
        if acks:
            run.layer["serve_ingest_ack_p50_ms"] = statistics.median(acks)
            run.counts["serve_ingest_ack_p50_ms"] = len(acks)
        run.layer["server.rejected"] = store.metrics.requests_rejected
        run.layer["server.shed"] = store.metrics.requests_shed
        run.layer["server.ingest_queue_high_water"] = store.metrics.ingest_queue_depth_max
        if tracer is not None:
            for name in RATES:
                waits = [
                    (rec[END] - rec[START]) * 1000.0
                    for rec in tracer.spans
                    if rec[NAME] == "admission.admit"
                    and rec[OP] >= 0
                    and tracer.ops[rec[OP]].get("phase") == name
                ]
                run.layer[f"server.admission_wait_p50_ms.{name}"] = statistics.median(waits)
                run.counts[f"server.admission_wait_p50_ms.{name}"] = len(waits)

    async def _closed_loop_capacity(self, service) -> float:
        """Queries a second the service completes when
        :data:`CAPACITY_CLIENTS` clients each send their next request of
        the mix as soon as the previous one answers.  Windows step
        through the frontiers the phases saw, so the work per request is
        theirs; no ingest runs beside it.  Untimed and unverified: it
        sizes the load, it is not a result."""
        requests = itertools.cycle(self.mix)
        frontiers = itertools.cycle(snapshot.epoch for snapshot in self.live)
        deadline = _perf() + CAPACITY_SECONDS
        done = [0]

        async def client() -> None:
            while _perf() < deadline:
                last = next(frontiers)
                await service.query(dataclasses.replace(
                    next(requests), first_epoch=last - WINDOW + 1, last_epoch=last
                ))
                done[0] += 1

        start = _perf()
        await asyncio.gather(*(client() for _ in range(CAPACITY_CLIENTS)))
        return done[0] / (_perf() - start)

    async def _check_served(self, recorder, service, store, frontier: int) -> None:
        """Every distinct request of the mix, served at the quiesced
        frontier, must equal the direct call on the same store and on
        the typed twin."""
        distinct: dict[tuple, QueryRequest] = {}
        for request in self.mix:
            distinct.setdefault((request.op, request.table, request.sql, request.box), request)
        for key, request in list(distinct.items())[:24]:
            request = dataclasses.replace(
                request, first_epoch=frontier - WINDOW + 1, last_epoch=frontier
            )
            recorder.attempted += 1
            response = await service.query(request)
            if not response.ok:
                recorder.fail(f"quiesced {key}: {response.error}")
                continue
            recorder.file_digest(("served", key), "served", digest_response(response)[0])
            for source, target in (("direct.row", store), ("direct.typed", self.twin)):
                recorder.file_answer(("served", key), source, _direct(target, request))

    def _direct_rounds(self, run: Pass, store: Spate) -> None:
        """The mix's classes by direct call on both formats, over the
        window the first served request will see — the generic
        end-to-end metrics of this workload, and the ``.row`` ==
        ``.typed`` cross-check.  Before the service starts, not after:
        threads leave the heap laid out differently every run, and these
        millisecond ops then read 10 % apart on identical inputs."""
        recorder = run.recorder
        stores = {"row": store, "typed": self.twin}
        last = self.preload[-1].epoch
        first = last - WINDOW + 1
        # The mix's two statements plus the six standard classes: eight
        # medians under the geometric mean, so one class whose cost hangs
        # on the seed's data (long_calls prunes by zone map) moves it less.
        threshold = top_decile_duration(self.data.snapshots)
        sql_ops = [
            Op(cls, "sql", first, last, sql=text) for cls, text in MIX_SQL.items()
        ] + [sql_op(cls, first, last, threshold=threshold) for cls in SQL_CLASSES]
        sites = site_traffic(self.data.snapshots, store.cell_locations, first, last)
        recorder.warm_up(
            sql_ops + explore_round(self.seed, 0, 4, store.area, sites, first, last),
            stores, self.data.cells,
        )
        park_heap()  # the pre-loaded store and what the warm-up cached
        reads = ReadCounters(run, stores)
        budget = run.budget(share=DIRECT_SHARE)
        with run.tracing():
            while budget.another_round():
                ops = sql_ops + explore_round(
                    self.seed, budget.rounds, 8, store.area, sites, first, last
                )
                recorder.run_round(budget.rounds, ops, stores, self.data.cells)
                if budget.rounds == 1:
                    reads.end_round_one()
        run.rounds = budget.rounds
        reads.finish()



#: The two SQL statements of the ``repro.server.simulate`` mix (the
#: second with its middle threshold).
MIX_SQL = {
    "calls_by_type": "SELECT call_type, COUNT(*) AS calls FROM CDR GROUP BY call_type",
    "long_calls": "SELECT COUNT(*) AS long_calls FROM CDR WHERE duration_s >= 500",
}


def _direct(store, request: QueryRequest):
    from repro.spatial.geometry import BoundingBox

    if request.op == "sql":
        return store.sql(request.sql, request.first_epoch, request.last_epoch)
    box = BoundingBox(*request.box) if request.box is not None else None
    return store.explore(
        request.table, tuple(request.attributes), box,
        request.first_epoch, request.last_epoch,
    )


def _request_class(request: QueryRequest) -> str:
    """The mix's four request classes: an explore per table, and its
    two SQL statements (``long_calls`` at any of its thresholds)."""
    if request.op == "sql":
        return "long_calls" if "long_calls" in request.sql else "calls_by_type"
    return f"explore_{request.table.lower()}"


def _phase_metrics(phases: dict[str, dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, state in phases.items():
        latency = state["latency"]
        # The headline is the geometric mean of the per-class medians.
        # The pooled median of this mix (45 % cheap CDR explores, 55 %
        # requests five to ten times dearer) sits on the boundary
        # between the two: 3.8 ms or 8.4 ms on runs of one seed.
        medians = {
            cls: stats.percentile(values, 50) for cls, values in state["by_class"].items()
        }
        out[f"serve_geomean_ms.{name}"] = stats.geomean(list(medians.values()))
        for cls, value in medians.items():
            out[f"server.class_p50_ms.{cls}.{name}"] = value
        out[f"server.pooled_p50_ms.{name}"] = stats.percentile(latency, 50)
        if stats.tail_percentile(len(latency)) == 95:
            key = "serve_p95_ms.hi" if name == "hi" else "server.p95_ms.lo"
            out[key] = stats.percentile(latency, 95)
        out[f"server.inflight_max.{name}"] = state["inflight_max"]
        out[f"server.within_limit_share.{name}"] = 1.0 - state["missed"] / len(latency)
        out[f"server.generator_late_p95_ms.{name}"] = stats.percentile(state["late"], 95)
        # A backlog grows when the requests outstanding at send time in
        # the last quarter of the phase clearly exceed the second
        # quarter's.
        quarter = max(1, len(state["outstanding"]) // 4)
        early = statistics.fmean(state["outstanding"][quarter: 2 * quarter] or [0])
        final = statistics.fmean(state["outstanding"][-quarter:])
        out[f"server.backlog_growing.{name}"] = float(final > 2.0 * early + 2.0)
    return out


async def _tcp_overhead(service, frontier: int, reps: int = 20) -> float:
    """Idle server: ``TcpClient.request`` minus ``service.query`` on one
    cheap SQL — what the JSON-lines protocol and the socket add."""
    request = QueryRequest(
        op="sql", sql=MIX_SQL["long_calls"], first_epoch=frontier, last_epoch=frontier,
    )
    loop = asyncio.get_running_loop()
    server = await start_tcp_server(service)
    port = server.sockets[0].getsockname()[1]
    client = await loop.run_in_executor(None, TcpClient, "127.0.0.1", port)
    direct, over_tcp = [], []
    try:
        for rep in range(reps + 1):
            start = _perf()
            await service.query(request)
            mid = _perf()
            await loop.run_in_executor(None, client.request, request)
            if rep:  # rep 0 warms both paths
                direct.append((mid - start) * 1000.0)
                over_tcp.append((_perf() - mid) * 1000.0)
    finally:
        await loop.run_in_executor(None, client.close)
        server.close()
        await server.wait_closed()
    return statistics.median(over_tcp) - statistics.median(direct)
