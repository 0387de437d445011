"""Socket shard transport: workers as real OS processes.

The ``"socket"`` transport runs each :class:`~repro.shard.worker.
ShardWorker` inside its own process, serving the full worker RPC
surface over localhost TCP with one JSON object per line — the same
framing :mod:`repro.server.tcp` uses, with values lowered through
:mod:`repro.shard.wire`.  Three pieces:

- :func:`start_worker_process` — fork one worker process; the child
  binds an ephemeral port, reports it back over a pipe, and serves
  until terminated.  The process owns its group stores, so it survives
  the coordinator: a new :class:`~repro.shard.coordinator.ShardedSpate`
  can attach to the same endpoints and keep answering (the
  coordinator-restart chaos drill does exactly that).
- :class:`WorkerServer` — the in-process serving loop: per-connection
  reader threads, one dispatch lock (a worker process serves its
  stores serially).
- :class:`SocketShardProxy` — the coordinator-side stand-in for a
  ``ShardWorker``.  :class:`~repro.shard.rpc.ShardClient` calls it
  through :meth:`invoke_rpc` with the per-call deadline slice; plain
  attribute access (``proxy.kill()``, replayed mutations) dispatches
  remotely too, so the whole coordinator surface — chaos verbs
  included — works unchanged over sockets.

Connection failures surface as ``ShardUnavailableError`` and socket
timeouts as ``ShardTimeoutError``, so the existing deadline-budget /
retry / circuit-breaker / failover stack applies to socket workers
exactly as it does to in-process ones.  Worker-side application errors
cross the wire by class (see :mod:`repro.shard.wire`) and are
re-raised as themselves — never retried.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading

from repro.core.config import SpateConfig
from repro.errors import ShardError, ShardTimeoutError, ShardUnavailableError
from repro.shard import wire
from repro.shard.key import groups_for_shard
from repro.shard.worker import ShardWorker

#: One RPC frame (request or response) may not exceed this many bytes.
#: Sub-snapshots dominate; 64 MiB is ~100x the chaos-drill payloads.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HOST = "127.0.0.1"


class WorkerServer:
    """Serve one ShardWorker's RPC surface over a listening socket."""

    def __init__(self, worker: ShardWorker, listener: socket.socket) -> None:
        self._worker = worker
        self._listener = listener
        #: Group stores are not concurrency-safe; one dispatch at a
        #: time models the process's single serving lane.
        self._dispatch_lock = threading.Lock()

    def serve_forever(self) -> None:
        while True:
            try:
                conn, __ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while True:
                line = stream.readline(MAX_FRAME_BYTES)
                if not line:
                    return
                response = self._handle(wire.loads(line))
                stream.write(wire.dumps(response))
                stream.flush()
        except (OSError, ValueError):
            return
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:
                pass

    def _handle(self, request: dict) -> dict:
        request_id = request.get("id")
        method = request.get("method", "")
        try:
            if method.startswith("_") or not method:
                raise ShardError(f"unknown rpc method {method!r}")
            fn = getattr(self._worker, method, None)
            if not callable(fn):
                raise ShardError(f"unknown rpc method {method!r}")
            args = wire.decode_value(request.get("args", []))
            kwargs = wire.decode_value(request.get("kwargs", {}))
            with self._dispatch_lock:
                result = fn(*args, **kwargs)
            return {
                "id": request_id,
                "ok": True,
                "result": wire.encode_value(result),
            }
        except Exception as exc:
            return {"id": request_id, "ok": False, "error": wire.encode_error(exc)}


def _worker_main(shard_id: int, config: SpateConfig, conn) -> None:
    """Child-process entry: build the worker, report the port, serve."""
    sharding = config.sharding
    worker = ShardWorker(
        shard_id,
        config,
        groups_for_shard(
            shard_id,
            sharding.shards,
            sharding.region_groups,
            sharding.group_replication,
        ),
    )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((_HOST, 0))
    listener.listen(16)
    conn.send(listener.getsockname()[1])
    conn.close()
    WorkerServer(worker, listener).serve_forever()


def start_worker_process(
    shard_id: int, config: SpateConfig
) -> tuple[multiprocessing.Process, int]:
    """Fork one worker process; returns (process, port) once the child
    is listening.  The process is a daemon: it dies with the Python
    interpreter, but survives any coordinator *object* — which is the
    restart-survival property the socket transport exists for."""
    parent_conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_worker_main,
        args=(shard_id, config, child_conn),
        daemon=True,
        name=f"spate-shard-{shard_id}",
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(30.0):
        process.terminate()
        raise ShardUnavailableError(
            f"shard {shard_id}: worker process did not report a port"
        )
    port = parent_conn.recv()
    parent_conn.close()
    return process, port


class SocketShardProxy:
    """Coordinator-side handle on one socket worker.

    Keeps a single persistent connection (reconnecting lazily after
    failures) and serializes request/response pairs under a lock so
    concurrent coordinator threads cannot interleave frames.
    """

    #: The RPC layer's local liveness probe; real liveness is whatever
    #: the remote worker answers (``ping`` raises when it played dead).
    alive = True

    def __init__(self, shard_id: int, host: str, port: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._stream = None
        self._socket: socket.socket | None = None
        self._next_id = 0

    # -- connection management -----------------------------------------

    def _connect(self) -> None:
        if self._stream is not None:
            return
        try:
            sock = socket.create_connection((self.host, self.port), timeout=5.0)
        except OSError as exc:
            raise ShardUnavailableError(
                f"shard {self.shard_id}: cannot connect to "
                f"{self.host}:{self.port} ({exc})"
            ) from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._socket = sock
        self._stream = sock.makefile("rwb")

    def _drop_connection(self) -> None:
        """After any transport fault the request/response pairing is
        unknowable; start over on a fresh connection."""
        stream, sock = self._stream, self._socket
        self._stream = None
        self._socket = None
        for closeable in (stream, sock):
            if closeable is not None:
                try:
                    closeable.close()
                except OSError:
                    pass

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    # -- the RPC path ---------------------------------------------------

    def invoke_rpc(self, method: str, args, kwargs, timeout_s: float | None):
        """One request/response exchange with a per-call timeout slice
        (:class:`~repro.shard.rpc.ShardClient` computes the slice from
        ``rpc_timeout_ms`` and the query's deadline budget)."""
        with self._lock:
            self._connect()
            self._next_id += 1
            request = wire.dumps(
                {
                    "id": self._next_id,
                    "method": method,
                    "args": wire.encode_value(list(args)),
                    "kwargs": wire.encode_value(dict(kwargs)),
                }
            )
            try:
                self._socket.settimeout(timeout_s)
                self._stream.write(request)
                self._stream.flush()
                line = self._stream.readline(MAX_FRAME_BYTES)
            except socket.timeout:
                self._drop_connection()
                raise ShardTimeoutError(
                    f"shard {self.shard_id}: {method} exceeded its "
                    f"{(timeout_s or 0) * 1000:.0f} ms slice"
                ) from None
            except OSError as exc:
                self._drop_connection()
                raise ShardUnavailableError(
                    f"shard {self.shard_id}: connection failed during "
                    f"{method} ({exc})"
                ) from None
            if not line:
                self._drop_connection()
                raise ShardUnavailableError(
                    f"shard {self.shard_id}: worker closed the connection "
                    f"during {method}"
                )
        response = wire.loads(line)
        if response.get("ok"):
            return wire.decode_value(response.get("result"))
        raise wire.decode_error(response.get("error") or {})

    def __getattr__(self, name: str):
        """Any worker method not defined locally dispatches remotely —
        replayed mutations and chaos verbs (``kill``, ``restart``) use
        plain attribute calls."""
        if name.startswith("_"):
            raise AttributeError(name)

        def remote(*args, **kwargs):
            return self.invoke_rpc(name, args, kwargs, None)

        remote.__name__ = name
        return remote


__all__ = [
    "MAX_FRAME_BYTES",
    "SocketShardProxy",
    "WorkerServer",
    "start_worker_process",
]
