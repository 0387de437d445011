"""Shard RPC client: deadlines, bounded retries, breakers, failover.

The robustness core of the shard layer.  Every coordinator -> worker
call goes through :meth:`ShardClient.call`, which layers, in order:

- a **per-shard circuit breaker** — after ``breaker_threshold``
  consecutive failures the breaker opens and sheds the next
  ``breaker_cooldown_rpcs`` calls to that shard without touching it
  (deterministic RPC-counted cooldown, no wall clock), then half-opens;
- a **per-call deadline slice** — each attempt is bounded by
  ``rpc_timeout_ms`` *and* whatever remains of the query's
  ``deadline_ms`` budget (one :class:`DeadlineBudget` spans the whole
  scatter-gather, so slow shards eat the same budget the unsharded
  deadline path charges);
- **bounded retries** with exponential backoff + full jitter, sharing
  :class:`~repro.core.retry.RetryPolicy` / ``RetryBudget`` with the
  DFS transient-write path so both retry surfaces meter alike.

Failover across a group's replica chain lives in the coordinator; this
module decides only whether one shard's call succeeds, retries, or
fails fast.  Two transports: ``"inline"`` executes on the calling
thread with *modeled* backoff (deterministic, used by tests and the
differential gate) and ``"socket"`` reaches each worker process
through its :class:`~repro.shard.transport.SocketShardProxy`, with real
wall-clock timeouts and backoff.

Only :class:`~repro.errors.ShardError` subclasses count as RPC
failures.  Application errors — bad SQL, a quarantined leaf in strict
mode — pass through untouched: retrying a deterministic answer would
only burn budget.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.config import ShardConfig
from repro.core.retry import RetryBudget, RetryPolicy
from repro.errors import ShardError, ShardTimeoutError, ShardUnavailableError


class DeadlineBudget:
    """One query's wall-clock budget, shared by every RPC it fans out.

    ``None``/0 milliseconds means unlimited.  The shard layer charges
    its per-call slices against this single budget, so a sharded query
    with ``deadline_ms=200`` spends those 200 ms across all shards —
    the same contract the unsharded deadline path enforces.
    """

    def __init__(self, deadline_ms: int | None) -> None:
        self._expires = (
            time.monotonic() + deadline_ms / 1000.0 if deadline_ms else None
        )

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def remaining_s(self) -> float | None:
        """Seconds left, clamped at 0; None when unlimited."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def remaining_ms(self) -> int | None:
        """Whole milliseconds left (at least 1 while unexpired), for
        forwarding as a store-level ``deadline_ms``."""
        remaining = self.remaining_s()
        if remaining is None:
            return None
        return max(1, int(remaining * 1000)) if remaining > 0 else 1


class CircuitBreaker:
    """Consecutive-failure breaker with an RPC-counted cooldown.

    Opens after ``threshold`` consecutive failures; while open it sheds
    the next ``cooldown_rpcs`` calls (each shed consumes one cooldown
    token, so recovery needs no clock and stays deterministic), then
    half-opens and lets one probe call through.
    """

    def __init__(self, threshold: int, cooldown_rpcs: int) -> None:
        self.threshold = threshold
        self.cooldown_rpcs = cooldown_rpcs
        self.failures = 0
        self.shed_remaining = 0
        self.trips = 0

    @property
    def open(self) -> bool:
        return self.shed_remaining > 0

    def allow(self) -> bool:
        """May the next call proceed?  Sheds consume cooldown tokens."""
        if self.shed_remaining > 0:
            self.shed_remaining -= 1
            return False
        return True

    def on_success(self) -> None:
        self.failures = 0

    def on_failure(self) -> None:
        self.failures += 1
        if self.threshold and self.failures >= self.threshold:
            self.trips += 1
            self.shed_remaining = self.cooldown_rpcs
            self.failures = 0


class ShardCounters:
    """Running totals of the shard layer's robustness machinery,
    mirrored into :class:`~repro.core.metrics.WarehouseMetrics`."""

    def __init__(self, budget: RetryBudget) -> None:
        self._budget = budget
        self._lock = threading.Lock()
        self.rpcs = 0
        self.retries = 0
        self.failovers = 0
        self.breaker_trips = 0
        self.heartbeat_misses = 0
        self.shards_skipped = 0
        self.recoveries = 0
        self.groups_routed = 0

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    @property
    def retry_budget_spent(self) -> int:
        return self._budget.spent

    @property
    def retry_budget_exhausted(self) -> int:
        return self._budget.exhausted_hits


def failure_reason(exc: BaseException) -> str:
    """Normalize an RPC failure for CoverageReport.shards_skipped."""
    if isinstance(exc, ShardTimeoutError):
        return "timeout"
    if "breaker" in str(exc):
        return "breaker_open"
    if isinstance(exc, ShardUnavailableError):
        return "dead"
    return "error"


class ShardClient:
    """Deadline-sliced, retrying, breaker-guarded calls to workers."""

    def __init__(
        self,
        workers: dict[int, object],
        config: ShardConfig,
        budget: RetryBudget | None = None,
    ) -> None:
        self.workers = workers
        self.config = config
        self.policy = RetryPolicy(max_attempts=config.rpc_retries)
        self.budget = budget or RetryBudget(config.rpc_retry_budget)
        self.counters = ShardCounters(self.budget)
        self.breakers = {
            shard_id: CircuitBreaker(
                config.breaker_threshold, config.breaker_cooldown_rpcs
            )
            for shard_id in workers
        }
        self._rng = random.Random(config.seed)
        #: Backoff the inline transport charged as modeled time instead
        #: of sleeping (keeps seeded runs deterministic and fast).
        self.modeled_backoff_s = 0.0
        #: The socket transport has a real wall clock: retries actually
        #: sleep, timeouts actually expire.
        self._wall_clock = config.transport == "socket"
        #: Test/chaos hook: called as ``(shard_id, method)`` right
        #: before each attempt is invoked — lets the chaos harness kill
        #: a shard mid-scatter at an exact RPC count.
        self.before_invoke = None

    def close(self) -> None:
        for worker in self.workers.values():
            closer = getattr(worker, "close", None)
            if callable(closer):
                closer()

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def heartbeat(self) -> dict[int, bool]:
        """Ping every shard once (no retries — a miss is the signal).

        Returns shard -> healthy.  Misses feed the failure counters
        and the breaker exactly like failed data RPCs, so a shard that
        stops answering heartbeats trips its breaker and gets failed
        over before any query wastes its deadline on it.
        """
        health: dict[int, bool] = {}
        for shard_id in sorted(self.workers):
            try:
                self.call(shard_id, "ping", retry=False)
                health[shard_id] = True
            except ShardError:
                self.counters.inc("heartbeat_misses")
                health[shard_id] = False
        return health

    # ------------------------------------------------------------------
    # The call path
    # ------------------------------------------------------------------

    def call(
        self,
        shard_id: int,
        method: str,
        *args,
        deadline: DeadlineBudget | None = None,
        retry: bool = True,
        **kwargs,
    ):
        """Invoke ``method`` on one shard with the full robustness stack.

        Raises:
            ShardUnavailableError: dead worker, or breaker open.
            ShardTimeoutError: per-call slice or query budget exhausted.
        """
        breaker = self.breakers[shard_id]
        attempt = 0
        while True:
            if not breaker.allow():
                raise ShardUnavailableError(
                    f"shard {shard_id}: circuit breaker open "
                    f"({breaker.shed_remaining} sheds remaining)"
                )
            if deadline is not None and deadline.expired():
                raise ShardTimeoutError(
                    f"shard {shard_id}: query deadline exhausted "
                    f"before {method}"
                )
            self.counters.inc("rpcs")
            try:
                result = self._invoke(shard_id, method, args, kwargs, deadline)
            except ShardError:
                trips_before = breaker.trips
                breaker.on_failure()
                if breaker.trips > trips_before:
                    self.counters.inc("breaker_trips")
                attempt += 1
                if (
                    not retry
                    or attempt > self.policy.max_attempts
                    or (deadline is not None and deadline.expired())
                    or not self.budget.try_spend()
                ):
                    raise
                self.counters.inc("retries")
                backoff = self.policy.backoff_s(attempt, self._rng)
                if self._wall_clock:
                    time.sleep(backoff)
                else:
                    self.modeled_backoff_s += backoff
                continue
            breaker.on_success()
            return result

    def _invoke(self, shard_id, method, args, kwargs, deadline):
        if self.before_invoke is not None:
            self.before_invoke(shard_id, method)
        worker = self.workers[shard_id]
        if not getattr(worker, "alive", True):
            raise ShardUnavailableError(f"shard {shard_id} is dead")
        remote = getattr(worker, "invoke_rpc", None)
        if remote is not None:
            # Socket transport: the proxy applies the timeout slice at
            # the socket itself; errors already arrive as ShardErrors.
            return remote(method, args, kwargs, self._timeout_s(deadline))
        return getattr(worker, method)(*args, **kwargs)

    def _timeout_s(self, deadline: DeadlineBudget | None) -> float:
        """Per-call slice: rpc_timeout_ms capped by the query budget."""
        timeout_s = self.config.rpc_timeout_ms / 1000.0
        if deadline is not None:
            remaining = deadline.remaining_s()
            if remaining is not None:
                timeout_s = min(timeout_s, remaining)
        return timeout_s


__all__ = [
    "CircuitBreaker",
    "DeadlineBudget",
    "ShardClient",
    "ShardCounters",
    "failure_reason",
]
