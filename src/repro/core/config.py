"""Configuration for the SPATE framework."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class HighlightsConfig:
    """Highlights-module settings (paper §V-B).

    A value is a *highlight* when its occurrence frequency falls below
    the threshold θ for the resolution level; each level can use its own
    θ ("lower thresholds for higher levels [of] resolution").
    """

    #: Frequency thresholds θ per level, as fractions of records.
    theta_day: float = 0.05
    theta_month: float = 0.02
    theta_year: float = 0.01
    #: Attributes to aggregate into highlight summaries per table.
    tracked_attributes: dict[str, list[str]] = field(
        default_factory=lambda: {
            "CDR": ["drop_flag", "result", "call_type", "upflux", "downflux", "duration_s"],
            "NMS": ["kpi", "val", "drops", "throughput_kbps"],
            "MR": ["rssi_dbm"],
        }
    )

    def theta_for_level(self, level: str) -> float:
        """Highlight threshold for a resolution level (day/month/year)."""
        thetas = {"day": self.theta_day, "month": self.theta_month, "year": self.theta_year}
        try:
            return thetas[level]
        except KeyError:
            raise ConfigError(f"no highlights threshold for level {level!r}") from None

    def __post_init__(self) -> None:
        for name in ("theta_day", "theta_month", "theta_year"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class DecayPolicyConfig:
    """Decaying-module settings (paper §V-C, data fungus).

    The default policy is the paper's "Evict Oldest Individuals": keep
    full-resolution snapshot leaves for ``keep_epochs`` ingestion
    cycles; beyond that, leaves are purged and queries fall back to the
    retained highlight aggregates.  Aggregates themselves decay after
    ``keep_highlight_days`` at day granularity (monthly/yearly summaries
    persist until their own horizons).
    """

    enabled: bool = True
    #: Full-resolution retention horizon, in ingestion cycles.
    keep_epochs: int = 48 * 365  # one year of 30-minute snapshots
    #: Day-level highlight retention horizon, in days.
    keep_highlight_days: int = 365 * 3
    #: Month-level highlight retention horizon, in days.
    keep_highlight_months_days: int = 365 * 10

    def __post_init__(self) -> None:
        if self.keep_epochs < 1:
            raise ConfigError("keep_epochs must be at least 1")
        if self.keep_highlight_days < 1:
            raise ConfigError("keep_highlight_days must be at least 1")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Storage fault-injection and self-healing settings.

    When ``enabled``, the facade attaches a seeded
    :class:`~repro.dfs.faults.FaultInjector` to the DFS (datanode
    crashes/restarts, silent block corruption, transient write
    failures) and runs a background-style :meth:`~repro.dfs.filesystem.
    SimulatedDFS.heal` pass — corruption scrub + re-replication — every
    ``heal_interval_epochs`` ingests.  All faults derive from ``seed``,
    so a chaos run is exactly reproducible.
    """

    enabled: bool = False
    seed: int = 2017
    #: Per-write probability of crashing one live datanode.
    crash_rate: float = 0.0
    #: Per-write, per-dead-node probability of a restart.
    restart_rate: float = 0.0
    #: Per-write probability of silently corrupting one stored replica.
    corruption_rate: float = 0.0
    #: Per-replica-store probability of a transient write failure.
    write_failure_rate: float = 0.0
    #: Transient-failure retries per replica store before rollback.
    max_write_retries: int = 3
    #: Crash injection pauses while this many nodes are already down.
    max_dead_nodes: int = 1
    #: Ingests between automatic heal passes (0 = only heal on demand).
    heal_interval_epochs: int = 8

    def __post_init__(self) -> None:
        for name in ("crash_rate", "restart_rate", "corruption_rate", "write_failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.max_write_retries < 0:
            raise ConfigError("max_write_retries must be non-negative")
        if self.max_dead_nodes < 0:
            raise ConfigError("max_dead_nodes must be non-negative")
        if self.heal_interval_epochs < 0:
            raise ConfigError("heal_interval_epochs must be non-negative")


#: Sentinel codec name enabling per-leaf adaptive codec selection.
AUTO_CODEC = "auto"


@dataclass(frozen=True)
class AutotuneConfig:
    """Adaptive per-leaf codec selection (``SpateConfig.codec="auto"``).

    At ingest the selector samples each table payload, scores every
    candidate codec on a bicriteria objective — compressed bytes
    weighted against compress+decompress latency (Farruggia et al.) —
    and stamps the winner into the leaf metadata, so the read path
    decodes self-describingly.  A rolling window of payload samples per
    table feeds the zstd dictionary trainer; trained dictionaries are
    persisted on the DFS and referenced by id from leaf metadata.
    """

    #: Codec names the selector scores.  Defaults to the stdlib-backed
    #: reference codecs (C-speed) plus the typed-channel columnar codec
    #: (zone-mapped channels — the candidate whose payoff shows up at
    #: *query* time, when selective scans prune and project against the
    #: header instead of decompressing whole leaves).
    candidates: tuple[str, ...] = (
        "gzip-ref",
        "bz2-ref",
        "7z-ref",
        "typedchannel",
    )
    #: Per-payload sample cap for scoring, bytes (payloads at or below
    #: the cap are scored exactly).
    sample_bytes: int = 16 * 1024
    #: Latency term weight in the bicriteria score: 0.0 picks purely by
    #: density; larger values trade stored bytes for codec speed.  The
    #: units are "equivalent compressed bytes per microsecond of
    #: round-trip latency per sampled byte".
    latency_weight: float = 0.0
    #: Codec used where no per-leaf choice applies (summaries, untagged
    #: fallback when no warehouse metadata survives).
    fallback_codec: str = "gzip-ref"
    #: Train shared zstd dictionaries from the per-table sample window.
    train_dictionaries: bool = False
    #: Rolling window of recent payload samples kept per table; a
    #: dictionary is trained once the window fills.
    dictionary_window: int = 8
    #: Trained dictionary size cap, bytes.
    dictionary_max_bytes: int = 16 * 1024
    #: Recompaction age threshold: leaves at least this many epochs
    #: behind the frontier are eligible for a densest-codec rewrite.
    recompact_after_epochs: int = 48

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ConfigError("autotune.candidates must not be empty")
        if AUTO_CODEC in self.candidates:
            raise ConfigError("autotune.candidates cannot include 'auto'")
        if self.fallback_codec == AUTO_CODEC:
            raise ConfigError("autotune.fallback_codec cannot be 'auto'")
        if self.sample_bytes < 256:
            raise ConfigError("autotune.sample_bytes must be at least 256")
        if self.latency_weight < 0.0:
            raise ConfigError("autotune.latency_weight must be non-negative")
        if self.dictionary_window < 2:
            raise ConfigError("autotune.dictionary_window must be at least 2")
        if self.dictionary_max_bytes < 1024:
            raise ConfigError("autotune.dictionary_max_bytes must be >= 1 KiB")
        if self.recompact_after_epochs < 1:
            raise ConfigError("autotune.recompact_after_epochs must be >= 1")


@dataclass(frozen=True)
class DurabilityConfig:
    """Metadata durability settings (WAL + checkpoints).

    When ``enabled``, every index mutation is appended to a checksummed
    write-ahead log stored through the DFS, and the whole indexing
    layer is checkpointed every ``checkpoint_interval_epochs`` ingests
    (manifest-swap commit).  ``Spate.open`` then reconstructs the exact
    pre-crash warehouse as checkpoint + WAL replay.
    """

    enabled: bool = False
    #: "always" = one durable segment per record (lose nothing);
    #: "epoch" = buffer and flush once per ingest cycle (lose at most
    #: the in-flight epoch, whose files recovery removes as orphans).
    wal_sync: str = "always"
    #: Ingests between automatic checkpoints (0 = only on demand).
    checkpoint_interval_epochs: int = 16
    #: Replication factor for WAL segments and checkpoint/manifest
    #: files (metadata is small; replicate it at least as widely as
    #: the data it describes).
    metadata_replication: int = 3

    def __post_init__(self) -> None:
        if self.wal_sync not in ("always", "epoch"):
            raise ConfigError(
                f"wal_sync must be 'always' or 'epoch', got {self.wal_sync!r}"
            )
        if self.checkpoint_interval_epochs < 0:
            raise ConfigError("checkpoint_interval_epochs must be non-negative")
        if self.metadata_replication < 1:
            raise ConfigError("metadata_replication must be at least 1")


@dataclass(frozen=True)
class ShardConfig:
    """Shard-layer settings (:mod:`repro.shard`).

    The warehouse is partitioned by a hybrid (cell-region, day) key:
    cells map to a *fixed* number of spatial region groups (independent
    of the shard count, so scatter-gather answers are byte-identical
    for every ``shards`` value), each group is hosted on
    ``group_replication`` distinct worker shards, and a coordinator
    scatter-gathers queries across the groups with bounded retries,
    failover and per-shard circuit breakers.
    """

    #: Worker shard count.  1 is the degenerate single-shard ring; the
    #: plain :class:`~repro.core.spate.Spate` facade (no shard layer at
    #: all) remains the library default.
    shards: int = 1
    #: Fixed spatial region-group count.  Must not change over a
    #: warehouse's lifetime; keep it independent of ``shards`` so
    #: answers do not depend on the ring size.
    region_groups: int = 8
    #: Distinct shards hosting each group (shard-level replication,
    #: on top of the per-store DFS replication).  Clamped to ``shards``.
    group_replication: int = 2
    #: Per-RPC deadline slice, milliseconds (charged against the
    #: query's ``deadline_ms`` budget when one is set).
    rpc_timeout_ms: int = 2_000
    #: Bounded RPC retries (exponential backoff, full jitter) before
    #: failing over to a replica shard.
    rpc_retries: int = 2
    #: Total RPC retry budget across the coordinator's lifetime.
    rpc_retry_budget: int = 256
    #: Consecutive failures that trip a shard's circuit breaker.
    breaker_threshold: int = 3
    #: RPCs a tripped breaker stays open for before a probe is allowed.
    breaker_cooldown_rpcs: int = 8
    #: Heartbeats a shard may miss before failover prefers its replicas.
    heartbeat_miss_limit: int = 2
    #: RPC transport: "inline" (deterministic in-process calls; backoff
    #: charged to a modeled clock) or "socket" (each worker is a real OS
    #: process serving length-prefixed JSON-lines RPCs over localhost
    #: TCP, with real wall-clock timeouts; workers survive coordinator
    #: restarts).
    transport: str = "inline"
    #: Tile→group fold version of the :class:`~repro.shard.key.
    #: RegionMap` (1 = legacy vertical stripes, 2 = true grid tiles).
    #: Recorded in the warehouse creation record; a warehouse must be
    #: reopened with the layout it was created under, or its placement
    #: — and therefore its answers — would silently change.
    region_layout: int = 2
    #: Seed for retry jitter, so chaos runs replay deterministically.
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError("shards must be at least 1")
        if self.region_groups < 1:
            raise ConfigError("region_groups must be at least 1")
        if self.group_replication < 1:
            raise ConfigError("group_replication must be at least 1")
        if self.rpc_timeout_ms < 1:
            raise ConfigError("rpc_timeout_ms must be positive")
        if self.rpc_retries < 0:
            raise ConfigError("rpc_retries must be non-negative")
        if self.rpc_retry_budget < 0:
            raise ConfigError("rpc_retry_budget must be non-negative")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_rpcs < 1:
            raise ConfigError("breaker_cooldown_rpcs must be at least 1")
        if self.heartbeat_miss_limit < 1:
            raise ConfigError("heartbeat_miss_limit must be at least 1")
        if self.transport not in ("inline", "socket"):
            raise ConfigError(
                "transport must be 'inline' or 'socket', "
                f"got {self.transport!r}"
            )
        if self.region_layout not in (1, 2):
            raise ConfigError(
                f"region_layout must be 1 or 2, got {self.region_layout!r}"
            )


@dataclass(frozen=True)
class SpateConfig:
    """Top-level framework configuration.

    Attributes:
        codec: registered codec name for the storage layer (paper
            default: GZIP), or ``"auto"`` for adaptive per-leaf codec
            selection governed by ``autotune``.
        layout: physical table layout before compression — "row" (the
            paper's text files) or "columnar" (typed per-column
            encodings; ~1.3x denser on the telco schema).
        replication: DFS replication factor (paper testbed: 3).
        block_size: DFS block size in bytes (paper testbed: 64 MB;
            scaled down by default for in-process experiments).
        leaf_spatial_index: attach a per-snapshot R-tree (paper argues
            against it; kept for the ablation).
        executor: ingest-pipeline backend ("serial" / "thread" /
            "process"; "auto" picks per host).  All backends store
            byte-identical leaves — only wall-clock changes.
        executor_workers: pooled-backend worker count (None = core
            count, capped at 8).
        leaf_cache_bytes: capacity of the decompressed-leaf LRU cache
            on the read path; 0 disables caching.
        query_deadline_ms: default per-query time budget in modeled
            milliseconds; 0 = unlimited.  A query that hits its
            deadline raises in strict mode and returns a partial
            answer (with a coverage report) under ``partial_ok``.
        query_pruning: let the read path skip leaves whose day summary
            disproves the query's filter and decode only the projected
            columns.  Pruning is conservative (summaries survive decay
            and fungus as supersets of their leaves), so answers are
            byte-identical with it on or off.
        query_cache_entries: capacity of the query-result cache
            (complete results keyed on query + index version; any
            ingest/decay/fungus/recovery invalidates).  0 disables it.
        highlights: highlights-module settings.
        decay: decaying-module settings.
        faults: storage fault-injection / self-healing settings.
        durability: metadata WAL + checkpoint settings.
        autotune: adaptive codec selection / dictionary / recompaction
            settings (active when ``codec="auto"``).
        sharding: shard-layer settings (used by
            :class:`repro.shard.ShardedSpate`; ignored — and harmless —
            on the plain single-node facade).
    """

    codec: str = "gzip"
    layout: str = "row"
    replication: int = 3
    block_size: int = 4 * 1024 * 1024
    leaf_spatial_index: bool = False
    executor: str = "auto"
    executor_workers: int | None = None
    leaf_cache_bytes: int = 16 * 1024 * 1024
    query_deadline_ms: int = 0
    query_pruning: bool = True
    query_cache_entries: int = 0
    highlights: HighlightsConfig = field(default_factory=HighlightsConfig)
    decay: DecayPolicyConfig = field(default_factory=DecayPolicyConfig)
    faults: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    autotune: AutotuneConfig = field(default_factory=AutotuneConfig)
    sharding: ShardConfig = field(default_factory=ShardConfig)

    @property
    def autotune_enabled(self) -> bool:
        """True when per-leaf adaptive codec selection is on."""
        return self.codec == AUTO_CODEC

    @property
    def static_codec(self) -> str:
        """The codec for contexts that need one fixed name: the
        configured codec, or the autotune fallback under ``auto``."""
        return self.autotune.fallback_codec if self.autotune_enabled else self.codec

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ConfigError("replication must be at least 1")
        if self.query_deadline_ms < 0:
            raise ConfigError("query_deadline_ms must be non-negative")
        if self.block_size < 1024:
            raise ConfigError("block_size must be at least 1 KiB")
        from repro.engine.executor import EXECUTOR_BACKENDS

        if self.executor not in EXECUTOR_BACKENDS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; "
                f"choose from {EXECUTOR_BACKENDS}"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ConfigError("executor_workers must be positive")
        if self.leaf_cache_bytes < 0:
            raise ConfigError("leaf_cache_bytes must be non-negative")
        if self.query_cache_entries < 0:
            raise ConfigError("query_cache_entries must be non-negative")
        from repro.core.layout import validate_layout

        validate_layout(self.layout)
