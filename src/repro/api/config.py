"""Typed, validated configuration objects for the public :class:`Workspace` API.

Each config is a frozen dataclass that validates itself on construction
(raising :class:`~repro.errors.ConfigError` on bad values) and round-trips
through JSON-safe dictionaries (``to_dict``/``from_dict``):

* :class:`EngineConfig`       -- cache sizing of a :class:`~repro.engine.QueryEngine`;
* :class:`TelemetryConfig`    -- the observability layer (tracing, profiling);
* :class:`LearnerConfig`      -- Algorithm 1/2/3 parameters (``k``, semantics, ...);
* :class:`InteractiveConfig`  -- the Figure 9 loop (strategy, budgets, halt);
* :class:`ExperimentConfig`   -- the Section 5 experiment drivers;
* :class:`StorageConfig`      -- the storage layer (snapshots, catalog, mmap);
* :class:`ServiceConfig`      -- the ``repro serve`` daemon (admission, batching).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

from repro.errors import ConfigError

#: The learner semantics a :class:`LearnerConfig` can select.
SEMANTICS = ("path", "binary", "nary")

#: The experiment scenarios an :class:`ExperimentConfig` can select.
SCENARIOS = ("static", "interactive")

#: The interactive strategies the paper evaluates (plus the naive baseline).
STRATEGIES = ("kR", "kS", "random")

#: The kernel backends an :class:`EngineConfig` can select.
BACKENDS = ("auto", "python", "numpy")

#: The planner modes an :class:`EngineConfig` can select.
PLANNERS = ("auto", "off")


class _BaseConfig:
    """Shared JSON plumbing of the config dataclasses."""

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        """Build (and validate) a config from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise ConfigError(f"{cls.__name__} payload must be a dict, got {type(payload).__name__}")
        known = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} fields: {unknown!r}")
        kwargs = {}
        for name, value in payload.items():
            if isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def replace(self, **changes):
        """A copy with the given fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class EngineConfig(_BaseConfig):
    """Cache sizing and index-maintenance policy of a per-workspace
    :class:`~repro.engine.QueryEngine`.

    ``incremental_refresh`` lets a stale CSR index be refreshed from the
    graph's mutation delta log instead of rebuilt; ``refresh_ratio`` is the
    delta-to-index size ratio beyond which refresh falls back to a rebuild.

    ``backend`` selects the whole-graph kernel implementation (``"auto"``:
    numpy when importable, else the pure-python reference); ``workers``
    above 1 fans whole-graph evaluations on snapshot-backed graphs with at
    least ``min_shard_edges`` edges across a process pool.

    ``planner`` turns the cost-based planning layer on (``"auto"``, the
    default: parity-pinned automaton rewriting, selectivity-ordered
    early-exit plans, and -- with ``backend="auto"`` -- per-query kernel
    choice from the CSR cost model) or ``"off"`` (verbatim compilation,
    fixed dispatch).  ``max_rewrite_passes`` bounds the rewriter;
    ``cache_budget_bytes`` adds a byte budget to the result cache's LRU
    eviction (None: entry-count bound only).
    """

    plan_cache_size: int = 256
    result_cache_size: int = 1024
    incremental_refresh: bool = True
    refresh_ratio: float = 0.25
    backend: str = "auto"
    workers: int = 1
    min_shard_edges: int = 50_000
    planner: str = "auto"
    max_rewrite_passes: int = 3
    cache_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.plan_cache_size, int) and self.plan_cache_size >= 1,
            f"plan_cache_size must be a positive int, got {self.plan_cache_size!r}",
        )
        _require(
            isinstance(self.result_cache_size, int) and self.result_cache_size >= 1,
            f"result_cache_size must be a positive int, got {self.result_cache_size!r}",
        )
        _require(
            isinstance(self.incremental_refresh, bool),
            f"incremental_refresh must be a bool, got {self.incremental_refresh!r}",
        )
        _require(
            isinstance(self.refresh_ratio, (int, float)) and self.refresh_ratio >= 0,
            f"refresh_ratio must be a non-negative number, got {self.refresh_ratio!r}",
        )
        _require(
            self.backend in BACKENDS,
            f"backend must be one of {BACKENDS}, got {self.backend!r}",
        )
        _require(
            isinstance(self.workers, int) and self.workers >= 1,
            f"workers must be a positive int, got {self.workers!r}",
        )
        _require(
            isinstance(self.min_shard_edges, int) and self.min_shard_edges >= 0,
            f"min_shard_edges must be a non-negative int, got {self.min_shard_edges!r}",
        )
        _require(
            self.planner in PLANNERS,
            f"planner must be one of {PLANNERS}, got {self.planner!r}",
        )
        _require(
            isinstance(self.max_rewrite_passes, int) and self.max_rewrite_passes >= 0,
            f"max_rewrite_passes must be a non-negative int, got {self.max_rewrite_passes!r}",
        )
        _require(
            self.cache_budget_bytes is None
            or (isinstance(self.cache_budget_bytes, int) and self.cache_budget_bytes >= 1),
            f"cache_budget_bytes must be None or a positive int, got {self.cache_budget_bytes!r}",
        )

    def build(self, telemetry=None):
        """A fresh :class:`~repro.engine.QueryEngine` with this sizing.

        ``telemetry`` is an optional :class:`~repro.telemetry.Telemetry`
        facade the engine should report into (None: a fresh disabled one).
        """
        from repro.engine.engine import QueryEngine

        return QueryEngine(
            plan_cache_size=self.plan_cache_size,
            result_cache_size=self.result_cache_size,
            incremental_refresh=self.incremental_refresh,
            refresh_ratio=float(self.refresh_ratio),
            telemetry=telemetry,
            backend=self.backend,
            workers=self.workers,
            min_shard_edges=self.min_shard_edges,
            planner=self.planner,
            max_rewrite_passes=self.max_rewrite_passes,
            cache_budget_bytes=self.cache_budget_bytes,
        )


@dataclass(frozen=True)
class TelemetryConfig(_BaseConfig):
    """Parameters of the observability layer of one workspace/engine.

    ``enabled`` turns on structured tracing (spans buffered in a ring and,
    when ``trace_path`` is set, appended as JSON Lines with size-based
    rotation); ``profile`` attaches per-query execution profiles to
    :class:`~repro.api.QueryResult` objects and interactive rounds.  All off
    by default: a default-constructed config builds the no-op telemetry every
    engine carries anyway, so the fast path stays byte-identical.
    """

    enabled: bool = False
    trace_path: str | None = None
    profile: bool = False
    trace_max_bytes: int = 8 * 1024 * 1024
    trace_keep: int = 3
    buffer_events: int = 2048

    def __post_init__(self) -> None:
        _require(
            isinstance(self.enabled, bool),
            f"enabled must be a bool, got {self.enabled!r}",
        )
        _require(
            self.trace_path is None or isinstance(self.trace_path, str),
            f"trace_path must be None or a path string, got {self.trace_path!r}",
        )
        _require(
            isinstance(self.profile, bool),
            f"profile must be a bool, got {self.profile!r}",
        )
        _require(
            isinstance(self.trace_max_bytes, int) and self.trace_max_bytes >= 1024,
            f"trace_max_bytes must be an int >= 1024, got {self.trace_max_bytes!r}",
        )
        _require(
            isinstance(self.trace_keep, int) and self.trace_keep >= 0,
            f"trace_keep must be a non-negative int, got {self.trace_keep!r}",
        )
        _require(
            isinstance(self.buffer_events, int) and self.buffer_events >= 1,
            f"buffer_events must be a positive int, got {self.buffer_events!r}",
        )

    def build(self):
        """A fresh :class:`~repro.telemetry.Telemetry` facade."""
        from repro.telemetry import Telemetry

        return Telemetry(
            enabled=self.enabled or self.trace_path is not None,
            trace_path=self.trace_path,
            profile=self.profile,
            trace_max_bytes=self.trace_max_bytes,
            trace_keep=self.trace_keep,
            buffer_events=self.buffer_events,
        )


@dataclass(frozen=True)
class StorageConfig(_BaseConfig):
    """Parameters of the storage layer (snapshots, bulk ingestion, catalog).

    ``verify_checksum`` makes every snapshot open check the payload CRC32
    (touching every page -- off by default so large snapshots open lazily);
    ``use_mmap`` selects the zero-copy mapped load over a heap copy;
    ``catalog_root`` is where :meth:`DatasetCatalog <repro.storage.DatasetCatalog>`
    keeps named snapshots (None: ``.repro/snapshots`` under the working
    directory).
    """

    verify_checksum: bool = False
    use_mmap: bool = True
    catalog_root: str | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.verify_checksum, bool),
            f"verify_checksum must be a bool, got {self.verify_checksum!r}",
        )
        _require(
            isinstance(self.use_mmap, bool),
            f"use_mmap must be a bool, got {self.use_mmap!r}",
        )
        _require(
            self.catalog_root is None or isinstance(self.catalog_root, str),
            f"catalog_root must be None or a path string, got {self.catalog_root!r}",
        )

    def catalog(self):
        """A :class:`~repro.storage.DatasetCatalog` at this config's root."""
        from repro.storage.catalog import DEFAULT_CATALOG_ROOT, DatasetCatalog

        return DatasetCatalog(self.catalog_root or DEFAULT_CATALOG_ROOT)


@dataclass(frozen=True)
class ServiceConfig(_BaseConfig):
    """Parameters of the ``repro serve`` daemon (:mod:`repro.service`).

    One daemon opens a :class:`~repro.storage.DatasetCatalog` of hot
    snapshots once and serves query/learn/interactive traffic from many
    concurrent clients.  ``snapshots`` preloads named catalog datasets at
    startup (empty: everything registered); ``default_snapshot`` answers
    requests that name none.  ``max_concurrent``/``per_tenant``/
    ``queue_depth`` are the admission-control knobs: past them the server
    sheds with a structured 429-style ``overloaded`` error instead of
    queueing unboundedly.  ``batch_window``/``batch_max`` shape the
    micro-batcher that coalesces compatible single-query requests into one
    :meth:`~repro.engine.QueryEngine.evaluate_many` call.  ``backend`` and
    ``workers`` flow into every per-dataset engine (see
    :class:`EngineConfig`), so a daemon over large snapshots can vectorize
    and shard its kernels.  ``metrics_port``
    serves the registry's Prometheus text over HTTP (``/metrics``);
    ``metrics_path`` additionally writes it to a file on shutdown.

    ``trace_path`` turns on distributed tracing: server-side spans (and
    shard-worker spans from every dataset engine) land in one rotating
    JSONL sink, parented onto client-supplied trace contexts.
    ``slow_log_path`` turns on the slow-query log: queries slower than
    ``slow_query_seconds`` get their profile and plan explanation written
    as structured JSONL (``repro slow`` reads it).  ``min_shard_edges``
    flows into the per-dataset engines' sharding threshold.
    """

    host: str = "127.0.0.1"
    port: int = 0
    catalog_root: str | None = None
    snapshots: tuple[str, ...] = ()
    default_snapshot: str | None = None
    max_concurrent: int = 32
    per_tenant: int = 8
    queue_depth: int = 64
    batch_window: float = 0.002
    batch_max: int = 16
    max_frame_bytes: int = 4 * 1024 * 1024
    request_timeout: float = 120.0
    max_sessions_per_tenant: int = 16
    plan_cache_size: int = 256
    result_cache_size: int = 4096
    backend: str = "auto"
    workers: int = 1
    planner: str = "auto"
    cache_budget_bytes: int | None = None
    share_caches: bool = True
    metrics_port: int | None = None
    metrics_path: str | None = None
    allow_remote_shutdown: bool = False
    trace_path: str | None = None
    slow_log_path: str | None = None
    slow_query_seconds: float = 1.0
    min_shard_edges: int = 50_000

    def __post_init__(self) -> None:
        _require(
            isinstance(self.host, str) and bool(self.host),
            f"host must be a non-empty string, got {self.host!r}",
        )
        _require(
            isinstance(self.port, int) and 0 <= self.port <= 65535,
            f"port must be an int in [0, 65535] (0 = ephemeral), got {self.port!r}",
        )
        _require(
            self.catalog_root is None or isinstance(self.catalog_root, str),
            f"catalog_root must be None or a path string, got {self.catalog_root!r}",
        )
        _require(
            isinstance(self.snapshots, tuple)
            and all(isinstance(name, str) and name for name in self.snapshots),
            f"snapshots must be a tuple of dataset names, got {self.snapshots!r}",
        )
        _require(
            self.default_snapshot is None or isinstance(self.default_snapshot, str),
            f"default_snapshot must be None or a name, got {self.default_snapshot!r}",
        )
        for knob in ("max_concurrent", "per_tenant", "queue_depth", "batch_max"):
            value = getattr(self, knob)
            _require(
                isinstance(value, int) and value >= 1,
                f"{knob} must be a positive int, got {value!r}",
            )
        _require(
            isinstance(self.batch_window, (int, float)) and self.batch_window >= 0,
            f"batch_window must be a non-negative number of seconds, got {self.batch_window!r}",
        )
        _require(
            isinstance(self.max_frame_bytes, int) and self.max_frame_bytes >= 1024,
            f"max_frame_bytes must be an int >= 1024, got {self.max_frame_bytes!r}",
        )
        _require(
            isinstance(self.request_timeout, (int, float)) and self.request_timeout > 0,
            f"request_timeout must be a positive number of seconds, got {self.request_timeout!r}",
        )
        _require(
            isinstance(self.max_sessions_per_tenant, int) and self.max_sessions_per_tenant >= 1,
            f"max_sessions_per_tenant must be a positive int, got {self.max_sessions_per_tenant!r}",
        )
        _require(
            isinstance(self.plan_cache_size, int) and self.plan_cache_size >= 1,
            f"plan_cache_size must be a positive int, got {self.plan_cache_size!r}",
        )
        _require(
            isinstance(self.result_cache_size, int) and self.result_cache_size >= 1,
            f"result_cache_size must be a positive int, got {self.result_cache_size!r}",
        )
        _require(
            self.backend in BACKENDS,
            f"backend must be one of {BACKENDS}, got {self.backend!r}",
        )
        _require(
            isinstance(self.workers, int) and self.workers >= 1,
            f"workers must be a positive int, got {self.workers!r}",
        )
        _require(
            self.planner in PLANNERS,
            f"planner must be one of {PLANNERS}, got {self.planner!r}",
        )
        _require(
            self.cache_budget_bytes is None
            or (isinstance(self.cache_budget_bytes, int) and self.cache_budget_bytes >= 1),
            f"cache_budget_bytes must be None or a positive int, got {self.cache_budget_bytes!r}",
        )
        _require(
            isinstance(self.share_caches, bool),
            f"share_caches must be a bool, got {self.share_caches!r}",
        )
        _require(
            self.metrics_port is None
            or (isinstance(self.metrics_port, int) and 0 <= self.metrics_port <= 65535),
            f"metrics_port must be None or an int in [0, 65535], got {self.metrics_port!r}",
        )
        _require(
            self.metrics_path is None or isinstance(self.metrics_path, str),
            f"metrics_path must be None or a path string, got {self.metrics_path!r}",
        )
        _require(
            isinstance(self.allow_remote_shutdown, bool),
            f"allow_remote_shutdown must be a bool, got {self.allow_remote_shutdown!r}",
        )
        _require(
            self.trace_path is None or isinstance(self.trace_path, str),
            f"trace_path must be None or a path string, got {self.trace_path!r}",
        )
        _require(
            self.slow_log_path is None or isinstance(self.slow_log_path, str),
            f"slow_log_path must be None or a path string, got {self.slow_log_path!r}",
        )
        _require(
            isinstance(self.slow_query_seconds, (int, float)) and self.slow_query_seconds > 0,
            f"slow_query_seconds must be a positive number, got {self.slow_query_seconds!r}",
        )
        _require(
            isinstance(self.min_shard_edges, int) and self.min_shard_edges >= 0,
            f"min_shard_edges must be a non-negative int, got {self.min_shard_edges!r}",
        )

    def catalog(self):
        """A :class:`~repro.storage.DatasetCatalog` at this config's root."""
        from repro.storage.catalog import DEFAULT_CATALOG_ROOT, DatasetCatalog

        return DatasetCatalog(self.catalog_root or DEFAULT_CATALOG_ROOT)

    def engine_config(self) -> EngineConfig:
        """The per-dataset engine sizing this service runs with."""
        return EngineConfig(
            plan_cache_size=self.plan_cache_size,
            result_cache_size=self.result_cache_size,
            backend=self.backend,
            workers=self.workers,
            planner=self.planner,
            cache_budget_bytes=self.cache_budget_bytes,
            min_shard_edges=self.min_shard_edges,
        )


@dataclass(frozen=True)
class LearnerConfig(_BaseConfig):
    """Parameters of one learning run (Algorithm 1, 2 or 3).

    ``dynamic_k`` enables the Section 5.1 procedure (grow ``k`` from ``k``
    up to ``k_max`` while the learner abstains); :meth:`repro.api.Workspace.learn`
    applies it to all three semantics and to the baseline.
    ``generalize=False`` swaps in the disjunction-of-SCPs baseline (monadic
    semantics only).
    """

    k: int = 2
    dynamic_k: bool = True
    k_max: int = 6
    semantics: str = "path"
    generalize: bool = True

    def __post_init__(self) -> None:
        _require(isinstance(self.k, int) and self.k >= 0, f"k must be a non-negative int, got {self.k!r}")
        _require(
            isinstance(self.k_max, int) and self.k_max >= self.k,
            f"need k <= k_max, got k={self.k!r}, k_max={self.k_max!r}",
        )
        _require(
            self.semantics in SEMANTICS,
            f"semantics must be one of {SEMANTICS}, got {self.semantics!r}",
        )
        _require(
            self.generalize or self.semantics == "path",
            "generalize=False (the SCP-disjunction baseline) only exists for the "
            "monadic 'path' semantics",
        )


@dataclass(frozen=True)
class InteractiveConfig(_BaseConfig):
    """Parameters of one interactive session (the Figure 9 loop)."""

    strategy: str = "kR"
    k_start: int = 2
    k_max: int = 6
    max_interactions: int | None = None
    neighborhood_radius: int | None = None
    pool_size: int | None = 512
    seed: int = 0
    target_f1: float = 1.0

    def __post_init__(self) -> None:
        _require(
            self.strategy in STRATEGIES,
            f"strategy must be one of {STRATEGIES}, got {self.strategy!r}",
        )
        _require(
            isinstance(self.k_start, int) and self.k_start >= 0,
            f"k_start must be a non-negative int, got {self.k_start!r}",
        )
        _require(
            isinstance(self.k_max, int) and self.k_max >= self.k_start,
            f"need k_start <= k_max, got k_start={self.k_start!r}, k_max={self.k_max!r}",
        )
        _require(
            self.max_interactions is None or self.max_interactions >= 1,
            f"max_interactions must be None or >= 1, got {self.max_interactions!r}",
        )
        _require(
            self.neighborhood_radius is None or self.neighborhood_radius >= 0,
            f"neighborhood_radius must be None or >= 0, got {self.neighborhood_radius!r}",
        )
        _require(
            self.pool_size is None or self.pool_size >= 1,
            f"pool_size must be None (full scan) or >= 1, got {self.pool_size!r}",
        )
        _require(
            0.0 < self.target_f1 <= 1.0,
            f"target_f1 must be in (0, 1], got {self.target_f1!r}",
        )


@dataclass(frozen=True)
class ExperimentConfig(_BaseConfig):
    """Parameters of one Section 5 experiment run.

    ``goal`` is the goal query's regular expression; the workspace compiles
    it over its graph's alphabet.  ``scenario`` picks the static sweep
    (Figures 11/12) or the interactive loop (Table 2); fields irrelevant to
    the chosen scenario are simply ignored by the driver.  ``name`` labels
    the workload in reports (None: the workspace's own name).
    """

    goal: str = ""
    scenario: str = "static"
    name: str | None = None
    seed: int = 0
    k_start: int = 2
    k_max: int = 4
    # static scenario
    labeled_fractions: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.07, 0.10, 0.15)
    use_generalization: bool = True
    # interactive scenario
    strategy: str = "kR"
    max_interactions: int | None = None
    pool_size: int | None = 512
    target_f1: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.goal, str), f"goal must be an expression string, got {self.goal!r}")
        _require(
            self.name is None or isinstance(self.name, str),
            f"name must be None or a string, got {self.name!r}",
        )
        _require(
            self.scenario in SCENARIOS,
            f"scenario must be one of {SCENARIOS}, got {self.scenario!r}",
        )
        _require(
            isinstance(self.k_start, int) and self.k_start >= 0,
            f"k_start must be a non-negative int, got {self.k_start!r}",
        )
        _require(
            isinstance(self.k_max, int) and self.k_max >= self.k_start,
            f"need k_start <= k_max, got k_start={self.k_start!r}, k_max={self.k_max!r}",
        )
        _require(
            bool(self.labeled_fractions),
            "labeled_fractions must contain at least one fraction",
        )
        _require(
            all(0.0 < fraction <= 1.0 for fraction in self.labeled_fractions),
            f"labeled fractions must be in (0, 1], got {self.labeled_fractions!r}",
        )
        _require(
            self.strategy in STRATEGIES,
            f"strategy must be one of {STRATEGIES}, got {self.strategy!r}",
        )
        _require(
            self.max_interactions is None or self.max_interactions >= 1,
            f"max_interactions must be None or >= 1, got {self.max_interactions!r}",
        )
        _require(
            self.pool_size is None or self.pool_size >= 1,
            f"pool_size must be None (full scan) or >= 1, got {self.pool_size!r}",
        )
        _require(
            0.0 < self.target_f1 <= 1.0,
            f"target_f1 must be in (0, 1], got {self.target_f1!r}",
        )
