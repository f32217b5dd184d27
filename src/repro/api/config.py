"""Typed, validated configuration objects -- and the one place a knob is declared.

Every field of the seven frozen config dataclasses below is a single
:func:`knob` declaration: its default, a typed check drawn from a small set
of reusable predicates, a one-line doc and -- where it has one -- its CLI
flag.  Everything else is derived from those declarations: construction
runs the checks (raising :class:`~repro.errors.ConfigError`), ``to_dict`` /
``from_dict`` round-trip JSON-safe dictionaries, :mod:`repro.api.cli`
builds its options *and* its configs from them, and the configs hand their
fields on by name (``EngineConfig.build()``, ``ServiceConfig.engine_config()``).

* :class:`EngineConfig`       -- caches, index upkeep, backend and planner
  of a :class:`~repro.engine.QueryEngine`;
* :class:`TelemetryConfig`    -- the observability layer (tracing, profiling);
* :class:`StorageConfig`      -- the storage layer (snapshots, catalog, mmap);
* :class:`ServiceConfig`      -- the ``repro serve`` daemon (admission, batching);
* :class:`LearnerConfig`      -- Algorithm 1/2/3 parameters (``k``, semantics, ...);
* :class:`InteractiveConfig`  -- the Figure 9 loop (strategy, budgets, halt);
* :class:`ExperimentConfig`   -- the Section 5 experiment drivers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

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


# -- the reusable predicates ---------------------------------------------------


class Check(NamedTuple):
    """One field predicate: what it accepts, in code and in words."""

    accepts: Callable[[object], bool]
    expected: str  # completes "<field> must be ..."
    kind: type = str  # what one CLI value parses to (bool: a switch)
    choices: tuple | None = None
    many: bool = False  # a tuple of ``kind`` values (comma-separated on the CLI)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def int_at_least(low: int, expected: str | None = None) -> Check:
    return Check(lambda v: _is_int(v) and v >= low, expected or f"an int >= {low}", int)


def one_of(choices: tuple) -> Check:
    return Check(lambda v: v in choices, f"one of {choices}", str, choices)


def optional(check: Check, expected: str | None = None) -> Check:
    return check._replace(
        accepts=lambda v: v is None or check.accepts(v),
        expected=expected or f"None or {check.expected}",
    )


def tuple_of(check: Check, expected: str, *, non_empty: bool = False) -> Check:
    def accepts(value) -> bool:
        if not isinstance(value, tuple) or (non_empty and not value):
            return False
        return all(map(check.accepts, value))

    return Check(accepts, expected, check.kind, many=True)


INT = Check(_is_int, "an int", int)
POSITIVE_INT = int_at_least(1, "a positive int")
NON_NEGATIVE_INT = int_at_least(0, "a non-negative int")
PORT = Check(lambda v: _is_int(v) and 0 <= v <= 65535, "an int in [0, 65535]", int)
NON_NEGATIVE_NUMBER = Check(lambda v: _is_number(v) and v >= 0, "a non-negative number", float)
POSITIVE_NUMBER = Check(lambda v: _is_number(v) and v > 0, "a positive number", float)
FRACTION = Check(lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]", float)
BOOL = Check(lambda v: isinstance(v, bool), "a bool", bool)
TEXT = Check(lambda v: isinstance(v, str), "a string")
NAME = Check(lambda v: isinstance(v, str) and bool(v), "a non-empty string")
OPTIONAL_PATH = optional(TEXT, "None or a path string")


# -- one declaration per knob --------------------------------------------------


class Knob(NamedTuple):
    """What a config field carries besides its default (``Field.metadata["knob"]``)."""

    check: Check
    doc: str
    flag: str | None = None  # "--cache-budget BYTES": option string, optional metavar
    per_unit: int = 1  # flag values per field unit (1000: a ``-ms`` flag, a seconds field)


def knob(default, check: Check, doc: str, flag: str | None = None, per_unit: int = 1):
    """Declare one config field: default, check, doc and (optionally) CLI flag."""
    return field(default=default, metadata={"knob": Knob(check, doc, flag, per_unit)})


def same_as(owner: type, name: str, **changes):
    """Reuse ``owner.name``'s declaration, changing at most its default, doc or flag."""
    spec = owner.__dataclass_fields__[name]
    default = changes.pop("default", spec.default)
    return field(default=default, metadata={"knob": spec.metadata["knob"]._replace(**changes)})


def _config(cls):
    """``@dataclass(frozen=True)`` plus the class's check list, built once here."""
    cls = dataclass(frozen=True)(cls)
    checks = ((spec.name, spec.metadata["knob"].check) for spec in fields(cls))
    cls._checks = tuple((name, check.accepts, check.expected) for name, check in checks)
    return cls


class _BaseConfig:
    """Validation and JSON plumbing shared by the config dataclasses."""

    _checks: tuple = ()

    def __post_init__(self) -> None:
        for name, accepts, expected in self._checks:
            value = getattr(self, name)
            if not accepts(value):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        self._check_together()

    def _check_together(self) -> None:
        """Cross-field rules; every single-field check has already passed."""

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in vars(self).items()
        }

    @classmethod
    def from_dict(cls, payload: dict):
        """Build (and validate) a config from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            got = type(payload).__name__
            raise ConfigError(f"{cls.__name__} payload must be a dict, got {got}")
        unknown = sorted(set(payload) - {spec.name for spec in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} fields: {unknown!r}")
        return cls(
            **{
                name: tuple(value) if isinstance(value, list) else value
                for name, value in payload.items()
            }
        )

    def replace(self, **changes):
        """A copy with the given fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)


def _need_ordered(low_name: str, low: int, high_name: str, high: int) -> None:
    if low > high:
        raise ConfigError(
            f"need {low_name} <= {high_name}, got {low_name}={low!r}, {high_name}={high!r}"
        )


@_config
class EngineConfig(_BaseConfig):
    """Caches, kernel backend and planning of a
    per-workspace :class:`~repro.engine.QueryEngine` (its keyword arguments,
    field for field)."""

    plan_cache_size: int = knob(
        256, POSITIVE_INT, "compiled-plan cache capacity (entries)", "--plan-cache-size"
    )
    result_cache_size: int = knob(
        1024, POSITIVE_INT, "result cache capacity (entries)", "--result-cache-size"
    )
    backend: str = knob(
        "auto",
        one_of(BACKENDS),
        "whole-graph kernel backend (auto: numpy when installed, else pure python)",
        "--backend",
    )
    planner: str = knob(
        "auto",
        one_of(PLANNERS),
        "query planning (auto: one parity-pinned automaton rewrite round, rare-label-first "
        "early-exit searches, per-query kernel choice; off: verbatim tables, fixed dispatch)",
        "--planner",
    )
    cache_budget_bytes: int | None = knob(
        None,
        optional(POSITIVE_INT),
        "byte budget on the result cache's LRU eviction (None: entry-count capacity only)",
        "--cache-budget BYTES",
    )

    def build(self, telemetry=None):
        """A fresh :class:`~repro.engine.QueryEngine` with these settings.

        ``telemetry`` is an optional :class:`~repro.telemetry.Telemetry`
        facade the engine should report into (None: a fresh disabled one).
        """
        from repro.engine.engine import QueryEngine

        return QueryEngine(telemetry=telemetry, **vars(self))


@_config
class TelemetryConfig(_BaseConfig):
    """Parameters of the observability layer of one workspace/engine.

    All off by default: a default-constructed config builds the no-op
    telemetry every engine carries anyway, so the fast path stays
    byte-identical.
    """

    enabled: bool = knob(
        False, BOOL, "trace spans into the in-memory ring buffer (implied by trace_path)"
    )
    trace_path: str | None = knob(
        None,
        OPTIONAL_PATH,
        "write a structured JSONL span trace of the run to this file (size-rotated)",
        "--trace FILE",
    )
    profile: bool = knob(
        False,
        BOOL,
        "attach per-query execution profiles to results and interactive rounds",
        "--profile",
    )

    def build(self):
        """A fresh :class:`~repro.telemetry.Telemetry` facade."""
        from repro.telemetry import Telemetry

        return Telemetry(**vars(self))


@_config
class StorageConfig(_BaseConfig):
    """Parameters of the storage layer (snapshots, bulk ingestion, catalog)."""

    verify_checksum: bool = knob(
        False,
        BOOL,
        "check the payload CRC32 on every snapshot open (touches every page, so "
        "large snapshots no longer open lazily)",
    )
    use_mmap: bool = knob(True, BOOL, "zero-copy mapped snapshot load instead of a heap copy")
    catalog_root: str | None = knob(
        None,
        OPTIONAL_PATH,
        "directory of named snapshots (None: .repro/snapshots under the working directory)",
    )

    def catalog(self):
        """A :class:`~repro.storage.DatasetCatalog` at this config's root."""
        from repro.storage.catalog import DEFAULT_CATALOG_ROOT, DatasetCatalog

        return DatasetCatalog(self.catalog_root or DEFAULT_CATALOG_ROOT)


@_config
class ServiceConfig(_BaseConfig):
    """Parameters of the ``repro serve`` daemon (:mod:`repro.service`).

    One daemon opens a :class:`~repro.storage.DatasetCatalog` of hot
    snapshots once and serves query/learn/interactive traffic from many
    concurrent clients.  Past the admission knobs the server sheds with a
    structured 429-style ``overloaded`` error instead of queueing
    unboundedly; the micro-batcher coalesces compatible single-query
    requests into one :meth:`~repro.engine.QueryEngine.evaluate_many` call.
    The fields shared with :class:`EngineConfig` (one declaration each) flow
    into every per-dataset engine through :meth:`engine_config`.
    """

    host: str = knob("127.0.0.1", NAME, "bind address", "--host")
    port: int = knob(0, PORT, "bind port (0: ephemeral, printed on start)", "--port")
    catalog_root: str | None = same_as(StorageConfig, "catalog_root", flag="--catalog DIR")
    snapshots: tuple[str, ...] = knob(
        (),
        tuple_of(NAME, "a tuple of dataset names"),
        "catalog names to preload at startup (empty: everything registered)",
        "--snapshots",
    )
    default_snapshot: str | None = knob(
        None,
        optional(TEXT, "None or a name"),
        "snapshot answering requests that name none (None: the first preloaded)",
        "--default-snapshot",
    )
    max_concurrent: int = knob(
        32, POSITIVE_INT, "admission: global in-flight request cap", "--max-concurrent"
    )
    per_tenant: int = knob(
        8, POSITIVE_INT, "admission: per-tenant in-flight request cap", "--per-tenant"
    )
    queue_depth: int = knob(
        64, POSITIVE_INT, "micro-batch queue bound (requests past it are shed)", "--queue-depth"
    )
    batch_window: float = knob(
        0.002,
        NON_NEGATIVE_NUMBER,
        "longest a queued query waits for batch-mates (seconds; ms on the command line)",
        "--batch-window-ms MS",
        per_unit=1000,
    )
    batch_max: int = knob(16, POSITIVE_INT, "maximal queries per micro-batch", "--batch-max")
    max_frame_bytes: int = knob(
        4 * 1024 * 1024, int_at_least(1024), "largest wire frame accepted or sent"
    )
    request_timeout: float = knob(
        120.0, POSITIVE_NUMBER, "seconds a request waits for its micro-batch before a 504"
    )
    max_sessions_per_tenant: int = knob(
        16, POSITIVE_INT, "stored interactive sessions one tenant may hold"
    )
    plan_cache_size: int = same_as(EngineConfig, "plan_cache_size", flag=None)
    result_cache_size: int = same_as(EngineConfig, "result_cache_size", default=4096, flag=None)
    backend: str = same_as(EngineConfig, "backend")
    planner: str = same_as(EngineConfig, "planner")
    cache_budget_bytes: int | None = same_as(EngineConfig, "cache_budget_bytes")
    share_caches: bool = knob(
        True,
        BOOL,
        "share one plan/result cache pair between datasets whose snapshots are "
        "byte-identical (off: private caches per dataset workspace)",
        "--no-share-caches",
    )
    metrics_port: int | None = knob(
        None,
        optional(PORT),
        "serve the registry's Prometheus text on this HTTP port (GET /metrics)",
        "--metrics-port",
    )
    metrics_path: str | None = knob(
        None,
        OPTIONAL_PATH,
        "write the final Prometheus text here on shutdown",
        "--metrics-file FILE",
    )
    allow_remote_shutdown: bool = knob(
        False,
        BOOL,
        "let clients stop the server via the shutdown op (tests/CI)",
        "--allow-remote-shutdown",
    )
    trace_path: str | None = same_as(
        TelemetryConfig,
        "trace_path",
        doc="distributed tracing: server and engine spans land in this rotating "
        "JSONL file, parented onto client-supplied trace contexts",
    )
    slow_log_path: str | None = knob(
        None,
        OPTIONAL_PATH,
        "append queries slower than the threshold to this JSONL file, with profile "
        "and plan explanation ('repro slow' reads it)",
        "--slow-log FILE",
    )
    slow_query_seconds: float = knob(
        1.0,
        POSITIVE_NUMBER,
        "slow-query latency threshold (seconds; milliseconds on the command line)",
        "--slow-query-ms MS",
        per_unit=1000,
    )

    catalog = StorageConfig.catalog

    def engine_config(self) -> EngineConfig:
        """The per-dataset engine settings: every field the two classes share."""
        shared = EngineConfig.__dataclass_fields__.keys() & vars(self).keys()
        return EngineConfig(**{name: getattr(self, name) for name in shared})


@_config
class LearnerConfig(_BaseConfig):
    """Parameters of one learning run (Algorithm 1, 2 or 3).

    :meth:`repro.api.Workspace.learn` applies the Section 5.1 dynamic-``k``
    procedure to all three semantics and to the baseline.
    """

    k: int = knob(2, NON_NEGATIVE_INT, "path-length bound k", "--k")
    dynamic_k: bool = knob(
        True,
        BOOL,
        "the dynamic-k procedure: grow k up to k_max while the learner abstains "
        "(off: use exactly k)",
        "--fixed-k",
    )
    k_max: int = knob(6, NON_NEGATIVE_INT, "upper bound for the dynamic-k procedure", "--k-max")
    semantics: str = knob("path", one_of(SEMANTICS), "query semantics to learn")
    generalize: bool = knob(
        True,
        BOOL,
        "generalize the SCPs by state merging (off: the disjunction-of-SCPs "
        "baseline, 'path' semantics only)",
        "--no-generalize",
    )

    def _check_together(self) -> None:
        _need_ordered("k", self.k, "k_max", self.k_max)
        if not self.generalize and self.semantics != "path":
            raise ConfigError(
                "generalize=False (the SCP-disjunction baseline) only exists for the "
                "monadic 'path' semantics"
            )


@_config
class InteractiveConfig(_BaseConfig):
    """Parameters of one interactive session (the Figure 9 loop)."""

    strategy: str = knob("kR", one_of(STRATEGIES), "node-selection strategy", "--strategy")
    k_start: int = knob(2, NON_NEGATIVE_INT, "initial path-length bound k", "--k-start")
    k_max: int = knob(6, NON_NEGATIVE_INT, "maximal k the session may grow to", "--k-max")
    max_interactions: int | None = knob(
        None,
        optional(POSITIVE_INT),
        "interaction budget (None: unbounded, halt on goal or exhaustion)",
        "--max-interactions",
    )
    neighborhood_radius: int | None = knob(
        None,
        optional(NON_NEGATIVE_INT),
        "show the user this many hops around a proposed node (None: the node only)",
    )
    pool_size: int | None = knob(
        512,
        optional(POSITIVE_INT),
        "k-informative candidate pool per round (None, or 0 on the command line: full scan)",
        "--pool-size",
    )
    seed: int = knob(0, INT, "random seed", "--seed")
    target_f1: float = knob(
        1.0, FRACTION, "halt threshold on F1 (1.0: the paper's strongest condition)", "--target-f1"
    )

    def _check_together(self) -> None:
        _need_ordered("k_start", self.k_start, "k_max", self.k_max)


@_config
class ExperimentConfig(_BaseConfig):
    """Parameters of one Section 5 experiment run.

    The workspace compiles ``goal`` over its graph's alphabet; fields
    irrelevant to the chosen ``scenario`` are ignored by the driver.  The
    interactive-scenario fields reuse :class:`InteractiveConfig`'s declarations.
    """

    goal: str = knob("", TEXT, "the goal query's regular expression")
    scenario: str = knob(
        "static",
        one_of(SCENARIOS),
        "static sweep (Figures 11/12) or interactive loop (Table 2)",
        "--scenario",
    )
    name: str | None = knob(
        None, optional(TEXT), "workload label in reports (None: the workspace's own name)"
    )
    seed: int = same_as(InteractiveConfig, "seed")
    k_start: int = same_as(InteractiveConfig, "k_start")
    k_max: int = same_as(InteractiveConfig, "k_max", default=4)
    labeled_fractions: tuple[float, ...] = knob(
        (0.005, 0.01, 0.02, 0.05, 0.07, 0.10, 0.15),
        tuple_of(FRACTION, "a non-empty tuple of fractions in (0, 1]", non_empty=True),
        "static scenario: labeled fractions to sweep (e.g. 0.05,0.1)",
        "--fractions",
    )
    use_generalization: bool = same_as(LearnerConfig, "generalize")
    strategy: str = same_as(InteractiveConfig, "strategy")
    max_interactions: int | None = same_as(
        InteractiveConfig,
        "max_interactions",
        doc="interactive scenario: interaction budget (None: 10% of the nodes, at least 20)",
    )
    pool_size: int | None = same_as(InteractiveConfig, "pool_size", flag=None)
    target_f1: float = same_as(InteractiveConfig, "target_f1")

    def _check_together(self) -> None:
        _need_ordered("k_start", self.k_start, "k_max", self.k_max)
