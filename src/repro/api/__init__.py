"""The public, typed API of the repro library.

One facade (:class:`Workspace`), frozen config dataclasses
(:class:`EngineConfig`, :class:`TelemetryConfig`, :class:`LearnerConfig`,
:class:`InteractiveConfig`, :class:`ExperimentConfig`, :class:`StorageConfig`),
one uniform :class:`Result` protocol with a JSON round-trip, and the
``python -m repro`` CLI on top (:mod:`repro.api.cli`).

The module-level algorithms (``learn_path_query``, ``InteractiveSession``,
``run_static_experiment``, ...) are what the workspace calls; used directly
they take the engine as a required ``engine=`` keyword.
"""

from repro.api.config import (
    PLANNERS,
    SCENARIOS,
    SEMANTICS,
    STRATEGIES,
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    ServiceConfig,
    StorageConfig,
    TelemetryConfig,
)
from repro.api.result import (
    RESULT_TYPES,
    ExplainResult,
    QueryResult,
    Result,
    result_from_dict,
    result_from_json,
    result_to_json,
)
from repro.api.workspace import FIGURE_GRAPHS, Workspace

__all__ = [
    "Workspace",
    "FIGURE_GRAPHS",
    # configs
    "EngineConfig",
    "TelemetryConfig",
    "LearnerConfig",
    "InteractiveConfig",
    "ExperimentConfig",
    "ServiceConfig",
    "StorageConfig",
    "SEMANTICS",
    "SCENARIOS",
    "STRATEGIES",
    "PLANNERS",
    # results
    "Result",
    "QueryResult",
    "ExplainResult",
    "RESULT_TYPES",
    "result_from_dict",
    "result_from_json",
    "result_to_json",
]
