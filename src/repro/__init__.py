"""repro -- a reproduction of *Learning Path Queries on Graph Databases*.

(Bonifati, Ciucanu, Lemay -- EDBT 2015, DOI 10.5441/002/edbt.2015.11)

The package learns regular path queries on edge-labeled directed graphs from
positive/negative node examples, both from a fixed sample (Algorithm 1 --
``learner``) and interactively (Section 4's scenario), and ships the full
experimental harness of the paper's Section 5.

Quickstart (the :class:`Workspace` facade is the public API seam)::

    from repro import GraphDB, Sample, Workspace

    graph = GraphDB()
    graph.add_edge("N2", "bus", "N1")
    graph.add_edge("N1", "tram", "N4")
    graph.add_edge("N4", "cinema", "C1")

    ws = Workspace(graph)
    result = ws.learn(Sample(positives={"N2"}, negatives={"C1"}))
    print(result.query.expression)          # a query consistent with the labels
    print(ws.query(result.query.expression).nodes())
    print(ws.stats())                       # this workspace's engine counters

The same pipeline is drivable without Python through ``python -m repro``
(subcommands ``learn``, ``query``, ``experiment``, ``bench``).

Subpackages
-----------
``repro.api``          the public surface: Workspace, typed configs, Result protocol, CLI.
``repro.automata``     the int-coded automata kernel (canonical tables, PTA, merge-fold).
``repro.regex``        regular expressions: parser, Glushkov construction, display.
``repro.graphdb``      the graph database, path semantics and query evaluation.
``repro.engine``       the indexed query engine: CSR index, compiled plans, caches.
``repro.storage``      durable storage: binary snapshots, mmap indexes, bulk ingest, catalog.
``repro.telemetry``    observability: metrics registry, structured tracing, profiles.
``repro.datasets``     paper figure graphs, synthetic/AliBaba-like generators.
``repro.queries``      monadic, binary and n-ary path query semantics.
``repro.learning``     Algorithm 1/2/3, RPNI, characteristic samples (Theorem 3.5).
``repro.interactive``  the interactive scenario: strategies, oracles, the loop.
``repro.evaluation``   metrics, workloads and the Table/Figure experiment drivers.
"""

from repro.errors import (
    AlphabetError,
    AutomatonError,
    ConfigError,
    GraphError,
    InteractionError,
    LearningError,
    QueryError,
    RegexSyntaxError,
    ReproError,
    SampleError,
    SerializationError,
    StorageError,
    TelemetryError,
)
from repro.automata import Alphabet
from repro.engine import EngineStats, QueryEngine
from repro.graphdb import GraphDB
from repro.queries import BinaryPathQuery, NaryPathQuery, PathQuery
from repro.learning import (
    BinarySample,
    NarySample,
    Sample,
    learn_binary_query,
    learn_nary_query,
    learn_path_query,
    learn_with_dynamic_k,
)
from repro.interactive import (
    InteractiveCheckpoint,
    InteractiveSession,
    QueryOracle,
    SessionState,
    make_strategy,
)
from repro.evaluation import f1_score, run_interactive_grid, score_query
from repro.api import (
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    QueryResult,
    Result,
    StorageConfig,
    TelemetryConfig,
    Workspace,
    result_from_dict,
    result_from_json,
    result_to_json,
)
from repro.telemetry import MetricsRegistry, Telemetry
from repro.storage import (
    DatasetCatalog,
    GraphView,
    MappedGraphIndex,
    open_snapshot,
    write_snapshot,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "AlphabetError",
    "AutomatonError",
    "RegexSyntaxError",
    "GraphError",
    "QueryError",
    "SampleError",
    "LearningError",
    "InteractionError",
    "ConfigError",
    "SerializationError",
    "StorageError",
    "TelemetryError",
    # core types
    "Alphabet",
    "GraphDB",
    "QueryEngine",
    "EngineStats",
    "PathQuery",
    "BinaryPathQuery",
    "NaryPathQuery",
    "Sample",
    "BinarySample",
    "NarySample",
    # public API facade
    "Workspace",
    "EngineConfig",
    "TelemetryConfig",
    "LearnerConfig",
    "InteractiveConfig",
    "ExperimentConfig",
    "StorageConfig",
    "Result",
    "QueryResult",
    "result_from_dict",
    "result_from_json",
    "result_to_json",
    # storage layer
    "DatasetCatalog",
    "GraphView",
    "MappedGraphIndex",
    "open_snapshot",
    "write_snapshot",
    # telemetry
    "Telemetry",
    "MetricsRegistry",
    # learning entry points (what Workspace.learn calls; take engine=)
    "learn_path_query",
    "learn_with_dynamic_k",
    "learn_binary_query",
    "learn_nary_query",
    # interactive entry points (what Workspace.learn_interactive builds)
    "QueryOracle",
    "make_strategy",
    "InteractiveSession",
    "InteractiveCheckpoint",
    "SessionState",
    # evaluation
    "f1_score",
    "score_query",
    "run_interactive_grid",
]
