"""The :class:`Workspace` facade: one graph, one engine, one API.

A workspace owns a :class:`~repro.graphdb.GraphDB` and a private
:class:`~repro.engine.QueryEngine` and exposes the paper's whole pipeline
behind five methods::

    ws = Workspace(graph)                  # or Workspace.from_file("g.tsv")
    ws.query("(tram+bus)*.cinema")         # evaluate   -> QueryResult
    ws.learn(sample, LearnerConfig(...))   # Algorithm 1/2/3 -> *LearnerResult
    ws.learn_interactive("(a.b)*.c")       # Figure 9 loop -> InteractiveResult
    ws.run_experiment(ExperimentConfig(goal="..."))   # Section 5 drivers
    ws.stats()                             # engine + graph counters

Every outcome satisfies the uniform :class:`~repro.api.result.Result`
protocol, so it serializes to the same JSON envelope the ``python -m repro``
CLI emits.  Because the engine is per-workspace, cache hit rates and kernel
counters in :meth:`Workspace.stats` describe exactly this workspace's
traffic -- there is no process-wide engine to fall back to.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

from repro.api.config import (
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    StorageConfig,
    TelemetryConfig,
)
from repro.api.result import ExplainResult, QueryResult
from repro.engine.engine import QueryEngine
from repro.errors import ConfigError, QueryError, SerializationError
from repro.evaluation.interactive import InteractiveExperimentResult, run_interactive_experiment
from repro.evaluation.static import StaticExperimentResult, run_static_experiment
from repro.evaluation.workloads import Workload
from repro.graphdb.graph import GraphDB
from repro.graphdb.io import load_graph, save_graph
from repro.interactive.oracle import Oracle, QueryOracle
from repro.interactive.scenario import (
    InteractiveCheckpoint,
    InteractiveResult,
    InteractiveSession,
)
from repro.interactive.strategies import make_strategy
from repro.learning.baselines import learn_scp_disjunction
from repro.learning.binary_learner import BinaryLearnerResult, learn_binary_query
from repro.learning.learner import (
    LearnerResult,
    dynamic_k_procedure,
    learn_path_query,
    learn_with_dynamic_k,
)
from repro.learning.nary_learner import NaryLearnerResult, learn_nary_query
from repro.learning.sample import BinarySample, NarySample, Sample
from repro.queries.binary import BinaryPathQuery
from repro.queries.path_query import (
    PathQuery,
    parse_cache_stats,
    register_parse_cache_metrics,
)
from repro.regex.ast import Regex

#: Built-in figure graphs :meth:`Workspace.from_figure` (and the CLI's
#: ``--figure``) can load without a graph file.
FIGURE_GRAPHS = ("geo", "g0")

#: The evaluation semantics of :meth:`Workspace.query` / :meth:`Workspace.explain`
#: (and of the CLI's and the daemon's ``semantics``): monadic or classical pairs.
QUERY_SEMANTICS = ("path", "binary")


def check_query_semantics(semantics: object) -> None:
    """Reject anything but the two evaluation semantics."""
    if semantics not in QUERY_SEMANTICS:
        raise ConfigError(f"semantics must be 'path' or 'binary', got {semantics!r}")


def _figure_graph(name: str) -> GraphDB:
    from repro.datasets.figures import example_graph_g0, geo_graph

    if name == "geo":
        return geo_graph()
    if name == "g0":
        return example_graph_g0()
    raise ConfigError(f"unknown figure graph {name!r}; expected one of {FIGURE_GRAPHS}")


class Workspace:
    """A graph database plus a private query engine behind one typed API."""

    def __init__(
        self,
        graph: GraphDB | None = None,
        *,
        engine: QueryEngine | None = None,
        engine_config: EngineConfig | None = None,
        telemetry=None,
        telemetry_config: TelemetryConfig | None = None,
        name: str = "workspace",
    ) -> None:
        if engine is not None and engine_config is not None:
            raise ConfigError("pass either a ready engine or an engine_config, not both")
        if telemetry is not None and telemetry_config is not None:
            raise ConfigError("pass either a ready telemetry or a telemetry_config, not both")
        if engine is not None and (telemetry is not None or telemetry_config is not None):
            raise ConfigError(
                "a ready engine already carries its telemetry; pass telemetry only "
                "together with an engine_config (or neither)"
            )
        if telemetry_config is not None:
            telemetry = telemetry_config.build()
        self._graph = graph if graph is not None else GraphDB()
        self._engine = (
            engine
            if engine is not None
            else (engine_config or EngineConfig()).build(telemetry=telemetry)
        )
        self.name = name
        register_parse_cache_metrics(self.telemetry.registry)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "Workspace":
        """A workspace over a graph file (edge-list ``.tsv`` or ``.json``).

        A binary ``.rgz`` snapshot is routed to :meth:`open_snapshot`.
        """
        if Path(path).suffix == ".rgz":
            return cls.open_snapshot(path, **kwargs)
        workspace = cls(load_graph(path), **kwargs)
        workspace.name = kwargs.get("name", Path(path).stem)
        return workspace

    @classmethod
    def from_figure(cls, name: str, **kwargs) -> "Workspace":
        """A workspace over one of the paper's figure graphs (``geo``, ``g0``)."""
        workspace = cls(_figure_graph(name), **kwargs)
        workspace.name = kwargs.get("name", name)
        return workspace

    @classmethod
    def open_snapshot(
        cls,
        source: str | Path,
        *,
        storage: StorageConfig | None = None,
        **kwargs,
    ) -> "Workspace":
        """A workspace over a binary ``.rgz`` snapshot, opened zero-copy.

        ``source`` is a snapshot file path, or -- when it names no existing
        file and looks like a bare name -- a snapshot registered in the
        configured catalog.  The workspace's graph is a *frozen*
        :class:`~repro.storage.GraphView` whose prebuilt CSR index the
        engine adopts directly, so no edge-by-edge rebuild happens; mutate
        via ``Workspace(ws.graph.thaw())`` when needed.
        """
        from repro.storage.snapshot import open_snapshot
        from repro.storage.view import GraphView

        storage = storage or StorageConfig()
        # Materialize the telemetry before the storage call so the open span
        # lands in the same trace the workspace will keep writing to.
        if kwargs.get("telemetry") is None and kwargs.get("telemetry_config") is not None:
            kwargs = dict(kwargs, telemetry=kwargs["telemetry_config"].build())
            del kwargs["telemetry_config"]
        telemetry = kwargs.get("telemetry")
        path = Path(source)
        # Only a bare name (no suffix, no path separators) falls back to the
        # catalog; a missing *file* path stays a missing-file error.
        looks_like_name = path.suffix == "" and path.name == str(source)
        if path.exists() or not looks_like_name:
            index = open_snapshot(
                path,
                verify=storage.verify_checksum,
                use_mmap=storage.use_mmap,
                telemetry=telemetry,
            )
        else:
            index = storage.catalog().open(
                str(source),
                verify=storage.verify_checksum,
                use_mmap=storage.use_mmap,
                telemetry=telemetry,
            )
        workspace = cls(GraphView(index), **kwargs)
        workspace.name = kwargs.get("name", Path(str(source)).stem)
        return workspace

    def save_snapshot(self, path: str | Path, *, meta: dict | None = None) -> dict:
        """Write the workspace graph (with its CSR index) as a ``.rgz`` snapshot.

        The index is resolved through the workspace engine -- already
        current for a queried workspace, refreshed or built otherwise --
        and serialized together with the node/label tables, so reopening
        via :meth:`open_snapshot` needs no rebuild.  Returns the written
        snapshot's info dict.
        """
        from repro.storage.snapshot import write_snapshot

        payload = dict(meta or {})
        payload.setdefault("workspace", self.name)
        # A declared alphabet constrains which queries parse; persist it so
        # the reopened workspace answers exactly the same query set.
        if getattr(self._graph, "has_fixed_alphabet", False):
            payload.setdefault("alphabet", sorted(self._graph.alphabet))
        index = self._engine.index_for(self._graph)
        return write_snapshot(index, path, meta=payload, telemetry=self.telemetry)

    # -- accessors ------------------------------------------------------------

    @property
    def graph(self) -> GraphDB:
        """The workspace's graph database."""
        return self._graph

    @property
    def engine(self) -> QueryEngine:
        """The workspace-private query engine (isolated caches and stats)."""
        return self._engine

    @property
    def telemetry(self):
        """The engine's :class:`~repro.telemetry.Telemetry` facade."""
        return self._engine.telemetry

    def __repr__(self) -> str:
        return (
            f"Workspace({self.name!r}, nodes={self._graph.node_count()}, "
            f"edges={self._graph.edge_count()})"
        )

    # -- the five public operations -------------------------------------------

    def _coerce_query(
        self, expr: str | Regex | PathQuery | BinaryPathQuery, semantics: str
    ) -> PathQuery | BinaryPathQuery:
        """The query object ``expr`` denotes under ``semantics``, over this graph's
        alphabet (an already-built query of the other class is re-parsed)."""
        check_query_semantics(semantics)
        if not isinstance(expr, (str, Regex, PathQuery, BinaryPathQuery)):
            raise QueryError(
                "expected an expression string (or Regex AST, PathQuery, "
                f"BinaryPathQuery), got {type(expr).__name__}"
            )
        wanted = BinaryPathQuery if semantics == "binary" else PathQuery
        if isinstance(expr, wanted):
            return expr
        source = expr.expression if isinstance(expr, (PathQuery, BinaryPathQuery)) else expr
        return wanted.parse(source, self._graph.alphabet)

    def query(
        self, expr: str | Regex | PathQuery | BinaryPathQuery, *, semantics: str = "path"
    ) -> QueryResult:
        """Evaluate a path query on the workspace graph.

        ``expr`` is a regular-expression string or AST (compiled over the
        graph's alphabet) or an already-built query object.  ``semantics`` selects
        monadic (``"path"``, the paper's main class) or classical binary
        RPQ evaluation.
        """
        started = time.perf_counter()
        # Locally traced runs mint a root TraceContext here (no-op when one
        # is already attached -- e.g. under the serving daemon -- or when
        # tracing is off), so their records carry a trace id and join
        # ``repro trace --id`` exactly like remote queries.
        with self.telemetry.ensure_context(), self.telemetry.span(
            "workspace.query", semantics=semantics
        ) as span:
            query = self._coerce_query(expr, semantics)
            if semantics == "binary":
                selected = query.evaluate(self._graph, engine=self._engine)
            else:
                selected = self._engine.answer(self._graph, query)
            span.set(expression=query.expression, selected=len(selected))
        return QueryResult(
            query=query,
            semantics=semantics,
            selected=selected,
            elapsed=time.perf_counter() - started,
            profile=self._engine.take_profile(),
        )

    def explain(
        self, expr: str | Regex | PathQuery | BinaryPathQuery, *, semantics: str = "path"
    ) -> ExplainResult:
        """Plan a query without running it (``EXPLAIN`` for path queries).

        Accepts everything :meth:`query` accepts and returns an
        :class:`~repro.api.ExplainResult`: the planner's rewrite report
        (parity-pinned against the unrewritten automaton), the compiled
        plan's fingerprint and shape, the inputs the kernel and pair
        choices read, the kernel the engine would dispatch, and the result
        cache's disposition.  No kernel runs; the plan cache is warmed
        exactly as evaluation would warm it.
        """
        started = time.perf_counter()
        with self.telemetry.span("workspace.explain", semantics=semantics) as span:
            query = self._coerce_query(expr, semantics)
            report = self._engine.explain(self._graph, query, semantics=semantics)
            span.set(
                expression=query.expression,
                strategy=report["chosen"]["strategy"],
                rewrites=len(report["planner"].get("rewrites", [])),
            )
        # The engine's report is the result's fields, key for key.
        return ExplainResult(query=query, elapsed=time.perf_counter() - started, **report)

    def learn(
        self,
        sample: Sample | BinarySample | NarySample,
        config: LearnerConfig | None = None,
    ) -> LearnerResult | BinaryLearnerResult | NaryLearnerResult:
        """Learn a query from a fixed sample (Algorithm 1, 2 or 3).

        The algorithm is picked from ``config.semantics``, which must agree
        with the sample's type (a plain :class:`Sample` for ``"path"``, a
        :class:`BinarySample` for ``"binary"``, a :class:`NarySample` for
        ``"nary"``).  With the default config the learner runs with the
        paper's dynamic-``k`` procedure (grow ``k`` up to ``k_max`` while it
        abstains); that applies to all three semantics.
        """
        config = config or LearnerConfig(semantics=self._infer_semantics(sample))
        expected = self._infer_semantics(sample)
        if config.semantics != expected:
            raise ConfigError(
                f"config.semantics={config.semantics!r} does not match the sample type "
                f"({type(sample).__name__} implies {expected!r})"
            )
        if config.semantics == "binary":
            return self._learn_dynamic(learn_binary_query, sample, config)
        if config.semantics == "nary":
            return self._learn_dynamic(learn_nary_query, sample, config)
        if not config.generalize:
            return self._learn_dynamic(learn_scp_disjunction, sample, config)
        return self._learn_dynamic(learn_path_query, sample, config)

    def _learn_dynamic(self, learn, sample, config: LearnerConfig):
        """Run a fixed-``k`` learner, under dynamic ``k`` when configured."""
        if not config.dynamic_k:
            return learn(self._graph, sample, k=config.k, engine=self._engine)
        if learn is learn_path_query:
            # Algorithm 1's attempts share one NegativeCoverage per episode.
            learn_dynamic = learn_with_dynamic_k
        else:
            learn_dynamic = partial(dynamic_k_procedure, learn)
        return learn_dynamic(
            self._graph, sample, k_start=config.k, k_max=config.k_max, engine=self._engine
        )

    def learn_interactive(
        self,
        target: str | PathQuery | Oracle,
        config: InteractiveConfig | None = None,
        *,
        resume_from: "InteractiveCheckpoint | dict | str | Path | None" = None,
        checkpoint_to: str | Path | None = None,
    ) -> InteractiveResult:
        """Run the Figure 9 interactive loop against a goal query or oracle.

        ``target`` is the goal query (an expression string or
        :class:`PathQuery`) labeled by a simulated perfect user, or any
        :class:`~repro.interactive.Oracle` for custom labeling behaviour.

        ``resume_from`` continues a paused session from an
        :class:`~repro.interactive.InteractiveCheckpoint` (the object, its
        ``to_dict`` payload, or a path to a JSON file of it); the snapshot's
        strategy, RNG position, sample and grown ``k`` win over the matching
        ``config`` fields, so the resumed run continues exactly where an
        uninterrupted one would be.  The run *budget* stays with ``config``
        -- resuming is how a paused session gets a fresh budget:
        ``config.max_interactions`` buys that many *new* interactions on top
        of the checkpointed ones (``target_f1`` and ``neighborhood_radius``
        also come from ``config``).  ``checkpoint_to`` writes the session's final checkpoint
        JSON to the given path, resumable later even when the run stopped on
        ``max_interactions``.
        """
        config = config or InteractiveConfig()
        session = self.interactive_session(target, config, resume_from=resume_from)
        result = session.run()
        if checkpoint_to is not None:
            payload = session.checkpoint().to_dict()
            Path(checkpoint_to).write_text(json.dumps(payload, indent=2))
        return result

    def interactive_session(
        self,
        target: str | PathQuery | Oracle,
        config: InteractiveConfig | None = None,
        *,
        resume_from: "InteractiveCheckpoint | dict | str | Path | None" = None,
    ) -> InteractiveSession:
        """Build (or resume) an interactive session without running it.

        This is :meth:`learn_interactive` minus the ``run()``: callers that
        need the session object itself -- to drive rounds manually, or to
        take a checkpoint and stash it somewhere other than a file (the
        query service keeps them in a per-tenant table) -- construct here
        and call :meth:`~repro.interactive.InteractiveSession.run` /
        ``checkpoint()`` themselves.  Budget semantics under ``resume_from``
        are identical to :meth:`learn_interactive`.
        """
        config = config or InteractiveConfig()
        if isinstance(target, Oracle):
            oracle = target
        else:
            goal = (
                target
                if isinstance(target, PathQuery)
                else PathQuery.parse(target, self._graph.alphabet)
            )
            oracle = QueryOracle(
                goal, satisfaction_threshold=config.target_f1, engine=self._engine
            )
        if resume_from is not None:
            checkpoint = self._load_checkpoint(resume_from)
            session = InteractiveSession.resume(
                checkpoint,
                self._graph,
                oracle,
                engine=self._engine,
            )
            # The checkpoint owns the session's past; the config owns the
            # budget of the run being started now.  The session-level budget
            # counts *total* interactions (that is what makes a resumed run
            # replay an uninterrupted one), so the fresh per-run budget is
            # offset by the interactions already on the log -- otherwise
            # resuming with the same config would halt without progress.
            session.max_interactions = (
                None
                if config.max_interactions is None
                else config.max_interactions + len(session.interactions)
            )
            session.neighborhood_radius = config.neighborhood_radius
        else:
            session = InteractiveSession(
                self._graph,
                oracle,
                make_strategy(config.strategy, seed=config.seed, pool_size=config.pool_size),
                k_start=config.k_start,
                k_max=config.k_max,
                max_interactions=config.max_interactions,
                neighborhood_radius=config.neighborhood_radius,
                engine=self._engine,
            )
        return session

    @staticmethod
    def _load_checkpoint(
        source: "InteractiveCheckpoint | dict | str | Path",
    ) -> InteractiveCheckpoint:
        if isinstance(source, InteractiveCheckpoint):
            return source
        if isinstance(source, dict):
            return InteractiveCheckpoint.from_dict(source)
        if isinstance(source, (str, Path)):
            try:
                payload = json.loads(Path(source).read_text())
            except json.JSONDecodeError as error:
                raise SerializationError(
                    f"checkpoint file {source} is not valid JSON: {error}"
                ) from error
            return InteractiveCheckpoint.from_dict(payload)
        raise ConfigError(
            "resume_from must be an InteractiveCheckpoint, its to_dict payload "
            f"or a path to its JSON file, got {type(source).__name__}"
        )

    def run_experiment(
        self, config: ExperimentConfig
    ) -> StaticExperimentResult | InteractiveExperimentResult:
        """Run one Section 5 experiment on the workspace graph.

        The goal query comes from ``config.goal``; ``config.scenario`` picks
        the static sweep (Figures 11/12) or the interactive loop (Table 2).
        The whole run -- sampling, learning, scoring -- uses the workspace
        engine, so :meth:`stats` afterwards describes exactly this
        experiment's work.
        """
        if not isinstance(config, ExperimentConfig):
            raise ConfigError(
                f"run_experiment needs an ExperimentConfig, got {type(config).__name__}"
            )
        if not config.goal:
            raise ConfigError("ExperimentConfig.goal must name the goal query expression")
        goal = PathQuery.parse(config.goal, self._graph.alphabet)
        workload = Workload(
            name=config.name if config.name is not None else self.name,
            query=goal,
            graph=self._graph,
        )
        if config.scenario == "interactive":
            return run_interactive_experiment(workload, config, engine=self._engine)
        return run_static_experiment(workload, config, engine=self._engine)

    def stats(self) -> dict:
        """Engine counters (cache hit rates, kernel work) plus graph shape.

        ``parse_cache`` is the process-wide expression cache's own counters
        (shared by every workspace, so it is a block, not an engine counter).
        """
        snapshot = dict(self._engine.stats_snapshot())
        snapshot.update(
            parse_cache=parse_cache_stats(),
            graph_nodes=self._graph.node_count(),
            graph_edges=self._graph.edge_count(),
            graph_labels=len(self._graph.labels()),
            backend=self._engine.backend,
        )
        return snapshot

    def metrics_text(self) -> str:
        """All registry metrics in the Prometheus text exposition format."""
        return self.telemetry.registry.render_prometheus()

    # -- housekeeping ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Save the workspace graph (format chosen from the file extension)."""
        save_graph(self._graph, path)

    def clear_caches(self) -> None:
        """Drop the workspace engine's cached plans, results and indexes."""
        self._engine.clear_caches()

    @staticmethod
    def _infer_semantics(sample: Sample | BinarySample | NarySample) -> str:
        if isinstance(sample, NarySample):
            return "nary"
        if isinstance(sample, BinarySample):
            return "binary"
        if isinstance(sample, Sample):
            return "path"
        raise ConfigError(
            f"expected a Sample, BinarySample or NarySample, got {type(sample).__name__}"
        )
