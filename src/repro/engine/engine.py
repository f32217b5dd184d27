"""The :class:`QueryEngine` facade: indexed, cached, batchable evaluation.

The engine ties the subsystem together.  For every call it

1. resolves the query to its *plan* through the LRU plan cache.  A plan is
   a kernel :class:`~repro.automata.kernel.TableDFA` -- the one transition
   format every layer shares: a ``PathQuery``/``BinaryPathQuery`` carries
   its canonical table, a raw ``DFA``/``NFA`` is int-coded once at the door
   (:meth:`QueryEngine._coerce_automaton`), and the cache entry is the
   table the planner made of it (or the table itself, planner off) plus
   the rewrite report,
2. resolves the graph to a :class:`~repro.engine.index.GraphIndex`, rebuilt
   only when the graph's version counter moved,
3. consults the versioned result cache for whole-graph evaluations, and
4. otherwise runs one of the product walks of :mod:`repro.engine.executor`.

There is no process-wide engine: every caller owns one (a
:class:`~repro.api.Workspace` builds its own) and hands it to the
high-level APIs (``PathQuery.evaluate`` and friends) as ``engine=``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from time import perf_counter
from weakref import WeakKeyDictionary, ref

from repro.automata.alphabet import Word
from repro.automata.dfa import DFA
from repro.automata.kernel import MergeFold, TableAutomaton, TableDFA
from repro.automata.nfa import NFA
from repro.engine.cache import PlanCache, ResultCache, shared_caches
from repro.engine.executor import KernelStats
from repro.engine import executor
from repro.engine import planner as planning
from repro.engine.index import Answer, GraphIndex
from repro.engine.planner import PLANNER_MODES
from repro.errors import GraphError, QueryError
from repro.graphdb.graph import GraphDB, Node
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import QueryProfile, fingerprint_token

#: Anything the engine accepts as a query: a raw automaton or a query object
#: carrying its canonical ``table`` (``PathQuery``, ``BinaryPathQuery``).
Query = object

#: Labeled dispatch counters: family -> (metric name, help, label key).
_DISPATCH_COUNTERS = {
    "backend": (
        "engine_backend_selected_total",
        "Whole-graph kernel dispatches by selected backend",
        "backend",
    ),
    "pair": (
        "engine_pair_kernel_total",
        "Pair-query kernel dispatches by search strategy",
        "kind",
    ),
    "rewrite": (
        "engine_planner_rewrites_total",
        "Automaton rewrites applied (or refused) by the planner",
        "rewrite",
    ),
}


class _Observation:
    """Stage marks of one whole-graph call, for its span and profile.

    Created only while ``telemetry.active``.  ``compiled`` starts equal to
    ``started`` so an ephemeral call (no plan stage) reports zero compile
    time; ``indexed`` stays ``None`` on a result-cache hit (no index, no
    walk).
    """

    def __init__(self) -> None:
        self.started = self.compiled = perf_counter()
        self.indexed = self.index = self.marks = None
        self.plan = self.plan_outcome = self.report = None
        self.depth_sizes: list[int] | None = None
        self.cache = "miss"
        self.backend: str | None = None


class EngineStats:
    """Cumulative counters of one engine instance.

    Every counter is an instrument in the engine's telemetry
    :class:`~repro.telemetry.metrics.MetricsRegistry` (names like
    ``engine_evaluations_total``), exposed behind plain int properties for
    reads and single-threaded resets (``stats.evaluations = 0``).  The
    engine's own hot paths bump them through :meth:`inc`, which takes the
    instrument's lock -- the property-assignment form is *not* atomic, so
    concurrent callers (the service layer's worker threads) must use
    :meth:`inc`.  The registry view of the same numbers powers Prometheus
    export; this class powers the flat dict snapshots the drivers and
    tests consume.
    """

    _COUNTERS = {
        "evaluations": ("engine_evaluations_total", "Kernel evaluations run"),
        "index_builds": ("engine_index_builds_total", "CSR indexes built from scratch"),
        "index_refreshes": (
            "engine_index_refreshes_total",
            "Stale CSR indexes repaired from a mutation delta",
        ),
        "index_adoptions": (
            "engine_index_adoptions_total",
            "Prebuilt (snapshot-backed) CSR indexes adopted without a build",
        ),
        "plan_compilations": (
            "engine_plan_compilations_total",
            "Automata compiled into plans (plan-cache misses)",
        ),
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for attr, (name, help_text) in self._COUNTERS.items():
            setattr(self, f"_{attr}", self.registry.counter(name, help=help_text))
        self.kernel = KernelStats(self.registry)
        self._caches: tuple = ()

    def attach_caches(self, plan_cache: PlanCache, result_cache: ResultCache) -> None:
        """Let :meth:`snapshot` report the engine's live cache economics."""
        self._caches = (plan_cache, result_cache)

    def inc(self, counter: str, amount: int = 1) -> None:
        """Atomically bump one of the named counters (thread-safe)."""
        getattr(self, f"_{counter}").inc(amount)

    @property
    def states_expanded(self) -> int:
        """Product pairs popped by the kernels so far."""
        return self.kernel.states_expanded

    @property
    def edges_scanned(self) -> int:
        """Graph adjacency entries touched by the kernels so far."""
        return self.kernel.edges_scanned

    def as_dict(self) -> dict[str, int]:
        """The engine-side counters as one flat dict (no cache counters;
        :meth:`snapshot` adds those)."""
        return {
            "evaluations": self.evaluations,
            "index_builds": self.index_builds,
            "index_refreshes": self.index_refreshes,
            "index_adoptions": self.index_adoptions,
            "plan_compilations": self.plan_compilations,
            "states_expanded": self.states_expanded,
            "edges_scanned": self.edges_scanned,
        }

    def snapshot(self) -> dict[str, int | float]:
        """A flat snapshot *including* the attached caches' hit economics."""
        out: dict[str, int | float] = self.as_dict()
        if self._caches:
            plan_cache, result_cache = self._caches
            out.update(
                plan_cache_hits=plan_cache.hits,
                plan_cache_misses=plan_cache.misses,
                result_cache_hits=result_cache.hits,
                result_cache_misses=result_cache.misses,
                plan_cache_hit_rate=plan_cache.hit_rate,
                result_cache_hit_rate=result_cache.hit_rate,
            )
        return out

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EngineStats({fields})"


def _counter_property(attr: str) -> property:
    private = f"_{attr}"

    def fget(self) -> int:
        return getattr(self, private).value

    def fset(self, value: int) -> None:
        getattr(self, private).value = value

    return property(fget, fset, doc=f"Registry-backed counter '{attr}'.")


for _attr in EngineStats._COUNTERS:
    setattr(EngineStats, _attr, _counter_property(_attr))
del _attr


class QueryEngine:
    """Indexed query evaluation with plan and result caching.

    Parameters
    ----------
    plan_cache_size:
        Capacity of the fingerprint -> ``(table, report)`` LRU plan cache.
    result_cache_size:
        Capacity of the versioned whole-graph result cache.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle.  Omitted, the engine
        creates a disabled one (metrics registry only -- the near-zero-cost
        default).  Pass one with tracing or profiling enabled to capture
        spans and per-query profiles.
    backend:
        The whole-graph kernel backend: ``"python"`` (the reference,
        always available), ``"numpy"`` (vectorized frontier expansion;
        needs the optional numpy extra) or ``"auto"`` (numpy when
        importable, else python).  Early-exit kernels always run the
        python path; pair queries additionally pick the bidirectional
        search from the index's degree stats.
    planner:
        ``"auto"`` (the default) turns on :mod:`repro.engine.planner`:
        tables are rewritten against the graph's label set before they
        are cached (one parity-pinned round), early-exit searches bind
        their rows rare-label-first, and -- when the backend is also
        ``"auto"`` -- the kernel of a whole-graph walk is chosen per query
        from the index's label counts instead of being forced by the
        resolved backend.  ``"off"`` walks every table verbatim and
        dispatches the resolved backend.
    cache_budget_bytes:
        Optional byte budget for the result cache (a monadic answer is
        charged its id array's bytes, a pair set a sampled estimate); LRU
        entries are evicted past it.  ``None`` bounds by entry count only.
    """

    def __init__(
        self,
        *,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        telemetry: Telemetry | None = None,
        backend: str = "auto",
        planner: str = "auto",
        cache_budget_bytes: int | None = None,
    ) -> None:
        if planner not in PLANNER_MODES:
            raise ValueError(
                f"unknown planner mode {planner!r}: expected one of {PLANNER_MODES}"
            )
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = ResultCache(
            result_cache_size, budget_bytes=cache_budget_bytes
        )
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.planner = planner
        self.backend = executor.resolve_backend(backend)
        #: Whether whole-graph kernels are chosen per query: only when both
        #: knobs are ``"auto"`` -- an explicitly forced backend is honored
        #: verbatim (parity suites and benchmarks depend on that).
        self._adaptive = planner == "auto" and backend == "auto"
        self._dispatch_counters: dict[tuple[str, str], object] = {}
        self.stats = EngineStats(self.telemetry.registry)
        self.stats.attach_caches(self.plan_cache, self.result_cache)
        self._register_cache_metrics()
        self._profiles = threading.local()
        # Strongly holds each live graph's index; dies with the graph.
        self._indexes: WeakKeyDictionary[GraphDB, GraphIndex] = WeakKeyDictionary()
        # Serializes index resolution (build/refresh/adopt) under concurrent
        # callers; the caches carry their own locks.  RLock: a build span may
        # re-enter index_for through telemetry callbacks.
        self._index_lock = threading.RLock()

    def _register_cache_metrics(self) -> None:
        """Expose live cache hit economics as computed gauges.

        The callbacks read through the engine (not the cache objects bound
        at construction), so :meth:`adopt_shared_caches` swapping the caches
        re-points every gauge automatically.  They hold the engine weakly:
        the registry belongs to the engine's own telemetry, and a strong
        reference would close a cycle that keeps a dropped engine -- and
        every CSR index it holds -- alive until the next full collection.
        """
        registry = self.telemetry.registry
        engine = ref(self)

        def gauge(name: str, read) -> None:
            def value() -> float:
                live = engine()
                return 0 if live is None else read(live)

            registry.callback(name, value)

        gauge("engine_plan_cache_hits", lambda e: e.plan_cache.hits)
        gauge("engine_plan_cache_misses", lambda e: e.plan_cache.misses)
        gauge("engine_plan_cache_size", lambda e: len(e.plan_cache))
        gauge("engine_result_cache_hits", lambda e: e.result_cache.hits)
        gauge("engine_result_cache_misses", lambda e: e.result_cache.misses)
        gauge("engine_result_cache_size", lambda e: len(e.result_cache))

    def adopt_shared_caches(self, content_key: object) -> None:
        """Swap this engine's caches for the process-wide pair of ``content_key``.

        The service layer calls this when a workspace opens a snapshot
        whose content identity (see ``MappedGraphIndex.content_uid``)
        another workspace already serves: both engines then share one plan
        cache and one result cache (both thread-safe), so a query answered
        for one tenant is a warm hit for every sibling.  The registered
        cache gauges read through ``self`` and follow the swap.
        """
        plan_cache, result_cache = shared_caches(
            content_key,
            plan_capacity=self.plan_cache.capacity,
            result_capacity=self.result_cache.capacity,
            budget_bytes=self.result_cache.budget_bytes,
        )
        self.plan_cache = plan_cache
        self.result_cache = result_cache
        self.stats.attach_caches(plan_cache, result_cache)

    # -- resolution ----------------------------------------------------------

    def index_for(self, graph: GraphDB) -> GraphIndex:
        """The (cached) CSR index of ``graph``, refreshed or rebuilt when stale.

        A graph-like object may carry a ``prebuilt_index`` attribute (the
        storage layer's snapshot-backed :class:`GraphView` does): if that
        index is current, the engine adopts it instead of building one --
        this is how an mmap-loaded snapshot is consumed with zero rebuild.

        Thread-safe: the current-index fast path is lock-free; build,
        refresh and adoption are serialized by the engine's index lock, so
        concurrent first touches of one graph build its index exactly once.
        """
        index = self._indexes.get(graph)
        if index is not None and index.is_current(graph):
            return index
        with self._index_lock:
            return self._resolve_index(graph)

    def _resolve_index(self, graph: GraphDB) -> GraphIndex:
        """Slow path of :meth:`index_for` (caller holds the index lock)."""
        index = self._indexes.get(graph)
        if index is not None:
            if index.is_current(graph):
                return index
            # A stale index is repaired from the graph's delta log: 2.3x to
            # 51x a rebuild at 3k-30k nodes, never slower; past a delta it
            # can see is too large, refresh declines and the build below runs.
            with self.telemetry.span("engine.index_refresh") as span:
                refreshed = index.refresh(graph)
                if refreshed is not None:
                    self._indexes[graph] = refreshed
                    self.stats.inc("index_refreshes")
                    span.set(
                        nodes=refreshed.num_nodes,
                        edges=refreshed.edge_count,
                        build_seconds=round(refreshed.build_seconds, 9),
                    )
                    return refreshed
                span.set(fallback="rebuild")
        else:
            prebuilt = getattr(graph, "prebuilt_index", None)
            if prebuilt is not None and prebuilt.is_current(graph):
                self._indexes[graph] = prebuilt
                self.stats.inc("index_adoptions")
                return prebuilt
        with self.telemetry.span("engine.index_build") as span:
            index = GraphIndex.build(graph)
            span.set(
                nodes=index.num_nodes,
                edges=index.edge_count,
                build_seconds=round(index.build_seconds, 9),
            )
        self._indexes[graph] = index
        self.stats.inc("index_builds")
        return index

    def adopt_index(self, graph: GraphDB, index: GraphIndex) -> None:
        """Install a ready-made index for ``graph`` (must be current)."""
        if not index.is_current(graph):
            raise GraphError(
                "cannot adopt a stale index: it was built for "
                f"(uid={index.graph_uid}, version={index.graph_version}), the graph "
                f"is at (uid={graph.uid}, version={graph.version})"
            )
        with self._index_lock:
            self._indexes[graph] = index
        self.stats.inc("index_adoptions")

    # -- planning ------------------------------------------------------------

    def _result_key(self, operation: str, plan: TableDFA, graph: GraphDB) -> tuple:
        """The result-cache key of one (operation, plan, graph generation)."""
        return ResultCache.key(operation, plan.fingerprint(), *self._graph_identity(graph))

    @staticmethod
    def _graph_identity(graph: GraphDB) -> tuple:
        """The (uid, version) pair result-cache keys are scoped by.

        Snapshot-backed graphs substitute their stable content identity
        (path + payload checksum) for the process-minted uid, which is
        what lets two workspaces over the same snapshot share results.
        """
        content = getattr(graph, "content_uid", None)
        if content is not None:
            return (content, graph.version)
        return (graph.uid, graph.version)

    def _resolve_plan(
        self, graph: GraphDB, query: Query, table: TableAutomaton | None = None
    ) -> tuple[TableDFA, dict | None]:
        """The (cached) plan of ``query`` on ``graph``: ``(table, report)``.

        With the planner off the plan is the query's own table under its
        fingerprint, and there is no report.  Otherwise the plan cache is
        keyed by ``(table fingerprint, graph label set)`` -- the rewrite
        depends on which labels the graph carries -- and the entry holds
        the rewritten table (the query's own when nothing was to be done,
        or a parity check failed) beside the rewrite report.  Exactly one
        plan-cache lookup per call, one ``plan_compilations`` per miss (the
        cache-miss telemetry contract).  ``table`` is ``query`` through
        :meth:`_coerce_automaton`, for a caller that already has it.
        """
        if table is None:
            table = self._coerce_automaton(query)
        # Only a query's own table is canonical by construction; a raw
        # automaton int-coded at the door or a materialized fold is not.
        canonical = table is getattr(query, "table", None)
        if isinstance(table, MergeFold):
            table = table.to_table()
        key = table.fingerprint()
        labels_of = getattr(graph, "labels", None)
        planned = self.planner == "auto" and callable(labels_of)
        if planned:
            labels = frozenset(labels_of())
            key = ("planned", key, labels)
        entry = self.plan_cache.get(key)
        if entry is None:
            report = None
            if planned:
                outcome = planning.rewrite_table(table, labels, canonical=canonical)
                table = outcome.table
                report = outcome.to_dict()
                report["fingerprint"] = fingerprint_token(table.fingerprint())
                for name in outcome.applied:
                    self._count("rewrite", name)
            self.stats.inc("plan_compilations")
            entry = (table, report)
            self.plan_cache.put(key, entry)
        return entry

    def _whole_graph_strategy(
        self,
        index: GraphIndex,
        plan: TableDFA,
        *,
        binary: bool,
        ephemeral: bool = False,
    ) -> str:
        """The kernel that runs one whole-graph walk: ``"python"`` or ``"numpy"``.

        The one place the choice is made (dispatch and :meth:`explain` both
        read it).  With both knobs ``"auto"`` and numpy importable it is one
        comparison on the observable input size
        (:func:`~repro.engine.planner.whole_graph_kernel`); the binary one
        is also what keeps the chunked numpy walk off sparse selective
        queries.  A forced backend or ``planner="off"`` gets the resolved
        backend, and so does an ephemeral table, which is walked once and
        not worth pricing.
        """
        if ephemeral or not self._adaptive or self.backend != "numpy":
            return self.backend
        return planning.whole_graph_kernel(index, plan, binary=binary)

    def _pair_strategy(self, index: GraphIndex, plan: TableDFA) -> str:
        """The search of one pair query, from its first-layer fan-outs
        (:func:`~repro.engine.planner.pair_strategy`); the pure-python backend
        always runs the forward oracle, so parity tests can pin the two."""
        if self.backend == "python":
            return "forward"
        return planning.pair_strategy(*planning.first_layer_costs(index, plan))

    @staticmethod
    def _coerce_automaton(query: Query) -> TableAutomaton:
        """The kernel automaton of anything the engine accepts as a query.

        The front door: a kernel table or fold passes as it is, a query
        object hands over its canonical ``table``, and a raw ``DFA``/``NFA``
        is int-coded here, once (an ``NFA`` by subset construction, so what
        is walked is always deterministic).  An NFA with epsilon transitions
        is refused, as the reference product construction refuses it.
        """
        if isinstance(query, TableAutomaton):
            return query
        if isinstance(query, DFA):
            return TableDFA.from_dfa(query)[0]
        if isinstance(query, NFA):
            if query.has_epsilon_transitions:
                raise GraphError("query automata must be epsilon-free; determinize first")
            return TableDFA.from_nfa(query)[0]
        table = getattr(query, "table", None)
        if isinstance(table, TableDFA):
            return table
        raise QueryError(
            f"cannot evaluate {type(query).__name__!r}: expected a DFA, an NFA, "
            "a kernel TableDFA/MergeFold or a query carrying its canonical "
            "'table' (PathQuery, BinaryPathQuery)"
        )

    # -- kernel dispatch -----------------------------------------------------

    def _count(self, family: str, label: str) -> None:
        """Bump one labeled series of a dispatch counter family."""
        counter = self._dispatch_counters.get((family, label))
        if counter is None:
            name, help_text, key = _DISPATCH_COUNTERS[family]
            counter = self.telemetry.registry.counter(name, help=help_text, labels={key: label})
            self._dispatch_counters[family, label] = counter
        counter.inc()

    def _run_whole_graph(
        self,
        index: GraphIndex,
        plan: TableDFA,
        *,
        binary: bool,
        ephemeral: bool = False,
        max_depth: int | None = None,
        depth_sizes: list[int] | None = None,
    ) -> tuple:
        """Run one whole-graph walk on the kernel :meth:`_whole_graph_strategy`
        names: ``(ascending node ids or a set of id pairs, kernel)``."""
        strategy = self._whole_graph_strategy(index, plan, binary=binary, ephemeral=ephemeral)
        monadic, pairs = executor.whole_graph_walks(strategy)
        kernel = self.stats.kernel
        if binary:
            selected = pairs(index, plan, kernel)
        else:
            selected = monadic(index, plan, kernel, depth_sizes=depth_sizes, max_depth=max_depth)
        self._count("backend", strategy)
        return selected, strategy

    def _run_pair_selects(
        self, index: GraphIndex, plan: TableDFA, origin_id: int, end_id: int
    ) -> bool:
        """Run one pair query on the search :meth:`_pair_strategy` names.

        With the planner on the search additionally binds its rows
        rare-label-first (same reachable sets, small frontiers first).
        """
        kind = self._pair_strategy(index, plan)
        self._count("pair", kind)
        kernel, rare_first = self.stats.kernel, self.planner == "auto"
        if kind == "bidirectional":
            return executor.bidirectional_pair_selects(
                index, plan, origin_id, end_id, kernel, rare_first=rare_first
            )
        return executor.any_selects(
            index, plan, (origin_id,), kernel, end=end_id, rare_first=rare_first
        )

    # -- whole-graph evaluation ----------------------------------------------

    @staticmethod
    def _check_max_depth(max_depth: int, ephemeral: bool, query: Query) -> None:
        """Reject a ``max_depth`` the call cannot honour, before any work."""
        if not ephemeral:
            raise QueryError("max_depth is only supported with ephemeral=True")
        if isinstance(query, (DFA, NFA)):
            raise QueryError("max_depth needs a kernel TableDFA/MergeFold query")
        if max_depth < 0:
            raise QueryError(f"max_depth must be non-negative, got {max_depth}")

    def evaluate(
        self,
        graph: GraphDB,
        query: Query,
        *,
        ephemeral: bool = False,
        max_depth: int | None = None,
    ) -> frozenset[Node]:
        """The set of nodes selected on ``graph`` (monadic semantics): the
        names of :meth:`answer`'s ids.

        An answer this call puts in the result cache keeps its name set,
        charged to the cache's byte budget with the ids, so asking again is
        a lookup.
        """
        return self._monadic(graph, query, ephemeral, max_depth, names=True).node_set()

    def answer(
        self,
        graph: GraphDB,
        query: Query,
        *,
        ephemeral: bool = False,
        max_depth: int | None = None,
    ) -> Answer:
        """The nodes selected on ``graph`` as the walk found them: an
        :class:`~repro.engine.index.Answer` of ascending ids.

        This is what the result cache holds, and what a reply is encoded
        from (:meth:`Answer.in_repr_order`) without a set of names ever
        being built.

        Pass ``ephemeral=True`` for throwaway kernel automata that will never
        be evaluated again (e.g. the interactive layer's per-round
        uncovered-words automaton): the engine skips fingerprinting, the
        planner and both caches and runs one backward walk on the CSR
        index.  ``max_depth`` (ephemeral only) bounds the accepted word
        length, which is how batched k-informativeness cuts the product at
        ``k`` symbols.

        With telemetry active the call additionally emits an
        ``engine.evaluate`` span and (in profiling mode) records a
        :class:`~repro.telemetry.profile.QueryProfile`; the answer is
        identical either way (pinned by the telemetry identity tests).
        """
        return self._monadic(graph, query, ephemeral, max_depth, names=False)

    def _monadic(
        self, graph: GraphDB, query: Query, ephemeral: bool, max_depth: int | None, names: bool
    ) -> Answer:
        """Check one monadic call's options, then answer it."""
        if ephemeral:
            if isinstance(query, (DFA, NFA)):
                raise QueryError(
                    "ephemeral whole-graph evaluation needs a kernel "
                    f"TableDFA/MergeFold, got {type(query).__name__}"
                )
            query = self._coerce_automaton(query)
        if max_depth is not None:
            self._check_max_depth(max_depth, ephemeral, query)
        return self._whole_graph(graph, query, "evaluate", ephemeral, max_depth, names)

    def binary_evaluate(self, graph: GraphDB, query: Query) -> frozenset[tuple[Node, Node]]:
        """The set of node pairs selected under the binary semantics."""
        return self._whole_graph(graph, query, "binary_evaluate")

    def _whole_graph(
        self,
        graph: GraphDB,
        query: Query,
        operation: str,
        ephemeral: bool = False,
        max_depth: int | None = None,
        names: bool = False,
    ) -> Answer | frozenset:
        """Answer one whole-graph call; observe it iff telemetry is active.

        Both modes run the same :meth:`_answer`.  The disabled mode hands it
        no observation record and opens no span, so it pays one ``is not
        None`` test per stage and nothing else (the telemetry-overhead
        benchmark gates exactly that).
        """
        binary = operation == "binary_evaluate"
        if not self.telemetry.active:
            return self._answer(graph, query, binary, ephemeral, max_depth, names, None)
        observation = _Observation()
        with self.telemetry.span(f"engine.{operation}") as span:
            result = self._answer(graph, query, binary, ephemeral, max_depth, names, observation)
            self._observe(span, operation, observation, len(result))
        return result

    def _answer(
        self,
        graph: GraphDB,
        query: Query,
        binary: bool,
        ephemeral: bool,
        max_depth: int | None,
        names: bool,
        observation: _Observation | None,
    ) -> Answer | frozenset:
        """Plan cache -> result cache -> index -> walk, for both semantics: an
        :class:`~repro.engine.index.Answer` (monadic; with its name set when
        ``names``) or a set of name pairs."""
        if ephemeral:
            # A fold is materialized first: the walk's bitmap is sized by
            # the state count, and the quotient is the compact form.
            plan = query.to_table() if isinstance(query, MergeFold) else query
            key = None
            if observation is not None:
                observation.cache = "ephemeral"
                observation.depth_sizes = []
        else:
            misses = self.plan_cache.misses
            plan, report = self._resolve_plan(graph, query)
            if observation is not None:
                observation.plan, observation.report = plan, report
                observation.plan_outcome = "miss" if self.plan_cache.misses > misses else "hit"
                observation.compiled = perf_counter()
                if self.telemetry.profiling and not binary:
                    observation.depth_sizes = []
            key = self._result_key("binary" if binary else "eval", plan, graph)
            cached = self.result_cache.get(key)
            if cached is not None:
                if observation is not None:
                    observation.cache = "hit"
                return cached
        index = self.index_for(graph)
        depth_sizes = None
        if observation is not None:
            observation.index, observation.indexed = index, perf_counter()
            observation.marks = self.stats.kernel.mark()
            depth_sizes = observation.depth_sizes
        selected_ids, strategy = self._run_whole_graph(
            index,
            plan,
            binary=binary,
            ephemeral=ephemeral,
            max_depth=max_depth,
            depth_sizes=depth_sizes,
        )
        self.stats.inc("evaluations")
        if binary:
            nodes_by_id = index.nodes_by_id
            result = frozenset((nodes_by_id[src], nodes_by_id[end]) for src, end in selected_ids)
        else:
            result = Answer(selected_ids, index, names=names)
        if key is not None:
            self.result_cache.put(key, result)
        if observation is not None:
            observation.backend = strategy
        return result

    def _observe(self, span, operation: str, observation: _Observation, selected: int) -> None:
        """Stamp span attributes, histogram and (optionally) a profile."""
        ended = perf_counter()
        plan, index = observation.plan, observation.index
        depth_sizes = observation.depth_sizes or []
        total_seconds = ended - observation.started
        token = fingerprint_token(plan.fingerprint()) if plan is not None else None
        attrs = {
            "cache": observation.cache,
            "selected": selected,
            "backend": observation.backend,
            "plan_cache": observation.plan_outcome,
            "plan": token,
        }
        index_seconds = walk_seconds = 0.0
        states = edges = 0
        if index is not None:  # a walk ran (not a result-cache hit)
            index_seconds = observation.indexed - observation.compiled
            walk_seconds = ended - observation.indexed
            now_states, now_edges = self.stats.kernel.mark()
            states = now_states - observation.marks[0]
            edges = now_edges - observation.marks[1]
            attrs.update(
                index_version=index.graph_version,
                states_expanded=states,
                edges_scanned=edges,
                max_frontier=max(depth_sizes, default=0),
            )
        span.set(**{name: value for name, value in attrs.items() if value is not None})
        self.telemetry.registry.histogram(
            "engine_evaluate_seconds",
            help="Wall time of engine evaluations (perf_counter)",
        ).observe(total_seconds)
        if self.telemetry.profiling:
            profile = QueryProfile(
                operation=operation,
                plan=token,
                index_version=index.graph_version if index is not None else None,
                index_uid=index.graph_uid if index is not None else None,
                cache=observation.cache,
                plan_cache=observation.plan_outcome,
                compile_seconds=observation.compiled - observation.started,
                index_seconds=index_seconds,
                walk_seconds=walk_seconds,
                total_seconds=total_seconds,
                states_expanded=states,
                edges_scanned=edges,
                depth_sizes=depth_sizes,
                selected=selected,
            ).to_dict()
            if observation.report is not None:
                profile["planner"] = observation.report
            self.last_profile = profile

    @property
    def last_profile(self) -> dict | None:
        """The profile of the calling thread's most recent evaluation
        (profiling mode only); take it with :meth:`take_profile`."""
        return getattr(self._profiles, "last", None)

    @last_profile.setter
    def last_profile(self, profile: dict | None) -> None:
        self._profiles.last = profile

    def take_profile(self) -> dict | None:
        """Pop the profile of this thread's most recent evaluation (or None).

        Profiles are recorded only in profiling mode
        (``Telemetry(profile=True)``); the engine keeps exactly the latest
        one per thread, so take it right after the call of interest -- no
        other thread's evaluation can replace or take it.
        """
        profile, self.last_profile = self.last_profile, None
        return profile

    def evaluate_many(
        self, graph: GraphDB, queries: Sequence[Query]
    ) -> list[frozenset[Node]]:
        """Evaluate a whole workload of queries on one graph (batch API).

        The index is resolved once up front and every plan/result goes
        through the caches, so a batch amortizes the per-graph work across
        the workload -- the intended call pattern for the static experiment
        drivers and for serving query traffic.
        """
        with self.telemetry.span("engine.evaluate_many", count=len(queries)):
            self.index_for(graph)
            return [self.evaluate(graph, query) for query in queries]

    # -- early-exit membership -----------------------------------------------

    def selects(
        self, graph: GraphDB, query: Query, node: Node, *, ephemeral: bool = False
    ) -> bool:
        """Whether the query selects one given node of ``graph``.

        ``ephemeral=True`` has the same meaning as in :meth:`any_selects`.
        """
        return self.any_selects(graph, query, (node,), ephemeral=ephemeral)

    def any_selects(
        self,
        graph: GraphDB,
        query: Query,
        nodes: Iterable[Node] | executor.FoldReach,
        *,
        ephemeral: bool = False,
        max_depth: int | None = None,
        witness: bool = False,
    ) -> bool | Word | None:
        """Whether the query selects at least one of the given nodes.

        The engine-side intersection-emptiness test behind Algorithm 1's
        merge guard (a candidate is rejected iff it selects a negative node).
        Pass ``ephemeral=True`` for throwaway automata that will never be
        evaluated again (e.g. merge candidates): the engine then skips
        fingerprinting, the planner and both caches and walks the
        automaton as it stands on the CSR index.  ``max_depth`` (ephemeral
        kernel automata only) bounds the witness word's length -- the
        interactive layer's per-candidate k-informativeness check.

        With ``witness=True`` the answer is the evidence instead of the
        verdict: a shortest accepted word labelling a path from one of the
        nodes (possibly the empty tuple -- test ``is not None``), or
        ``None`` when no node is selected.  It always comes from a walk (see
        :func:`repro.engine.executor.any_selects`), never from a cached
        whole-graph result, which has no path to show.  ``nodes`` may be
        one fold run's merge guard (:class:`~repro.engine.executor.FoldReach`).
        """
        if isinstance(nodes, executor.FoldReach):
            if not ephemeral or witness or max_depth is not None:
                raise QueryError("a FoldReach answers ephemeral, unbounded verdicts only")
            found = nodes.selects(self.index_for(graph), query, self.stats.kernel)
            self.stats.inc("evaluations")
            return found
        start_nodes = list(nodes)
        for node in start_nodes:
            if node not in graph:
                raise GraphError(f"node {node!r} is not in the graph")
        walked = self._coerce_automaton(query)
        if max_depth is not None:
            self._check_max_depth(max_depth, ephemeral, query)
        if not start_nodes:
            return None if witness else False
        if not ephemeral:
            walked, _ = self._resolve_plan(graph, query, walked)
            if not witness:
                # A finished whole-graph evaluation answers membership for free.
                cached = self.result_cache.get(self._result_key("eval", walked, graph))
                if cached is not None:
                    return any(node in cached for node in start_nodes)
        index = self.index_for(graph)
        node_ids = index.node_ids
        found = executor.any_selects(
            index,
            walked,
            [node_ids[node] for node in start_nodes],
            self.stats.kernel,
            max_depth=max_depth,
            witness=witness,
            rare_first=not ephemeral and self.planner == "auto",
        )
        self.stats.inc("evaluations")
        return found

    def pair_selects(
        self,
        graph: GraphDB,
        query: Query,
        origin: Node,
        end: Node,
        *,
        ephemeral: bool = False,
    ) -> bool:
        """Whether the query selects the pair ``(origin, end)``.

        ``ephemeral=True`` has the same meaning as in :meth:`any_selects`.
        """
        if origin not in graph or end not in graph:
            raise GraphError("both endpoints must be in the graph")
        automaton = self._coerce_automaton(query)
        if not ephemeral:
            plan, _ = self._resolve_plan(graph, query, automaton)
            cached = self.result_cache.get(self._result_key("binary", plan, graph))
            if cached is not None:
                return (origin, end) in cached
        index = self.index_for(graph)
        origin_id, end_id = index.node_ids[origin], index.node_ids[end]
        if ephemeral:
            found = executor.any_selects(
                index, automaton, (origin_id,), self.stats.kernel, end=end_id
            )
        else:
            found = self._run_pair_selects(index, plan, origin_id, end_id)
        self.stats.inc("evaluations")
        return found

    # -- explain -------------------------------------------------------------

    def explain(
        self, graph: GraphDB, query: Query, *, semantics: str = "path"
    ) -> dict:
        """Plan one query without running it: rewrites, inputs, chosen kernel.

        Returns one JSON-safe dict: the planner's rewrite report, the plan
        table's shape and fingerprint, the ``inputs`` the kernel and pair
        choices read (:func:`~repro.engine.planner.decision_inputs`), the
        strategies the engine would actually dispatch, and the result
        cache's disposition for this exact (plan, graph version) key.
        Resolving the plan warms the plan cache exactly as evaluation would;
        the result cache is only membership-probed (no hit/miss counting),
        so explaining is observationally free.
        """
        if semantics not in ("path", "binary"):
            raise QueryError(
                f"unknown semantics {semantics!r}: expected 'path' or 'binary'"
            )
        binary = semantics == "binary"
        plan, report = self._resolve_plan(graph, query)
        index = self.index_for(graph)
        chosen = self._whole_graph_strategy(index, plan, binary=binary)
        operation = "binary" if binary else "eval"
        key = self._result_key(operation, plan, graph)
        if report is None:
            report = {"rewrites": [], "parity": "off"}
        return {
            "semantics": semantics,
            "planner": {"mode": self.planner, **report},
            "plan": {
                "fingerprint": fingerprint_token(plan.fingerprint()),
                "states": plan.n,
                "symbols": [
                    symbol
                    for position, symbol in enumerate(plan.alphabet.symbols)
                    if any(target >= 0 for target in plan.trans[position :: plan.m])
                ],
            },
            "inputs": planning.decision_inputs(index, plan, binary=binary),
            "chosen": {
                "strategy": chosen,
                "backend": self.backend,
                "pair_strategy": self._pair_strategy(index, plan),
            },
            "cache": {
                "disposition": "hit" if key in self.result_cache else "miss",
                "plan": self.plan_cache.metrics(),
                "result": self.result_cache.metrics(),
            },
            "graph": {
                "nodes": index.num_nodes,
                "edges": index.edge_count,
                "labels": len(index.labels_by_id),
            },
        }

    # -- management ----------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every cached plan, result and index."""
        self.plan_cache.clear()
        self.result_cache.clear()
        with self._index_lock:
            self._indexes.clear()

    def stats_snapshot(self) -> dict[str, int | float]:
        """All counters (kernel work + cache hit rates) as one flat dict."""
        return self.stats.snapshot()

    def __repr__(self) -> str:
        return (
            f"QueryEngine(plans={len(self.plan_cache)}, "
            f"results={len(self.result_cache)}, "
            f"indexes={len(self._indexes)})"
        )
