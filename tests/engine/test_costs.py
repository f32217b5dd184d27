"""The planner's kernel and pair choices, exercised on degree-skewed graphs.

What these tests pin is (a) the free statistics the choices read --
transition-weighted scan work, first-layer fan-outs -- computed exactly, and
(b) the *choices* the engine consumes: python wins small graphs, the
vectorized kernel wins dense whole-graph walks, the chunked numpy binary
kernel is kept off sparse selective workloads, and the pair-strategy rule
reproduces the executor's historical ``forward*8 <= backward`` decision.
:class:`TestOneDispatchRule` pins the engine side: one strategy name per
whole-graph walk, read by dispatch and ``explain`` alike.  (The file keeps
the name of the ``engine/costs.py`` it was written against; PR 23 replaced
that module's estimate lists by three comparisons in ``engine/planner.py``,
and ``test_planner_trial.py`` holds the recorded dispatches they reproduce.)
"""

from __future__ import annotations

import pytest

from repro.automata.kernel import TableDFA
from repro.engine import QueryEngine, have_numpy, planner
from repro.engine.index import GraphIndex
from repro.graphdb import GraphDB
from repro.queries import PathQuery
from repro.regex import compile_query
from repro.telemetry import Telemetry

ALPHABET = ["r", "d", "z"]


def skewed_graph(rare: int = 2, dense: int = 200) -> GraphDB:
    """A graph where label "r" is rare and label "d" is everywhere."""
    graph = GraphDB(["r", "d"])
    for i in range(dense):
        graph.add_edge(f"s{i}", "d", "hub")
    for i in range(rare):
        graph.add_edge(f"t{i}", "r", f"u{i}")
    return graph


def chain_graph(length: int) -> GraphDB:
    graph = GraphDB(["r", "d"])
    for i in range(length):
        graph.add_edge(i, "d", i + 1)
    graph.add_edge(0, "r", 1)
    return graph


def plan_for(expression: str) -> TableDFA:
    """The expression's plan: the kernel table the choices read."""
    return TableDFA.from_dfa(compile_query(expression, ALPHABET))[0]


def pair_choice(graph: GraphDB, expression: str) -> str:
    index = GraphIndex.build(graph)
    return planner.pair_strategy(*planner.first_layer_costs(index, plan_for(expression)))


def kernel_choice(graph: GraphDB, expression: str, *, binary: bool = False) -> str:
    """The walk the planner picks when numpy is there to be picked."""
    return planner.whole_graph_kernel(GraphIndex.build(graph), plan_for(expression), binary=binary)


class TestSharedQuantities:
    def test_scan_work_is_transition_weighted_edge_count(self):
        index = GraphIndex.build(skewed_graph(rare=3, dense=50))
        rare_count = index.label_edge_counts()[index.label_ids["r"]]
        assert rare_count == 3
        # A single-transition automaton scans exactly its label's edges.
        assert planner.scan_work(index, plan_for("r")) == 3
        assert planner.scan_work(index, plan_for("d")) == 50

    def test_absent_labels_contribute_nothing(self):
        index = GraphIndex.build(skewed_graph())
        assert planner.scan_work(index, plan_for("z")) == 0
        assert planner.scan_work(index, plan_for("z.z")) == 0

    def test_first_layer_costs_split_by_direction(self):
        index = GraphIndex.build(skewed_graph(rare=2, dense=200))
        forward, backward = planner.first_layer_costs(index, plan_for("r.d"))
        assert forward == 2  # "r" edges leave the initial state
        assert backward == 200  # "d" edges enter the final state


class TestPairStrategy:
    def test_rare_origin_side_goes_forward(self):
        # forward*8 <= backward: the historical executor rule, preserved.
        assert pair_choice(skewed_graph(rare=2, dense=200), "r.d") == "forward"

    def test_balanced_sides_meet_in_the_middle(self):
        graph = skewed_graph(rare=2, dense=200)
        assert pair_choice(graph, "d.r") == "bidirectional"
        assert pair_choice(graph, "d.d") == "bidirectional"


class TestEvaluateAllEstimates:
    def test_numpy_is_gated_and_there_is_no_third_candidate(self, monkeypatch):
        # Above the crossover, but numpy is not importable: the engine never
        # asks the planner, whose two answers are the only two kernels.
        monkeypatch.setattr("repro.engine.executor.have_numpy", lambda: False)
        engine, graph = QueryEngine(), chain_graph(8000)
        assert engine.backend == "python" and engine._adaptive
        for semantics in ("path", "binary"):
            chosen = engine.explain(graph, query_for("d.d*"), semantics=semantics)["chosen"]
            assert chosen["strategy"] == "python"
        for work in (0, 6_666, 6_667, 10**9):
            assert planner.monadic_kernel(work, 0) in ("python", "numpy")

    def test_python_wins_small_graphs(self):
        assert kernel_choice(skewed_graph(rare=2, dense=30), "d*") == "python"

    def test_numpy_wins_large_dense_walks(self):
        assert kernel_choice(chain_graph(8000), "d*") == "numpy"


class TestBinaryEstimates:
    def test_sparse_selective_prefers_python(self):
        # One "r" edge guards the initial state: almost every source dies in
        # its first layer, which the dense numpy visited mask cannot exploit.
        assert kernel_choice(chain_graph(2000), "r.d*", binary=True) == "python"

    def test_dense_unselective_prefers_numpy(self):
        assert kernel_choice(chain_graph(6000), "d.d*", binary=True) == "numpy"

    def test_numpy_estimate_carries_mask_accounting(self):
        index, plan = GraphIndex.build(chain_graph(100)), plan_for("d*")
        chunks, mask_bytes = planner.binary_mask(index.num_nodes, plan.n)
        assert chunks >= 1 and mask_bytes > 0
        inputs = planner.decision_inputs(index, plan, binary=True)
        assert (inputs["chunks"], inputs["mask_bytes"]) == (chunks, mask_bytes)
        assert "chunks" not in planner.decision_inputs(index, plan, binary=False)


def dispatched(engine: QueryEngine) -> dict[str, int]:
    """``engine_backend_selected_total`` by label."""
    prefix = 'engine_backend_selected_total{backend="'
    return {
        name[len(prefix) : -2]: value
        for name, value in engine.telemetry.registry.snapshot().items()
        if name.startswith(prefix)
    }


def query_for(expression: str) -> PathQuery:
    return PathQuery.parse(expression, ALPHABET)


def dense_graph(nodes: int) -> GraphDB:
    """Every node has a "d" edge to every node: many edges on few nodes."""
    graph = GraphDB(["r", "d"])
    for origin in range(nodes):
        for end in range(nodes):
            graph.add_edge(origin, "d", end)
    return graph


class TestOneDispatchRule:
    """Which kernel runs a whole-graph walk is one name, decided in one place."""

    @pytest.mark.skipif(not have_numpy(), reason="the crossover needs the numpy walk")
    def test_auto_picks_the_cheaper_estimate_and_explain_names_it(self):
        # 30 "d" edges sit under the model's crossover, 6400 above it.
        for graph, expected in ((skewed_graph(2, 30), "python"), (dense_graph(80), "numpy")):
            for semantics, run in (("path", "evaluate"), ("binary", "binary_evaluate")):
                engine = QueryEngine()
                query = query_for("d.d*")
                chosen = engine.explain(graph, query, semantics=semantics)["chosen"]
                assert chosen["strategy"] == expected
                assert dispatched(engine) == {}  # explaining runs nothing
                getattr(engine, run)(graph, query)
                assert dispatched(engine) == {expected: 1}

    @pytest.mark.parametrize(
        "knobs, graph",
        [
            # Each on the side of the crossover where "auto" picks the other walk.
            ({"backend": "python"}, dense_graph(80)),
            ({"planner": "off"}, skewed_graph(2, 30)),
        ],
        ids=["backend=python", "planner=off"],
    )
    def test_forced_knobs_dispatch_the_resolved_backend(self, knobs, graph):
        engine, query = QueryEngine(**knobs), query_for("d.d*")
        for semantics in ("path", "binary"):
            chosen = engine.explain(graph, query, semantics=semantics)["chosen"]
            assert chosen["strategy"] == engine.backend
        engine.evaluate(graph, query)
        engine.binary_evaluate(graph, query)
        assert dispatched(engine) == {engine.backend: 2}

    def test_no_third_label_whatever_the_knobs(self):
        graph = chain_graph(300)
        queries = [query_for(text) for text in ("d*.r", "d.d", "r")]
        for backend in ("auto", "python"):
            for planner in ("auto", "off"):
                engine = QueryEngine(backend=backend, planner=planner)
                engine.evaluate_many(graph, queries)
                engine.binary_evaluate(graph, queries[0])
                engine.evaluate(graph, queries[1].table, ephemeral=True)
                counts = dispatched(engine)
                assert set(counts) <= {"python", "numpy"}
                assert sum(counts.values()) == len(queries) + 2

    def test_profiled_and_unprofiled_walks_do_the_same_work(self):
        graph, query = chain_graph(2000), query_for("d*.r")
        work = []
        for telemetry in (None, Telemetry(enabled=True), Telemetry(profile=True)):
            engine = QueryEngine(telemetry=telemetry)
            engine.evaluate(graph, query)
            work.append((dispatched(engine), engine.stats.kernel.mark()))
        assert work[0] == work[1] == work[2]
        assert work[0][1] > (0, 0)
