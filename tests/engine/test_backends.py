"""Cross-backend parity: every kernel backend returns byte-identical results.

The pure-python kernels in :mod:`repro.engine.executor` are the oracle; the
numpy-vectorized kernels and the bidirectional pair search must reproduce
their answers exactly -- selected sets, per-depth layer sizes AND the
kernel work counters -- on a
randomized population of seeded graphs that includes the documented edge
cases (empty language, empty-word acceptance, query labels the graph never
uses, graphs with isolated nodes).
"""

from __future__ import annotations

import random

import pytest

from repro.automata.kernel import TableDFA
from repro.engine import executor
from repro.engine.planner import first_layer_costs, pair_strategy
from repro.engine.executor import KernelStats
from repro.engine.index import GraphIndex
from repro.graphdb import GraphDB
from repro.regex.build import compile_table

LABELS = ["a", "b", "c"]

#: Expressions covering the kernel edge cases: plain walks, stars (empty-word
#: acceptance), an empty language on most graphs ("b.b.c.c"), eps-only, and
#: a label ("z") the graphs never carry.
EXPRESSIONS = [
    "a",
    "(a.b)*.c",
    "a*.(c+b.c)",
    "b.b.c.c",
    "eps",
    "a*",
    "(a+b)*.c",
    "c.b*",
    "z",
]


def random_graph(rng: random.Random) -> GraphDB:
    graph = GraphDB(LABELS)
    node_count = rng.randint(0, 18)
    if node_count and rng.random() < 0.2:
        graph.add_nodes([f"iso{i}" for i in range(rng.randint(1, 3))])
    for _ in range(rng.randint(0, 60)):
        if node_count == 0:
            break
        graph.add_edge(
            rng.randrange(node_count), rng.choice(LABELS), rng.randrange(node_count)
        )
    return graph


def seeded_graphs(count: int) -> list[GraphDB]:
    return [random_graph(random.Random(seed)) for seed in range(count)]


GRAPHS = seeded_graphs(50)
ALPHABET = LABELS + ["z"]


def plan_for(expression: str) -> TableDFA:
    """The expression's plan: the kernel table the walks read."""
    return compile_table(expression, ALPHABET)


class TestNumpyEvaluateAll:
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_matches_python_on_population(self, expression):
        plan = plan_for(expression)
        for graph in GRAPHS:
            index = GraphIndex.build(graph)
            py_stats, np_stats = KernelStats(), KernelStats()
            py_depths: list[int] = []
            np_depths: list[int] = []
            expected = executor.evaluate_all(
                index, plan, py_stats, depth_sizes=py_depths
            )
            got = executor.numpy_evaluate_all(
                index, plan, np_stats, depth_sizes=np_depths
            )
            assert got.tolist() == expected.tolist()
            assert np_depths == py_depths
            assert np_stats.mark() == py_stats.mark()


class TestNumpyBinaryEvaluate:
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_matches_python_on_population(self, expression):
        plan = plan_for(expression)
        for graph in GRAPHS:
            index = GraphIndex.build(graph)
            py_stats, np_stats = KernelStats(), KernelStats()
            expected = executor.binary_evaluate(index, plan, py_stats)
            got = executor.numpy_binary_evaluate(index, plan, np_stats)
            assert got == expected
            assert np_stats.mark() == py_stats.mark()


class TestNumpyTableEvaluateAll:
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @pytest.mark.parametrize("max_depth", [None, 0, 2])
    def test_matches_python_on_population(self, expression, max_depth):
        table = plan_for(expression)
        for graph in GRAPHS[:25]:
            index = GraphIndex.build(graph)
            py_stats, np_stats = KernelStats(), KernelStats()
            py_depths: list[int] = []
            np_depths: list[int] = []
            expected = executor.evaluate_all(
                index, table, py_stats, max_depth=max_depth, depth_sizes=py_depths
            )
            got = executor.numpy_evaluate_all(
                index, table, np_stats, max_depth=max_depth, depth_sizes=np_depths
            )
            assert got.tolist() == expected.tolist()
            assert np_depths == py_depths
            assert np_stats.mark() == py_stats.mark()


class TestBidirectionalPairSearch:
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_matches_forward_oracle(self, expression):
        plan = plan_for(expression)
        for seed, graph in enumerate(GRAPHS):
            index = GraphIndex.build(graph)
            if index.num_nodes == 0:
                continue
            rng = random.Random(1000 + seed)
            for _ in range(6):
                origin = rng.randrange(index.num_nodes)
                end = rng.randrange(index.num_nodes)
                expected = executor.any_selects(index, plan, (origin,), end=end)
                got = executor.bidirectional_pair_selects(index, plan, origin, end)
                assert got == expected, (expression, seed, origin, end)

    def test_kernel_choice_is_deterministic(self):
        plan = plan_for("(a.b)*.c")
        index = GraphIndex.build(GRAPHS[3])
        kind = pair_strategy(*first_layer_costs(index, plan))
        assert kind in ("forward", "bidirectional")
        assert pair_strategy(*first_layer_costs(index, plan)) == kind


class TestBackendResolution:
    def test_auto_prefers_numpy_when_available(self):
        assert executor.resolve_backend("auto") == "numpy"
        assert executor.resolve_backend("python") == "python"
        assert executor.resolve_backend("numpy") == "numpy"

    def test_unknown_backend_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            executor.resolve_backend("fortran")
