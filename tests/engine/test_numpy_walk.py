"""The vectorised whole-graph walks without a hash pass.

``numpy_evaluate_all`` / ``numpy_binary_evaluate`` dedup a layer by
mask-sort-first-of-run (:func:`executor._np_fresh`).  The monadic twin codes
a product pair state-major (``state * n + node``), cuts a layer into its
states' runs with one ``searchsorted``, and reads a run that holds every
node straight off the label's CSR array; the binary twin groups a layer by
state with a ``bincount``.  Each piece is pinned here against what it
replaced: the ``np.unique`` formula (kept in this file), and the
pure-python walks, *counters and layer profile included* -- also by a
property over random automata (several finals, finals no move reaches,
depth bounds).
"""

from __future__ import annotations

import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_backends import EXPRESSIONS, GRAPHS, plan_for

from repro.automata import Alphabet
from repro.automata.kernel import NO_STATE, TableDFA
from repro.datasets import scale_free_graph
from repro.engine import executor
from repro.engine.executor import KernelStats
from repro.engine.index import GraphIndex
from repro.graphdb import GraphDB
from repro.queries import PathQuery
from repro.storage import open_snapshot, write_snapshot

np = pytest.importorskip("numpy")


def monadic(walk, index, table, **options):
    """``(answer ids ascending, depth_sizes, work counters)`` of one monadic walk."""
    stats, depths = KernelStats(), []
    answer = walk(index, table, stats, depth_sizes=depths, **options)
    return answer.tolist(), depths, stats.mark()


def binary(walk, index, table):
    stats = KernelStats()
    return walk(index, table, stats), stats.mark()


def assert_twins_agree(index, table, **options):
    expected = monadic(executor.evaluate_all, index, table, **options)
    assert monadic(executor.numpy_evaluate_all, index, table, **options) == expected
    return expected


def table_of(expression: str, graph: GraphDB):
    return PathQuery.parse(expression, graph.alphabet).table


# -- (a) the dedup ------------------------------------------------------------


def unique_then_filter(grown, visited):
    """What ``_np_fresh`` was: hash-and-sort everything, then drop the visited."""
    fresh = np.unique(np.concatenate(grown))
    fresh = fresh[~visited[fresh]]
    visited[fresh] = True
    return fresh


SIZE = 40
codes = st.lists(st.integers(0, SIZE - 1), max_size=30)


class TestFresh:
    @settings(max_examples=200, deadline=None)
    @given(grown=st.lists(codes, min_size=1, max_size=4), seen=st.sets(st.integers(0, SIZE - 1)))
    def test_equals_unique_then_filter(self, grown, seen):
        """Duplicates within and across arrays, visited codes, a single
        array, nothing fresh at all: same sorted duplicate-free output, the
        same codes marked, the candidate arrays left as they were."""
        arrays = [np.array(part, dtype=np.int64) for part in grown]
        before = [part.copy() for part in arrays]
        visited = np.zeros(SIZE, dtype=bool)
        visited[sorted(seen)] = True
        expected_visited = visited.copy()
        expected = unique_then_filter([part.copy() for part in arrays], expected_visited)

        fresh = executor._np_fresh(arrays, visited, np)

        assert fresh.dtype == expected.dtype
        assert fresh.tolist() == expected.tolist()
        assert visited.tolist() == expected_visited.tolist()
        assert all((now == was).all() for now, was in zip(arrays, before))

    def test_nothing_fresh_is_empty(self):
        visited = np.ones(4, dtype=bool)
        fresh = executor._np_fresh([np.array([3, 3, 1], dtype=np.int64)], visited, np)
        assert fresh.size == 0 and visited.all()


# -- (b) the full-layer read --------------------------------------------------


def graph_of(labels_per_edge: dict[str, list[tuple[int, int]]], nodes: int) -> GraphDB:
    graph = GraphDB(sorted(labels_per_edge))
    graph.add_nodes(range(nodes))
    for label, edges in labels_per_edge.items():
        for origin, end in edges:
            graph.add_edge(origin, label, end)
    return graph


class TestFullLayerRead:
    def test_non_seed_layer_holding_every_node(self, monkeypatch):
        """``a.b`` on a ring with both labels on every edge: the seed layer
        and layer 1 each hold all nodes at one state, so every expansion
        reads a whole CSR array and the gather never runs."""
        n = 7
        cycle = [(v, (v + 1) % n) for v in range(n)]
        graph = graph_of({"a": cycle, "b": cycle}, n)
        index, table = GraphIndex.build(graph), table_of("a.b", graph)
        answer, depths, work = assert_twins_agree(index, table)
        assert answer == list(range(n)) and depths == [n, n, n]
        assert work == (3 * n, 2 * n)

        def no_gather(*args):
            raise AssertionError("a full layer is read off the CSR array, not gathered")

        monkeypatch.setattr(executor, "_np_gather", no_gather)
        assert monadic(executor.numpy_evaluate_all, index, table) == (answer, depths, work)

    def test_last_layer_at_a_state_with_no_backward_moves(self, monkeypatch):
        """``a.b`` on the path ``0 -a-> 1 -b-> 2``: the last layer is one
        code at the initial state, which no move enters.  The walk has
        nothing to expand there, but the python walk pops it, so it counts
        in ``states_expanded`` and ``depth_sizes`` all the same."""
        graph = graph_of({"a": [(0, 1)], "b": [(1, 2)]}, 3)
        index, table = GraphIndex.build(graph), table_of("a.b", graph)
        assert not executor.bind(index, table).reverse_rows()[table.initial]
        answer, depths, work = assert_twins_agree(index, table)
        assert answer == [index.node_ids[0]]
        assert depths == [3, 1, 1] and work == (5, 2)
        # Cut before the last layer is expanded, it is listed but not counted.
        assert assert_twins_agree(index, table, max_depth=2) == (answer, [3, 1, 1], (4, 2))

        # Layer 2 holds one node at a state without moves and gathers
        # nothing: the one gather is layer 1's, of the middle node.
        gathers, gather = [], executor._np_gather

        def logged_gather(offsets, targets, nodes, np):
            gathers.append(nodes.tolist())
            return gather(offsets, targets, nodes, np)

        monkeypatch.setattr(executor, "_np_gather", logged_gather)
        assert monadic(executor.numpy_evaluate_all, index, table) == (answer, depths, work)
        assert gathers == [[index.node_ids[1]]]

    def test_n_codes_over_two_states_is_not_a_full_layer(self):
        """Layer 1 of ``a.c+b.d`` holds ``n`` codes, two at each of two
        states: a shortcut keyed on the layer's size would read all of
        ``a``'s array for the ``c`` half and select node 3."""
        graph = graph_of(
            {"a": [(3, 2), (2, 0)], "b": [(0, 3)], "c": [(0, 1), (1, 0)], "d": [(2, 3), (3, 2)]},
            4,
        )
        index, table = GraphIndex.build(graph), table_of("a.c+b.d", graph)
        answer, depths, work = assert_twins_agree(index, table)
        ids = index.node_ids
        assert answer == sorted([ids[0], ids[2]])
        assert depths == [4, 4, 2] and work == (10, 6)

    @pytest.mark.parametrize("expression", ["(a+b)*.c", "a.b*", "c", "b*.a.c"])
    @pytest.mark.parametrize("max_depth", [None, 1])
    def test_isolated_nodes(self, expression, max_depth):
        """Isolated nodes sit in the (full) seed layer and contribute empty
        CSR slices; with ``max_depth=1`` the seed layer is the only one read."""
        rng = random.Random(5)
        graph = GraphDB(["a", "b", "c"])
        graph.add_nodes(range(30))
        for _ in range(45):
            graph.add_edge(rng.randrange(0, 30, 2), rng.choice("abc"), rng.randrange(0, 30, 2))
        index = GraphIndex.build(graph)
        assert_twins_agree(index, table_of(expression, graph), max_depth=max_depth)


# -- (c) a read-only mapped index ---------------------------------------------


def test_mapped_snapshot_is_walked_and_left_intact(tmp_path):
    """The shortcut hands the mapped CSR array itself to arithmetic: both
    numpy twins must agree with the python twins on a read-only mmap index,
    and the file must still pass its CRC afterwards."""
    graph = scale_free_graph(120, alphabet_size=4, seed=3)
    path = tmp_path / "walk.rgz"
    write_snapshot(GraphIndex.build(graph), path)
    mapped = open_snapshot(path, use_mmap=True)
    try:
        assert mapped.bwd_targets[0].readonly
        a, b, c, _ = sorted(graph.labels())
        for expression in (f"{a}.{b}*.{c}", f"({a}+{b})*.{c}", f"{c}.{a}"):
            table = table_of(expression, graph)
            assert_twins_agree(mapped, table)
            assert binary(executor.numpy_binary_evaluate, mapped, table) == binary(
                executor.binary_evaluate, mapped, table
            )
    finally:
        mapped.close()
    open_snapshot(path, verify=True).close()


# -- (d) no hash pass, by count -----------------------------------------------


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_twins_complete_without_np_unique(expression, monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("the numpy walks must not call np.unique")

    monkeypatch.setattr(np, "unique", banned)
    plan = plan_for(expression)
    for graph in GRAPHS:
        index = GraphIndex.build(graph)
        assert_twins_agree(index, plan)
        assert binary(executor.numpy_binary_evaluate, index, plan) == binary(
            executor.binary_evaluate, index, plan
        )


# -- (e) the serving shape ----------------------------------------------------


def test_serve_cold_shaped_differential():
    """100 seeded ``A.B*.C`` expressions (1-3-label classes) on a 30k-node
    scale-free graph: one digest over answers, per-query counters and layer
    profiles, equal between the python walk and its numpy twin."""
    graph = scale_free_graph(30_000, alphabet_size=20, zipf_exponent=1.0, seed=31)
    index = GraphIndex.build(graph)
    labels = sorted(graph.labels())
    rng = random.Random(22)

    def label_class() -> str:
        picked = sorted(rng.sample(labels, rng.randint(1, 3)))
        return picked[0] if len(picked) == 1 else "(" + "+".join(picked) + ")"

    tables = [
        table_of(f"{label_class()}.{label_class()}*.{label_class()}", graph) for _ in range(100)
    ]
    digests = []
    for walk in (executor.evaluate_all, executor.numpy_evaluate_all):
        digest = hashlib.sha256()
        for table in tables:
            answer, depths, work = monadic(walk, index, table)
            digest.update(repr((sorted(answer), depths, work)).encode())
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]


# -- (f) the parity property over random automata ------------------------------


ALPHABET = Alphabet(["a", "b", "c", "z"])  # the graphs never carry "z"


@st.composite
def automata(draw):
    """A random partial DFA over :data:`ALPHABET` with at least one final and
    an initial state that does not accept.  Several finals, finals no move
    reaches, states no move leaves and unreachable states all come up; a
    drawn flag adds one final that no move enters or leaves."""
    n = draw(st.integers(2, 5))
    moves = st.one_of(st.just(NO_STATE), st.integers(0, n - 1))
    trans = draw(st.lists(moves, min_size=n * len(ALPHABET), max_size=n * len(ALPHABET)))
    finals = draw(st.integers(1, (1 << (n - 1)) - 1)) << 1  # never state 0
    if draw(st.booleans()):
        trans += [NO_STATE] * len(ALPHABET)
        finals |= 1 << n
        n += 1
    return TableDFA(ALPHABET, n=n, trans=array("i", trans), finals=finals)


@st.composite
def small_graphs(draw):
    nodes = draw(st.integers(0, 12))
    graph = GraphDB(["a", "b", "c"])
    graph.add_nodes(range(nodes))
    if nodes:
        node = st.integers(0, nodes - 1)
        edges = st.tuples(node, st.sampled_from("abc"), node)
        graph.add_edges(draw(st.lists(edges, max_size=40)))
    return graph


#: Tier-1 replays a fixed set of examples; the nightly job draws 5,000 fresh
#: ones (``--hypothesis-profile=nightly``).
NIGHTLY = settings.default.max_examples >= 5_000


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)
@given(graph=small_graphs(), table=automata(), max_depth=st.one_of(st.none(), st.integers(0, 4)))
def test_monadic_twins_agree_on_random_automata(graph, table, max_depth):
    """Answers, layer sizes and work counters, equal between the python walk
    and its numpy twin, with and without a depth bound."""
    assert_twins_agree(GraphIndex.build(graph), table, max_depth=max_depth)
