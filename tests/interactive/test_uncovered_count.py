"""A candidate's uncovered k-paths are counted, not listed.

``NegativeCoverage.uncovered_count(node, k, alphabet, cap=)`` walks the
levels ``uncovered_paths`` walks, but adds each entry's uncovered
one-label extensions as a bit count and builds no word.  Checked here:

* it equals ``min(cap, len(list(uncovered_paths(...))))`` and the object-level
  oracle ``uncovered_k_paths(..., limit=cap)`` on small graphs, ``k`` in 0..3
  and ``cap`` in 1..5 -- with no negatives, and with alphabets that miss a
  graph label or carry a symbol no edge has (tier-1 replays a fixed stream,
  the nightly job 5,000 random examples);
* an unknown node, a negative ``k`` and a cap below 1 are refused, and the
  session refuses a cap below 1 before it reads or feeds a verdict cache;
* ``kS`` asks every count after its first informative candidate with a cap
  no larger than the best count so far, and still proposes what the
  per-node walk proposes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.informativeness import uncovered_k_paths
from oracles.strategies import stateless_propose

from repro.automata import Alphabet
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.errors import GraphError, InteractionError, LearningError
from repro.graphdb.graph import GraphDB
from repro.interactive import SessionState, make_strategy
from repro.learning import Sample
from repro.learning.scp import NegativeCoverage

NIGHTLY = settings.default.max_examples >= 5_000

#: The graph's own alphabet, one missing a graph label, one with a symbol no
#: edge carries.
ALPHABETS = {"graph": None, "missing": "ab", "extra": "abcd"}


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)
@given(
    graph_seed=st.integers(0, 50),
    nodes=st.integers(2, 14),
    edge_factor=st.sampled_from([0.5, 1.0, 2.0]),
    negatives=st.lists(st.integers(0, 13), max_size=4),
    alphabet=st.sampled_from(sorted(ALPHABETS)),
    k=st.integers(0, 3),
    cap=st.integers(1, 5),
)
def test_the_count_is_the_capped_length_of_the_uncovered_paths(
    graph_seed, nodes, edge_factor, negatives, alphabet, k, cap
):
    graph = scale_free_graph(nodes, edge_factor=edge_factor, alphabet="abc", seed=graph_seed)
    order = graph.node_order
    negatives = {order[position % len(order)] for position in negatives}
    coverage = NegativeCoverage(QueryEngine().index_for(graph), negatives)
    symbols = ALPHABETS[alphabet]
    alphabet = graph.alphabet if symbols is None else Alphabet(symbols)
    for node in order:
        words = list(coverage.uncovered_paths(node, k, alphabet))
        assert coverage.uncovered_count(node, k, alphabet, cap=cap) == min(cap, len(words))
        assert coverage.uncovered_count(node, k, alphabet) == len(words)
        if symbols is None:
            expected = uncovered_k_paths(graph, node, negatives, k=k, limit=cap)
            assert coverage.uncovered_count(node, k, alphabet, cap=cap) == expected


@pytest.mark.parametrize("negatives", [("n",), ()])
def test_the_count_refuses_what_the_listing_refuses(negatives):
    graph = GraphDB(["a", "b"])
    graph.add_edges([("n", "a", "n1"), ("u", "a", "x"), ("u", "b", "y")])
    coverage = NegativeCoverage(QueryEngine().index_for(graph), negatives)
    with pytest.raises(GraphError):
        coverage.uncovered_count("zz", 2, graph.alphabet, cap=3)
    with pytest.raises(LearningError):
        coverage.uncovered_count("u", -1, graph.alphabet, cap=3)
    for cap in (0, -1):
        with pytest.raises(LearningError):
            coverage.uncovered_count("u", 2, graph.alphabet, cap=cap)


def test_counting_leaves_the_step_memo_to_the_steps():
    """The per-state label masks are a memo beside ``_steps``: every
    interning is still one initial state or one distinct (state, label)."""
    graph = scale_free_graph(40, alphabet="abc", seed=3)
    index = QueryEngine().index_for(graph)
    coverage = NegativeCoverage(index, graph.node_order[:3])
    for node in graph.node_order:
        coverage.uncovered_count(node, 3, graph.alphabet)
    assert coverage._covered and len(coverage._frontiers) <= 1 + len(coverage._steps)
    grown = NegativeCoverage(index, graph.node_order[:4], memo_from=coverage)
    assert grown._covered is coverage._covered


@pytest.mark.parametrize("cap", [0, -1])
def test_a_session_refuses_a_cap_below_one_before_any_cache(cap):
    # u's a-path is uncovered (the negative n carries only b): informative at k = 1.
    graph = GraphDB(["a", "b"])
    graph.add_edges([("u", "a", "v"), ("n", "b", "v")])
    state = SessionState(graph, k=1, engine=QueryEngine(), sample=Sample(negatives={"n"}))
    counters = dict(state.counters)
    with pytest.raises(InteractionError):
        state.uncovered_count("u", cap=cap)
    assert state.counters == counters
    assert state.is_informative("u")
    assert state.uncovered_count("u", cap=5) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ks_caps_every_later_count_at_the_best_so_far(monkeypatch, seed):
    graph = scale_free_graph(200, alphabet_size=6, seed=seed)
    order = graph.node_order
    sample = Sample(positives=order[:3], negatives=order[3:9])
    asked: list[tuple[int | None, int]] = []
    count = SessionState.uncovered_count

    def spy(self, node, *, cap=None):
        result = count(self, node, cap=cap)
        asked.append((cap, result))
        return result

    monkeypatch.setattr(SessionState, "uncovered_count", spy)
    capped = 0
    for k in (1, 2, 3):
        state = SessionState(graph, k=k, engine=QueryEngine(), sample=sample)
        backed = make_strategy("kS", seed=seed, pool_size=64)
        stateless = make_strategy("kS", seed=seed, pool_size=64)
        for _round in range(3):
            asked.clear()
            proposed = backed.propose(graph, sample, k=k, state=state)
            assert proposed == stateless_propose(stateless, graph, sample, k=k)
            best = None
            for cap, result in asked:
                if best is not None:
                    assert cap <= best
                    capped += cap < backed.count_cap
                if result and (best is None or result < best):
                    best = result
    assert capped  # the cap did bite below count_cap somewhere
