"""The coverage's SCP memo: each positive's SCP is searched once per episode.

``NegativeCoverage.smallest_uncovered_path`` keeps, per node, the largest
bound searched and the SCP found (or None).  An SCP ``w`` answers every
bound: the node's paths shorter than ``w`` all precede it in canonical
order, so they are covered.  None answers every bound up to the one
searched.  Checked against a fresh coverage per question:

* any stream of ``(node, k)`` questions on one coverage, non-monotone ``k``
  included, answers what a fresh coverage answers;
* ``k < 0`` and an unknown node are refused where the memo would answer;
* a coverage built ``memo_from`` another searches again: a new negative may
  cover an old SCP.

Tier-1 replays a fixed set of examples (``derandomize``); the nightly job
runs the module under the ``nightly`` Hypothesis profile.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.errors import GraphError, LearningError
from repro.graphdb import GraphDB
from repro.learning import Sample, learner
from repro.learning.scp import NegativeCoverage

NIGHTLY = settings.default.max_examples >= 5_000


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)
@given(
    graph_seed=st.integers(0, 40),
    negatives=st.sets(st.integers(0, 11), max_size=4),
    questions=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 4)), min_size=1, max_size=12),
)
def test_any_stream_of_bounds_answers_what_a_fresh_coverage_answers(
    graph_seed, negatives, questions
):
    graph = scale_free_graph(12, edge_factor=1.5, alphabet="abc", seed=graph_seed)
    nodes = sorted(graph.nodes)
    index, alphabet = QueryEngine().index_for(graph), graph.alphabet
    chosen = [nodes[i] for i in negatives]
    kept = NegativeCoverage(index, chosen)
    for position, k in questions:
        node = nodes[position]
        expected = NegativeCoverage(index, chosen).smallest_uncovered_path(node, k, alphabet)
        assert kept.smallest_uncovered_path(node, k, alphabet) == expected, (node, k)


def counted_searches(monkeypatch) -> list:
    """The ``(node, k)`` of every search a coverage starts from here on."""
    searches: list = []
    real = NegativeCoverage.uncovered_paths

    def counting(self, node, k, alphabet):
        searches.append((node, k))
        return real(self, node, k, alphabet)

    monkeypatch.setattr(NegativeCoverage, "uncovered_paths", counting)
    return searches


def chain_graph() -> GraphDB:
    """``p -a-> x -b-> y``; ``n1`` has no edge and ``n2`` an ``a``-edge."""
    graph = GraphDB(["a", "b"])
    graph.add_edge("p", "a", "x")
    graph.add_edge("x", "b", "y")
    graph.add_edge("n2", "a", "z")
    graph.add_nodes(["n1"])
    return graph


def test_a_word_answers_every_bound_and_none_every_bound_below_its_own(monkeypatch):
    graph = chain_graph()
    searches = counted_searches(monkeypatch)
    coverage = NegativeCoverage(QueryEngine().index_for(graph), ["n2"])  # covers "" and a
    alphabet = graph.alphabet
    assert coverage.smallest_uncovered_path("p", 1, alphabet) is None
    assert coverage.smallest_uncovered_path("p", 0, alphabet) is None  # below 1: no search
    assert searches == [("p", 1)]
    assert coverage.smallest_uncovered_path("p", 3, alphabet) == ("a", "b")
    for k in (2, 4, 1, 0, 3):
        expected = ("a", "b") if k >= 2 else None
        assert coverage.smallest_uncovered_path("p", k, alphabet) == expected
    assert searches == [("p", 1), ("p", 3)]


def test_a_negative_bound_and_an_unknown_node_are_refused_on_a_memo_hit():
    graph = chain_graph()
    coverage = NegativeCoverage(QueryEngine().index_for(graph), ["n2"])
    alphabet = graph.alphabet
    assert coverage.smallest_uncovered_path("p", 3, alphabet) == ("a", "b")
    assert coverage.smallest_uncovered_path("y", 3, alphabet) is None  # y has no path
    for node in ("p", "y"):
        with pytest.raises(LearningError):
            coverage.smallest_uncovered_path(node, -1, alphabet)
    with pytest.raises(GraphError):
        coverage.smallest_uncovered_path("nowhere", 0, alphabet)


def test_a_coverage_built_memo_from_another_searches_its_scps_again():
    graph = chain_graph()
    index, alphabet = QueryEngine().index_for(graph), graph.alphabet
    before = NegativeCoverage(index, ["n1"])  # covers only the empty path
    assert before.smallest_uncovered_path("p", 2, alphabet) == ("a",)
    after = NegativeCoverage(index, ["n1", "n2"], memo_from=before)  # n2 covers a
    assert after._steps is before._steps
    assert after.smallest_uncovered_path("p", 2, alphabet) == ("a", "b")
    assert before.smallest_uncovered_path("p", 2, alphabet) == ("a",)


def test_a_dynamic_k_retry_searches_only_the_positives_without_an_scp(monkeypatch):
    graph = chain_graph()
    graph.add_edge("q", "a", "q")  # q's paths are a^n: covered up to a
    graph.add_edge("r", "b", "r")  # r's SCP is b, at every bound from 1
    searches = counted_searches(monkeypatch)
    result = learner.learn_with_dynamic_k(
        graph, Sample({"p", "q", "r"}, {"n2"}), k_start=1, k_max=2, engine=QueryEngine()
    )
    assert result.k == 2 and result.scps == {"p": ("a", "b"), "q": ("a", "a"), "r": ("b",)}
    assert sorted(searches) == [("p", 1), ("p", 2), ("q", 1), ("q", 2), ("r", 1)]

