"""Algorithm 2's SCPs on the CSR index.

A binary SCP is the canonically smallest word of ``paths2_G(origin, end)``
(length <= k) that labels a path of no negative pair.
``NegativeCoverage.smallest_uncovered_pair_path`` finds it by a
breadth-first walk over tuples of frontier states; the dict-adjacency
enumeration it replaced (``oracles.paths``) is the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.paths import smallest_consistent_pair_path
from test_final_check import graph_and_pair_sample

from repro.automata import Alphabet
from repro.engine import QueryEngine
from repro.errors import LearningError
from repro.graphdb import GraphDB
from repro.learning import BinarySample, learn_binary_query
from repro.learning.scp import NegativeCoverage


def index_scp(graph, origin, end, negatives, k):
    coverage = NegativeCoverage(QueryEngine().index_for(graph), ())
    return coverage.smallest_uncovered_pair_path(origin, end, negatives, k, graph.alphabet)


@settings(max_examples=120, deadline=None)
@given(case=graph_and_pair_sample(), k=st.integers(min_value=0, max_value=3))
def test_the_index_walk_finds_the_oracles_scp(case, k):
    graph, sample = case
    coverage = NegativeCoverage(QueryEngine().index_for(graph), ())  # one memo, many searches
    for origin, end in sorted(sample.positives | sample.negatives):
        expected = smallest_consistent_pair_path(graph, origin, end, sample.negatives, k=k)
        found = coverage.smallest_uncovered_pair_path(
            origin, end, sample.negatives, k, graph.alphabet
        )
        assert found == expected, (origin, end, k)


def test_origin_equal_to_end_has_the_empty_word(g0):
    assert index_scp(g0, "v1", "v1", [], 2) == ()
    assert index_scp(g0, "v1", "v1", [("v2", "v5")], 0) == ()


def test_a_negative_loop_pair_covers_the_empty_word(g0):
    # v4 has no out-edge: (v4, v4) covers the empty word and nothing else, so
    # v1's smallest way back to itself, aaa, is its SCP.
    assert index_scp(g0, "v1", "v1", [("v4", "v4")], 2) is None
    assert index_scp(g0, "v1", "v1", [("v4", "v4")], 3) == ("a", "a", "a")
    # v7 loops on a and b: (v7, v7) covers every word of v1's cycles.
    assert index_scp(g0, "v1", "v1", [("v7", "v7")], 6) is None
    for k in range(7):
        for negatives in ([("v4", "v4")], [("v7", "v7")]):
            expected = smallest_consistent_pair_path(g0, "v1", "v1", negatives, k=k)
            assert index_scp(g0, "v1", "v1", negatives, k) == expected


def test_a_negative_with_no_path_covers_nothing(g0):
    # v4 has no out-edge, so (v4, v1) labels no word: v1's SCP to v4 is its
    # smallest path there.
    assert index_scp(g0, "v1", "v4", [("v4", "v1")], 2) is None
    assert index_scp(g0, "v1", "v4", [("v4", "v1")], 3) == ("a", "a", "a")
    # v3 reaches v4 by every word v1 does, up to length 5.
    assert index_scp(g0, "v1", "v4", [("v4", "v1"), ("v3", "v4")], 5) is None


def test_an_alphabet_symbol_the_index_lacks_is_skipped():
    # z has no edge and comes first in the alphabet's order.
    graph = GraphDB(Alphabet(["z", "b", "a"], sort=False))
    graph.add_edges([("x", "a", "y"), ("y", "b", "x"), ("x", "b", "y"), ("y", "a", "y")])
    assert "z" not in QueryEngine().index_for(graph).label_ids
    assert index_scp(graph, "x", "y", [], 2) == ("b",)
    assert index_scp(graph, "x", "y", [("y", "x")], 3) == ("a",)  # b leads y to x
    for negatives in ([], [("x", "y")], [("y", "y"), ("y", "x")]):
        for origin, end in [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]:
            for k in range(5):
                expected = smallest_consistent_pair_path(graph, origin, end, negatives, k=k)
                assert index_scp(graph, origin, end, negatives, k) == expected


def test_a_negative_bound_is_refused(g0):
    with pytest.raises(LearningError):
        index_scp(g0, "v1", "v1", [], -1)


def test_the_binary_learner_never_reads_dict_adjacency(g0, monkeypatch):
    # GraphDB keeps no adjacency map, and once the engine holds the graph's
    # CSR index the learner reads no edge of the graph itself.
    assert not hasattr(GraphDB, "successors")
    sample = BinarySample([("v1", "v4"), ("v3", "v4")], [("v2", "v4"), ("v7", "v7")])
    expected = learn_binary_query(g0, sample, k=3, engine=QueryEngine()).to_dict()
    engine = QueryEngine()
    engine.index_for(g0)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the graph's edges were read")

    monkeypatch.setattr(GraphDB, "iter_edges", refuse)
    monkeypatch.setattr(GraphDB, "edges", property(refuse))
    monkeypatch.setattr(GraphDB, "has_edge", refuse)
    result = learn_binary_query(g0, sample, k=3, engine=engine)
    assert result.scps and result.ok
    assert {**result.to_dict(), "elapsed": 0} == {**expected, "elapsed": 0}
