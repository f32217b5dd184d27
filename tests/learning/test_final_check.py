"""Line 6 walks only the positives without an SCP; the rest is known.

A positive with an SCP is selected by construction: it has that word as a
path, the PTA accepts the word, and merging and minimising only add words.
So Algorithm 1 (and Algorithm 2 for pairs) walks only the positives that
contributed no SCP, and the SCP-disjunction baseline walks none: its query
misses exactly the positives without an SCP.  Each property here recomputes
the learner's answer the old way, walking every positive, and must agree.

Also pinned: an episode checks its sample against the graph once, and the
SCP search computes a word's reached set only when it extends the word.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_properties_learning import graph_and_arbitrary_sample, random_graphs

from repro.automata.kernel import fold_generalize, pta_table
from repro.engine import QueryEngine
from repro.errors import SampleError
from repro.graphdb import GraphDB
from repro.learning import (
    BinarySample,
    Sample,
    learn_binary_query,
    learn_path_query,
    learn_scp_disjunction,
    learn_with_dynamic_k,
)
from repro.learning.scp import NegativeCoverage, select_smallest_consistent_paths
from repro.queries import PathQuery


class CountingEngine(QueryEngine):
    """Counts the final check's walks: ``selects`` calls, and the binary
    learner's cached ``pair_selects`` calls (its guard's are ephemeral)."""

    walks = 0

    def selects(self, *args, **kwargs):
        self.walks += 1
        return super().selects(*args, **kwargs)

    def pair_selects(self, *args, ephemeral=False):
        self.walks += not ephemeral
        return super().pair_selects(*args, ephemeral=ephemeral)


def learn_walking_every_positive(graph, sample, *, k):
    """Algorithm 1 with line 6 walking every positive: ``(hypothesis table,
    selects every positive)``, or None when no positive has an SCP."""
    engine = QueryEngine()
    scps = select_smallest_consistent_paths(graph, sample, k=k, engine=engine)
    if not scps:
        return None
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    fold = fold_generalize(
        pta_table(graph.alphabet, scps.values()), coverage.merge_guard(graph=graph, engine=engine)
    )
    canonical = fold.to_table().canonical()
    return canonical, all(engine.selects(graph, canonical, node) for node in sample.positives)


@settings(max_examples=80, deadline=None)
@given(case=graph_and_arbitrary_sample(), k=st.integers(min_value=0, max_value=3))
def test_learner_equals_the_check_of_every_positive(case, k):
    graph, sample = case
    engine = CountingEngine()
    result = learn_path_query(graph, sample, k=k, engine=engine)
    expected = learn_walking_every_positive(graph, sample, k=k)
    if expected is None:
        assert result.hypothesis is None and result.is_null and engine.walks == 0
        return
    canonical, selects_all = expected
    assert result.hypothesis.table.fingerprint() == canonical.fingerprint()
    assert result.selects_all_positives == selects_all
    assert (result.query is result.hypothesis) == selects_all and result.is_null != selects_all
    # Only the SCP-less positives are walked, up to the first one missed.
    scp_less = len(result.positives_without_scp)
    assert engine.walks == scp_less if selects_all else 1 <= engine.walks <= scp_less


def chain_case() -> tuple[GraphDB, Sample]:
    """``p``'s paths within k = 2 (``a``, ``a.a``) are all ``n``'s, so ``p`` has
    no SCP; ``q``'s SCP ``a.b`` generalizes to ``a*.b``, which selects ``p``."""
    graph = GraphDB(["a", "b"])
    graph.add_edges([("n", "a", "n1"), ("n1", "a", "n2")])
    graph.add_edges([("q", "a", "q1"), ("q1", "b", "q2")])
    graph.add_edges([("p", "a", "p1"), ("p1", "a", "p2"), ("p2", "b", "p3")])
    return graph, Sample({"p", "q"}, {"n"})


def test_the_final_check_walks_each_scp_less_positive_once():
    graph, sample = chain_case()
    engine = CountingEngine()
    result = learn_path_query(graph, sample, k=2, engine=engine)
    assert result.scps == {"q": ("a", "b")} and result.positives_without_scp == {"p"}
    assert result.query == PathQuery.parse("a*.b", graph.alphabet)
    assert engine.walks == len(result.positives_without_scp) == 1


def test_a_learn_counts_one_evaluation_per_guard_call_and_walk():
    graph, sample = chain_case()
    engine = CountingEngine()
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    learn_path_query(graph, sample, k=2, engine=engine, coverage=coverage)
    assert coverage.guard_calls > 0
    assert engine.stats.evaluations == coverage.guard_calls + engine.walks


@settings(max_examples=80, deadline=None)
@given(case=graph_and_arbitrary_sample(), k=st.integers(min_value=0, max_value=3))
def test_scp_disjunction_equals_the_check_of_every_positive(case, k):
    graph, sample = case
    engine = CountingEngine()
    result = learn_scp_disjunction(graph, sample, k=k, engine=engine)
    assert engine.walks == 0
    if result.hypothesis is None:
        assert result.is_null and not result.selects_all_positives
        return
    oracle = QueryEngine()
    selects_all = all(oracle.selects(graph, result.hypothesis.table, v) for v in sample.positives)
    assert result.selects_all_positives == selects_all == (not result.positives_without_scp)
    assert result.is_null != selects_all


@st.composite
def graph_and_pair_sample(draw):
    """A random graph and an arbitrary labelling of some of its node pairs."""
    graph = draw(random_graphs())
    pair = st.tuples(*[st.sampled_from(sorted(graph.nodes))] * 2)
    positives = draw(st.sets(pair, max_size=4))
    negatives = draw(st.sets(pair, max_size=4)) - positives
    return graph, BinarySample(positives, negatives)


@settings(max_examples=80, deadline=None)
@given(case=graph_and_pair_sample(), k=st.integers(min_value=0, max_value=3))
def test_binary_learner_equals_the_check_of_every_positive_pair(case, k):
    graph, sample = case
    engine = CountingEngine()
    result = learn_binary_query(graph, sample, k=k, engine=engine)
    if not result.scps:
        assert result.is_null and engine.walks == 0
        return
    oracle = QueryEngine()

    def violates(candidate):
        return any(oracle.pair_selects(graph, candidate, *pair) for pair in sample.negatives)

    fold = fold_generalize(pta_table(graph.alphabet, result.scps.values()), violates)
    canonical = fold.to_table().canonical()
    selects_all = all(oracle.pair_selects(graph, canonical, *pair) for pair in sample.positives)
    assert result.selects_all_positives == selects_all
    if selects_all:
        assert result.query.table.fingerprint() == canonical.fingerprint()
    else:
        assert result.is_null
    scp_less = len(sample.positives - result.scps.keys())
    assert engine.walks == scp_less if selects_all else 1 <= engine.walks <= scp_less


# -- the sample is checked once per episode ---------------------------------------


def test_an_episode_checks_its_sample_once(monkeypatch, g0, g0_sample):
    checks = []
    check_against = Sample.check_against
    monkeypatch.setattr(
        Sample, "check_against", lambda self, graph: checks.append(1) or check_against(self, graph)
    )
    # k = 2 abstains (v3's SCP a.b.c is longer), so the episode makes two attempts.
    result = learn_with_dynamic_k(g0, g0_sample, k_start=2, k_max=4, engine=QueryEngine())
    assert result.k == 3 and len(checks) == 1
    learn_path_query(g0, g0_sample, k=3, engine=QueryEngine())
    assert len(checks) == 2


@pytest.mark.parametrize("label", ["+", "-"])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, s: learn_path_query(g, s, k=2, engine=QueryEngine()),
        lambda g, s: learn_with_dynamic_k(g, s, engine=QueryEngine()),
        lambda g, s: select_smallest_consistent_paths(g, s, k=2, engine=QueryEngine()),
    ],
    ids=["learn_path_query", "learn_with_dynamic_k", "select_smallest_consistent_paths"],
)
def test_a_standalone_call_refuses_an_unknown_node(g0, call, label):
    sample = Sample({"v1", "missing"}, {"v2"}) if label == "+" else Sample({"v1"}, {"missing"})
    with pytest.raises(SampleError):
        call(g0, sample)


# -- the SCP search pays only for the words it extends ------------------------------


def test_a_first_uncovered_path_of_length_one_computes_no_reached_set(monkeypatch):
    # u's a is covered by n, its b is not: the search yields b at length 1,
    # after the word a, which it would extend at length 2, was put on the level.
    graph = GraphDB(["a", "b"])
    graph.add_edges([("n", "a", "n1"), ("u", "a", "x"), ("x", "b", "y"), ("u", "b", "y")])
    coverage = NegativeCoverage(QueryEngine().index_for(graph), ["n"])
    assert coverage.smallest_uncovered_path("u", 3, graph.alphabet) == ("b",)
    # The step memo is warm now, so every further move computed is node-side.
    computed = []
    successors = NegativeCoverage._successors
    monkeypatch.setattr(
        NegativeCoverage,
        "_successors",
        lambda self, frontier, label: computed.append(label) or successors(self, frontier, label),
    )
    assert next(coverage.uncovered_paths("u", 3, graph.alphabet)) == ("b",)
    assert computed == []
