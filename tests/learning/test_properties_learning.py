"""Property-based tests (hypothesis) on the learning algorithms.

Random small graphs and random goal queries are generated; samples are
labeled by the goal (so they are always consistent), or arbitrarily (so they
may not be).  The invariants tested are the paper's soundness guarantees: a
returned query is always consistent with the sample -- on an arbitrary
labelling the learner abstains rather than break that, at the least ``k``
the per-``k`` learner would stop at -- SCPs are never covered by negatives,
and RPNI's output is always consistent with its word sample.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st
from oracles.operations import language_included
from oracles.paths import covered_by, enumerate_paths, paths_nfa

from repro.api.config import EngineConfig
from repro.automata import Alphabet
from repro.engine import QueryEngine
from repro.graphdb import GraphDB
from repro.learning import (
    Sample,
    bounded_consistent,
    is_consistent,
    learn_path_query,
    learn_with_dynamic_k,
    rpni,
)
from repro.learning.scp import select_smallest_consistent_paths
from repro.queries import PathQuery

ALPHABET = Alphabet(["a", "b", "c"])
SYMBOLS = list(ALPHABET.symbols)

GOAL_EXPRESSIONS = [
    "a",
    "b.c",
    "a.b*",
    "(a.b)*.c",
    "(a+b).c",
    "a*.c",
    "a.(b+c)",
    "c.c",
]


@st.composite
def random_graphs(draw) -> GraphDB:
    """Small random edge-labeled graphs (4-9 nodes, ~2 edges per node)."""
    node_count = draw(st.integers(min_value=4, max_value=9))
    nodes = [f"u{i}" for i in range(node_count)]
    edge_count = draw(st.integers(min_value=node_count, max_value=2 * node_count))
    graph = GraphDB(ALPHABET)
    graph.add_nodes(nodes)
    for _ in range(edge_count):
        origin = draw(st.sampled_from(nodes))
        end = draw(st.sampled_from(nodes))
        label = draw(st.sampled_from(SYMBOLS))
        graph.add_edge(origin, label, end)
    return graph


@st.composite
def graph_and_goal_sample(draw):
    """A random graph plus a sample labeled consistently with a random goal."""
    graph = draw(random_graphs())
    goal = PathQuery.parse(draw(st.sampled_from(GOAL_EXPRESSIONS)), ALPHABET)
    selected = goal.evaluate(graph, engine=QueryEngine())
    unselected = graph.nodes - selected
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    positives = set(rng.sample(sorted(selected), min(len(selected), 3))) if selected else set()
    negatives = set(rng.sample(sorted(unselected), min(len(unselected), 3))) if unselected else set()
    return graph, goal, Sample(positives, negatives)


@st.composite
def graph_and_arbitrary_sample(draw):
    """A random graph plus an arbitrary labelling: consistent with some
    query or not, possibly without positives or without negatives."""
    graph = draw(random_graphs())
    nodes = sorted(graph.nodes)
    labels = draw(st.lists(st.sampled_from("+- "), min_size=len(nodes), max_size=len(nodes)))
    positives = [node for node, label in zip(nodes, labels) if label == "+"]
    negatives = [node for node, label in zip(nodes, labels) if label == "-"]
    return graph, Sample(positives, negatives)


@settings(max_examples=40, deadline=None)
@given(case=graph_and_goal_sample())
def test_learner_output_is_consistent_with_the_sample(case):
    graph, _, sample = case
    engine = QueryEngine()
    result = learn_path_query(graph, sample, k=4, engine=engine)
    if result.query is not None:
        assert result.query.is_consistent_with(
            graph, sample.positives, sample.negatives, engine=engine
        )


@settings(max_examples=40, deadline=None)
@given(case=graph_and_goal_sample())
def test_hypothesis_never_selects_a_negative(case):
    graph, _, sample = case
    engine = QueryEngine()
    result = learn_path_query(graph, sample, k=4, engine=engine)
    if result.hypothesis is not None:
        assert not any(
            result.hypothesis.selects(graph, node, engine=engine) for node in sample.negatives
        )


@settings(max_examples=40, deadline=None)
@given(case=graph_and_goal_sample())
def test_scps_are_uncovered_and_canonically_minimal(case):
    graph, _, sample = case
    engine = QueryEngine()
    scps = select_smallest_consistent_paths(graph, sample, k=3, engine=engine)
    for node, path in scps.items():
        assert not covered_by(graph, path, sample.negatives)
        # No strictly smaller uncovered path exists for that node.
        for smaller in enumerate_paths(graph, node, max_length=3):
            if graph.alphabet.word_key(smaller) >= graph.alphabet.word_key(path):
                break
            assert covered_by(graph, smaller, sample.negatives)


@settings(max_examples=40, deadline=None)
@given(
    positives=st.lists(
        st.lists(st.sampled_from(SYMBOLS), max_size=4).map(tuple), min_size=1, max_size=5
    ),
    negatives=st.lists(
        st.lists(st.sampled_from(SYMBOLS), max_size=4).map(tuple), max_size=5
    ),
)
def test_rpni_is_consistent_with_its_word_sample(positives, negatives):
    negative_set = set(negatives) - set(positives)
    learned = rpni(ALPHABET, positives, negative_set)
    for word in positives:
        assert learned.accepts(word)
    for word in negative_set:
        assert not learned.accepts(word)


@settings(max_examples=30, deadline=None)
@given(case=graph_and_goal_sample())
def test_learner_abstains_or_selects_all_positives(case):
    graph, _, sample = case
    engine = QueryEngine()
    result = learn_path_query(graph, sample, k=4, engine=engine)
    if result.query is not None:
        assert all(result.query.selects(graph, node, engine=engine) for node in sample.positives)


@settings(max_examples=60, deadline=None)
@given(case=graph_and_arbitrary_sample())
def test_dynamic_k_abstains_or_is_consistent_at_the_per_k_learners_k(case):
    graph, sample = case
    result = learn_with_dynamic_k(graph, sample, k_start=1, k_max=3, engine=QueryEngine())
    if result.query is not None:
        oracle = EngineConfig(backend="python", planner="off").build()
        selected = result.query.evaluate(graph, engine=oracle)
        assert sample.positives <= selected and not sample.negatives & selected
    attempts = [learn_path_query(graph, sample, k=k, engine=QueryEngine()) for k in (1, 2, 3)]
    stop = next((attempt for attempt in attempts if not attempt.is_null), attempts[-1])
    assert (result.k, result.hypothesis) == (stop.k, stop.hypothesis)


@settings(max_examples=60, deadline=None)
@given(case=graph_and_arbitrary_sample(), k=st.integers(min_value=0, max_value=4))
def test_exact_consistency_agrees_with_the_object_inclusion_oracle(case, k):
    # Lemma 3.1 on the negatives' frontier automaton against the same
    # inclusions on object NFAs; the bounded check is a certificate, so its
    # yes must be the exact yes.
    graph, sample = case
    consistent = is_consistent(graph, sample, engine=QueryEngine())
    if sample.positives and sample.negatives:
        negative_paths = paths_nfa(graph, sample.negatives)
        covered = [language_included(paths_nfa(graph, v), negative_paths) for v in sample.positives]
        assert consistent == (not any(covered))
    else:
        assert consistent
    if bounded_consistent(graph, sample, k=k, engine=QueryEngine()):
        assert consistent
