"""A pooled candidate's k-informativeness verdict is a coverage walk.

``SessionState.is_informative`` asks the session's ``NegativeCoverage`` for
the candidate's first uncovered path of at most ``k`` symbols -- the walk the
``kS`` count and the learner's SCP already run -- and never cuts
``coverage.table(k)``, which only full scans use.  Checked here:

* the verdict equals the product walk of the uncovered-words table it
  replaced (``executor.any_selects(index, coverage.table(k), [id],
  max_depth=k)``) on small graphs, samples and ``k`` in 0..3 -- tier-1
  replays a fixed stream, the nightly job 5,000 random examples;
* a pooled ``kR`` session runs with ``NegativeCoverage.table`` raising;
* an unknown node is a ``GraphError`` for the verdict and for the count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine, executor
from repro.errors import GraphError
from repro.interactive import InteractiveSession, QueryOracle, SessionState, make_strategy
from repro.learning import Sample
from repro.learning.scp import NegativeCoverage
from repro.queries.path_query import PathQuery

NIGHTLY = settings.default.max_examples >= 5_000


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)
@given(
    graph_seed=st.integers(0, 50),
    nodes=st.integers(2, 14),
    edge_factor=st.sampled_from([0.5, 1.0, 2.0]),
    labels=st.lists(st.tuples(st.integers(0, 13), st.sampled_from("+-")), max_size=6),
    k=st.integers(0, 3),
)
def test_the_verdict_is_the_uncovered_table_walk(graph_seed, nodes, edge_factor, labels, k):
    graph = scale_free_graph(nodes, edge_factor=edge_factor, alphabet="abc", seed=graph_seed)
    order = graph.node_order
    sample = Sample()
    for position, label in labels:
        node = order[position % len(order)]
        if node not in sample.labeled:
            sample = sample.with_example(node, label)
    engine = QueryEngine()
    state = SessionState(graph, k=k, engine=engine, sample=sample)
    index = engine.index_for(graph)
    # With no negatives there is no table: every node's empty path is uncovered.
    negatives = sample.negatives
    table = NegativeCoverage(index, negatives).table(k, graph.alphabet) if negatives else None
    for node in order:
        expected = table is None or executor.any_selects(
            index, table, [index.node_ids[node]], max_depth=k
        )
        assert state.is_informative(node) == expected
        assert state.is_informative(node) == expected  # the cached verdict


@pytest.mark.parametrize("seed", [1, 2])
def test_a_pooled_kr_session_never_cuts_the_table(monkeypatch, seed):
    def refuse(self, k, alphabet):
        raise AssertionError("a pooled proposal cut the uncovered-words table")

    monkeypatch.setattr(NegativeCoverage, "table", refuse)
    graph = scale_free_graph(150, alphabet_size=6, seed=seed)
    engine = QueryEngine()
    goal = PathQuery.parse("(l00+l01).l02*.(l03+l04)", graph.alphabet)
    session = InteractiveSession(
        graph,
        QueryOracle(goal, engine=engine),
        make_strategy("kR", seed=5, pool_size=32),
        k_start=2,
        k_max=4,
        max_interactions=30,
        engine=engine,
        incremental=True,
    )
    while not session.goal_reached() and session.step() is not None:
        pass
    counters = session.state.counters
    assert session.state.sample.negatives and counters["node_walks"] > 0
    assert counters["batched_walks"] == 0


@pytest.mark.parametrize("ask", ["is_informative", "uncovered_count"])
@pytest.mark.parametrize("negatives", [True, False])
def test_an_unknown_node_raises_graph_error(g0, g0_sample, ask, negatives):
    sample = g0_sample if negatives else Sample(positives=g0_sample.positives)
    state = SessionState(g0, k=2, engine=QueryEngine(), sample=sample)
    with pytest.raises(GraphError):
        getattr(state, ask)("zz")
