"""Unit tests for certain / informative / k-informative node characterizations.

The exact checks are the library's; the k-informativeness walks are the
per-node oracles the session state is pinned against.
"""

import pytest
from oracles.informativeness import is_k_informative, k_informative_nodes, uncovered_k_paths

from repro.errors import GraphError
from repro.interactive import (
    SessionState,
    certain_negative_nodes,
    certain_positive_nodes,
    is_certain,
    is_informative,
)
from repro.interactive.informativeness import is_certain_negative, is_certain_positive
from repro.learning import Sample


class TestCertainNodes:
    def test_figure10_certain_positive(self, certain_case, engine):
        graph, sample, certain = certain_case
        assert is_certain_positive(graph, sample, certain, engine=engine)
        assert not is_certain_negative(graph, sample, certain, engine=engine)
        assert is_certain(graph, sample, certain, engine=engine)

    def test_labeled_nodes_are_not_informative(self, certain_case, engine):
        graph, sample, _ = certain_case
        for node in sample.labeled:
            assert not is_informative(graph, sample, node, engine=engine)

    def test_node_with_fresh_paths_is_informative(self, g0, g0_sample, engine):
        # v6 has paths (e.g. towards v1's abc continuation) not covered by
        # the negatives, and no positive is dominated by it: informative.
        assert is_informative(g0, g0_sample, "v6", engine=engine)

    def test_dead_end_node_is_certain_negative(self, g0, g0_sample, engine):
        # v4 has no outgoing edge: paths(v4) = {eps}, covered by the negatives.
        assert is_certain_negative(g0, g0_sample, "v4", engine=engine)
        assert not is_informative(g0, g0_sample, "v4", engine=engine)

    def test_certain_sets_enumeration(self, certain_case, engine):
        graph, sample, certain = certain_case
        assert certain in certain_positive_nodes(graph, sample, engine=engine)
        negatives = certain_negative_nodes(graph, sample, engine=engine)
        assert negatives.isdisjoint(sample.labeled)

    def test_without_negatives_nothing_is_certain_negative(self, g0, engine):
        sample = Sample(positives={"v1"})
        assert certain_negative_nodes(g0, sample, engine=engine) == frozenset()


class TestExactCheckErrors:
    """An unknown node is a ``GraphError`` at every exact check, whether it is
    the probed node or a node of the sample."""

    @pytest.mark.parametrize(
        "check", [is_certain_positive, is_certain_negative, is_certain, is_informative]
    )
    @pytest.mark.parametrize("where", ["probed", "sample"])
    def test_an_unknown_node_raises_graph_error(self, g0, g0_sample, engine, check, where):
        if where == "probed":
            sample, node = g0_sample, "zz"
        else:
            sample, node = g0_sample.with_negative("zz"), "v6"
        with pytest.raises(GraphError):
            check(g0, sample, node, engine=engine)


class TestKInformativeness:
    def test_uncovered_k_paths_counts(self, g0, g0_sample):
        # v4's only path (eps) is covered, so it has zero uncovered paths.
        assert uncovered_k_paths(g0, "v4", g0_sample.negatives, k=2) == 0
        assert uncovered_k_paths(g0, "v3", g0_sample.negatives, k=2) > 0

    def test_uncovered_k_paths_limit(self, g0):
        full = uncovered_k_paths(g0, "v1", set(), k=2)
        limited = uncovered_k_paths(g0, "v1", set(), k=2, limit=2)
        assert limited == 2 <= full

    def test_k_informative_implies_informative(self, g0, g0_sample, engine):
        for node in g0.nodes:
            if is_k_informative(g0, g0_sample, node, k=2):
                assert is_informative(g0, g0_sample, node, engine=engine)

    def test_a_k_informative_node_may_be_certain_positive(self, certain_case, engine):
        # Figure 10: ``cert``'s path b is uncovered (1-informative), yet pos's
        # paths {eps, a, b} are covered by neg's and cert's: certain-positive.
        graph, sample, certain = certain_case
        state = SessionState(graph, k=1, engine=engine, sample=sample)
        assert state.is_informative(certain)
        assert is_certain_positive(graph, sample, certain, engine=engine)
        assert not is_informative(graph, sample, certain, engine=engine)

    def test_labeled_nodes_are_not_k_informative(self, g0, g0_sample):
        for node in g0_sample.labeled:
            assert not is_k_informative(g0, g0_sample, node, k=3)

    def test_k_informative_nodes_enumeration(self, g0, g0_sample):
        nodes = set(k_informative_nodes(g0, g0_sample, k=2))
        assert "v4" not in nodes
        assert nodes.isdisjoint(g0_sample.labeled)

    def test_with_empty_sample_every_node_is_k_informative(self, g0):
        sample = Sample()
        assert set(k_informative_nodes(g0, sample, k=1)) == set(g0.nodes)

    def test_candidates_restriction(self, g0):
        # With only v2 labeled negative, the unlabeled v1 has the uncovered
        # path abc (3-informative) while the dead-end v4 has nothing.
        sample = Sample(negatives={"v2"})
        nodes = set(k_informative_nodes(g0, sample, k=3, candidates=["v4", "v1"]))
        assert nodes == {"v1"}

    def test_paper_sample_leaves_no_2_informative_node(self, g0, g0_sample):
        # After the worked example's four labels, every remaining node's
        # short paths are covered by the negatives: the interactions would
        # stop (or k would have to grow).
        assert set(k_informative_nodes(g0, g0_sample, k=2)) == set()
