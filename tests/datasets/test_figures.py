"""Tests that the reproduced figure graphs satisfy the paper's stated properties."""

from oracles.paths import covered_by

from repro.datasets import (
    certain_node_graph,
    example_graph_g0,
    geo_graph,
    inconsistent_sample_graph,
    prefix_equivalent_graph,
    theorem_graph_for_abstar_c,
)
from repro.datasets.figures import g0_characteristic_sample
from repro.learning import Sample, is_consistent, learn_path_query
from repro.queries import PathQuery


class TestGeoGraph:
    def test_running_example_selection(self, engine):
        geo = geo_graph()
        goal = PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)
        assert goal.evaluate(geo, engine=engine) == {"N1", "N2", "N4", "N6"}

    def test_negative_example_n5(self, engine):
        geo = geo_graph()
        goal = PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)
        assert not goal.selects(geo, "N5", engine=engine)

    def test_restaurant_query(self, engine):
        geo = geo_graph()
        restaurant = PathQuery.parse("restaurant", geo.alphabet)
        assert restaurant.evaluate(geo, engine=engine) == {"N5", "N6"}


class TestG0:
    def test_size(self):
        g0 = example_graph_g0()
        assert g0.node_count() == 7
        assert g0.edge_count() == 15

    def test_stated_query_selections(self, engine):
        g0 = example_graph_g0()
        assert PathQuery.parse("a", g0.alphabet).evaluate(g0, engine=engine) == g0.nodes - {"v4"}
        assert PathQuery.parse("(a.b)*.c", g0.alphabet).evaluate(g0, engine=engine) == {"v1", "v3"}
        assert PathQuery.parse("b.b.c.c", g0.alphabet).evaluate(g0, engine=engine) == frozenset()

    def test_paths_of_v1_are_infinite(self):
        g0 = example_graph_g0()
        assert g0.has_cycle_reachable_from("v1")

    def test_aba_matchings(self):
        g0 = example_graph_g0()
        assert covered_by(g0, ("a", "b", "a"), ["v1"])
        assert covered_by(g0, ("a", "b", "a"), ["v3"])

    def test_worked_example_sample_is_consistent(self, engine):
        g0 = example_graph_g0()
        positives, negatives = g0_characteristic_sample()
        assert is_consistent(g0, Sample(positives, negatives), engine=engine)


class TestInconsistentSample:
    def test_sample_is_inconsistent(self, engine):
        graph, positives, negatives = inconsistent_sample_graph()
        assert not is_consistent(graph, Sample(positives, negatives), engine=engine)

    def test_learner_abstains(self, engine):
        graph, positives, negatives = inconsistent_sample_graph()
        result = learn_path_query(graph, Sample(positives, negatives), k=4, engine=engine)
        assert result.is_null


class TestPrefixEquivalentGraph:
    def test_goal_and_simple_query_are_indistinguishable(self, engine):
        graph, positives, negatives = prefix_equivalent_graph()
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        simple = PathQuery.parse("a", graph.alphabet)
        assert (
            goal.evaluate(graph, engine=engine)
            == simple.evaluate(graph, engine=engine)
            == frozenset(positives)
        )

    def test_learner_returns_equivalent_simple_query(self, engine):
        graph, positives, negatives = prefix_equivalent_graph()
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        result = learn_path_query(graph, Sample(positives, negatives), k=3, engine=engine)
        assert result.query is not None
        assert result.query.evaluate(graph, engine=engine) == goal.evaluate(graph, engine=engine)


class TestCertainNodeGraph:
    def test_certain_node_is_certain_positive(self, engine):
        from repro.interactive import is_certain, is_informative

        graph, positives, negatives, certain = certain_node_graph()
        sample = Sample(positives, negatives)
        assert is_certain(graph, sample, certain, engine=engine)
        assert not is_informative(graph, sample, certain, engine=engine)

    def test_unique_consistent_prefix_free_query_is_b(self, engine):
        graph, positives, negatives, certain = certain_node_graph()
        query = PathQuery.parse("b", graph.alphabet)
        assert query.is_consistent_with(graph, positives, negatives, engine=engine)
        assert query.selects(graph, certain, engine=engine)


class TestTheoremGraph:
    def test_characteristic_sample_learns_goal(self, engine):
        graph, positives, negatives = theorem_graph_for_abstar_c()
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        result = learn_path_query(graph, Sample(positives, negatives), k=7, engine=engine)
        assert result.query is not None
        assert result.query.equivalent_to(goal)

    def test_sample_is_consistent_with_goal(self, engine):
        graph, positives, negatives = theorem_graph_for_abstar_c()
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        assert goal.is_consistent_with(graph, positives, negatives, engine=engine)
