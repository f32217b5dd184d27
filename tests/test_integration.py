"""End-to-end integration tests replaying the paper's worked examples."""


from repro import (
    GraphDB,
    InteractiveSession,
    PathQuery,
    QueryOracle,
    Sample,
    learn_path_query,
    learn_with_dynamic_k,
    make_strategy,
)
from repro.datasets import example_graph_g0, geo_graph, workflow_graph
from repro.datasets.workflows import workflow_goal_query
from repro.evaluation import f1_score


class TestSection32WorkedExample:
    """The full Section 3.2 walk-through on the graph G0."""

    def test_full_pipeline(self, engine):
        graph = example_graph_g0()
        sample = Sample({"v1", "v3"}, {"v2", "v7"})
        result = learn_path_query(graph, sample, k=3, engine=engine)

        # SCP selection (lines 1-2).
        assert result.scps == {"v1": ("a", "b", "c"), "v3": ("c",)}
        # PTA (line 3, Figure 6a) and generalization (lines 4-5, Figure 6b).
        assert result.pta_states == 5
        assert result.generalized_states == 3
        # Final check and output (lines 6-7).
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        assert result.query.equivalent_to(goal)
        assert f1_score(result.query, goal, graph, engine=engine) == 1.0


class TestIntroductionGeoExample:
    """The introduction's geographical database scenario."""

    def test_static_labels_from_the_introduction(self, engine):
        geo = geo_graph()
        sample = Sample({"N2", "N6"}, {"N5"})
        result = learn_with_dynamic_k(geo, sample, engine=engine)
        assert not result.is_null
        # Consistency with the user's labels is guaranteed; the exact goal is
        # not (the three labels underdetermine it).
        assert result.query.is_consistent_with(
            geo, sample.positives, sample.negatives, engine=engine
        )

    def test_interactive_session_recovers_the_goal_selection(self, engine):
        geo = geo_graph()
        goal = PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)
        outcome = InteractiveSession(
            geo,
            QueryOracle(goal, engine=engine),
            make_strategy("kS", seed=1),
            max_interactions=12,
            engine=engine,
        ).run()
        assert outcome.halted_by == "goal"
        assert outcome.query.evaluate(geo, engine=engine) == goal.evaluate(geo, engine=engine)
        # Far fewer labels than the size of the graph.
        assert outcome.interaction_count < geo.node_count()


class TestWorkflowMiningExample:
    """The introduction's scientific-workflow mining scenario."""

    def test_learning_the_workflow_pattern(self, engine):
        graph = workflow_graph(matching_runs=5, other_runs=10, seed=2)
        goal = PathQuery.parse(workflow_goal_query(), graph.alphabet)
        selected = goal.evaluate(graph, engine=engine)
        positives = set(list(sorted(selected, key=repr))[:3])
        negatives = {
            node
            for node in sorted(graph.nodes - selected, key=repr)
            if str(node).endswith("_s0")
        }
        result = learn_with_dynamic_k(graph, Sample(positives, negatives), k_max=6, engine=engine)
        assert not result.is_null
        # The learned query selects every workflow run that matches the
        # pattern and none of the runs that do not.
        learned_starts = {
            node
            for node in result.query.evaluate(graph, engine=engine)
            if str(node).endswith("_s0")
        }
        goal_starts = {node for node in selected if str(node).endswith("_s0")}
        assert learned_starts == goal_starts


class TestPublicAPISurface:
    """The top-level package re-exports the documented entry points."""

    def test_quickstart_snippet_runs(self, engine):
        graph = GraphDB()
        graph.add_edge("N2", "bus", "N1")
        graph.add_edge("N1", "tram", "N4")
        graph.add_edge("N4", "cinema", "C1")
        sample = Sample(positives={"N2"}, negatives={"C1"})
        result = learn_path_query(graph, sample, k=3, engine=engine)
        assert result.query is not None
        assert result.query.selects(graph, "N2", engine=engine)
        assert not result.query.selects(graph, "C1", engine=engine)

    def test_version_is_exposed(self):
        import repro

        assert repro.__version__
