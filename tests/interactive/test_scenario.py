"""Unit tests for the interactive learning loop (Figure 9)."""

import pytest

from repro.errors import InteractionError, SampleError
from repro.interactive import (
    InteractiveSession,
    QueryOracle,
    make_strategy,
)
from repro.queries import PathQuery


class TestSessionSteps:
    def test_session_learns_goal_on_g0(self, g0, abstar_c, engine):
        result = InteractiveSession(
            g0,
            QueryOracle(abstar_c, engine=engine),
            make_strategy("kR", seed=3),
            max_interactions=10,
            engine=engine,
        ).run()
        assert result.halted_by == "goal"
        assert result.query is not None
        assert result.query.evaluate(g0, engine=engine) == abstar_c.evaluate(g0, engine=engine)

    def test_session_learns_goal_on_geo(self, geo, geo_goal, engine):
        result = InteractiveSession(
            geo,
            QueryOracle(geo_goal, engine=engine),
            make_strategy("kS", seed=1),
            max_interactions=12,
            engine=engine,
        ).run()
        assert result.halted_by == "goal"
        assert result.query.evaluate(geo, engine=engine) == geo_goal.evaluate(geo, engine=engine)

    def test_interactions_record_labels_and_expressions(self, g0, abstar_c, engine):
        result = InteractiveSession(
            g0,
            QueryOracle(abstar_c, engine=engine),
            make_strategy("kR", seed=3),
            max_interactions=10,
            engine=engine,
        ).run()
        assert result.interaction_count == len(result.interactions)
        labels = {interaction.label for interaction in result.interactions}
        assert labels <= {"+", "-"}
        assert result.labels_fraction(g0) == pytest.approx(
            result.interaction_count / g0.node_count()
        )
        assert result.mean_seconds_between_interactions >= 0.0

    def test_max_interactions_is_respected(self, g0, abstar_c, engine):
        result = InteractiveSession(
            g0,
            QueryOracle(abstar_c, engine=engine),
            make_strategy("random", seed=5),
            max_interactions=2,
            engine=engine,
        ).run()
        assert result.interaction_count <= 2

    def test_interactive_uses_fewer_labels_than_full_labeling(self, geo, geo_goal, engine):
        # The headline claim of Section 5.3, at toy scale: the interactive
        # loop reaches the goal without labeling the whole graph.
        result = InteractiveSession(
            geo,
            QueryOracle(geo_goal, engine=engine),
            make_strategy("kR", seed=0),
            max_interactions=50,
            engine=engine,
        ).run()
        assert result.halted_by == "goal"
        assert result.interaction_count < geo.node_count()

    def test_invalid_k_bounds_raise(self, g0, abstar_c, engine):
        with pytest.raises(InteractionError):
            InteractiveSession(
                g0,
                QueryOracle(abstar_c, engine=engine),
                make_strategy("kR"),
                k_start=3,
                k_max=2,
                engine=engine,
            )


class TestSessionInternals:
    def test_neighborhood_is_a_small_fragment(self, g0, abstar_c, engine):
        session = InteractiveSession(
            g0, QueryOracle(abstar_c, engine=engine), make_strategy("kR", seed=2), engine=engine
        )
        fragment = session.neighborhood_of("v1")
        assert "v1" in fragment.nodes
        assert fragment.node_count() <= g0.node_count()

    def test_step_returns_interaction_and_updates_sample(self, g0, abstar_c, engine):
        session = InteractiveSession(
            g0, QueryOracle(abstar_c, engine=engine), make_strategy("kR", seed=2), engine=engine
        )
        interaction = session.step()
        assert interaction is not None
        assert interaction.node in session.sample.labeled
        assert session.last_result is not None

    @pytest.mark.parametrize("label", ["+", "-"])
    def test_a_label_on_a_node_outside_the_graph_is_refused(self, g0, abstar_c, engine, label):
        """Regression: the label used to be taken, and the next proposal (a
        negative) or learn (a positive) failed far from the mistake."""
        session = InteractiveSession(
            g0, QueryOracle(abstar_c, engine=engine), make_strategy("kR", seed=2), engine=engine
        )
        session.record_label("v2", "-")
        sample, unlabeled = session.sample, list(session.state.unlabeled_ids())
        with pytest.raises(SampleError):
            session.record_label("zz", label)
        assert session.sample is sample and session.state.sample is sample
        assert session.state.unlabeled_ids() == unlabeled
        assert session.propose_node() in g0.nodes
        assert session.learn() is session.last_result

    def test_k_grows_when_no_informative_node_remains(self, certain_case, engine):
        graph, _, _ = certain_case
        goal = PathQuery.parse("b", graph.alphabet)
        session = InteractiveSession(
            graph,
            QueryOracle(goal, engine=engine),
            make_strategy("kR", seed=1),
            k_start=1,
            k_max=3,
            engine=engine,
        )
        outcome = session.run()
        # The loop must terminate one way or another on this tiny graph.
        assert outcome.halted_by in {"goal", "no_informative_node", "exhausted"}

    def test_weaker_halt_condition_stops_earlier(self, g0, abstar_c, engine):
        strict = InteractiveSession(
            g0,
            QueryOracle(abstar_c, engine=engine),
            make_strategy("kR", seed=4),
            max_interactions=10,
            engine=engine,
        ).run()
        relaxed = InteractiveSession(
            g0,
            QueryOracle(abstar_c, satisfaction_threshold=0.5, engine=engine),
            make_strategy("kR", seed=4),
            max_interactions=10,
            engine=engine,
        ).run()
        assert relaxed.interaction_count <= strict.interaction_count
