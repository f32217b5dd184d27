"""Unit tests for Algorithm 1 (the path-query learner)."""

import pytest

from repro.errors import LearningError
from repro.learning import Sample, learn_path_query, learn_with_dynamic_k


class TestWorkedExample:
    def test_learns_abstar_c_on_g0(self, g0, g0_sample, abstar_c, engine):
        result = learn_path_query(g0, g0_sample, k=3, engine=engine)
        assert not result.is_null
        assert result.query.equivalent_to(abstar_c)

    def test_intermediate_artifacts(self, g0, g0_sample, engine):
        result = learn_path_query(g0, g0_sample, k=3, engine=engine)
        assert result.scps == {"v1": ("a", "b", "c"), "v3": ("c",)}
        assert result.pta_states == 5  # Figure 6(a)
        assert result.generalized_states == 3  # Figure 6(b)
        assert result.selects_all_positives
        assert result.positives_without_scp == frozenset()

    def test_learned_query_is_consistent(self, g0, g0_sample, engine):
        result = learn_path_query(g0, g0_sample, k=3, engine=engine)
        assert result.query.is_consistent_with(
            g0, g0_sample.positives, g0_sample.negatives, engine=engine
        )

    def test_small_k_abstains_but_exposes_hypothesis(self, g0, g0_sample, engine):
        # With k = 2 the SCP abc of v1 is not found; the learned query (from
        # the single SCP c) does not select v1, so Algorithm 1 abstains.
        result = learn_path_query(g0, g0_sample, k=2, engine=engine)
        assert result.is_null
        assert result.query is None
        assert result.hypothesis is not None
        assert result.best_effort_query is result.hypothesis
        assert "v1" in result.positives_without_scp


class TestAbstention:
    def test_empty_sample_abstains(self, g0, engine):
        assert learn_path_query(g0, Sample(), k=2, engine=engine).is_null

    def test_sample_without_positives_abstains(self, g0, engine):
        assert learn_path_query(g0, Sample(negatives={"v2"}), k=2, engine=engine).is_null

    def test_inconsistent_sample_abstains(self, inconsistent_case, engine):
        graph, sample = inconsistent_case
        result = learn_path_query(graph, sample, k=5, engine=engine)
        assert result.is_null
        assert result.scps == {}

    def test_negative_k_raises(self, g0, g0_sample, engine):
        with pytest.raises(LearningError):
            learn_path_query(g0, g0_sample, k=-1, engine=engine)


class TestConsistencyGuarantee:
    def test_learned_query_never_selects_a_negative(self, g0, engine):
        # Soundness: whatever the sample, a returned query is consistent.
        samples = [
            Sample({"v1"}, {"v2"}),
            Sample({"v3", "v5"}, {"v4"}),
            Sample({"v6"}, {"v4", "v7"}),
        ]
        for sample in samples:
            result = learn_path_query(g0, sample, k=3, engine=engine)
            if result.query is not None:
                assert result.query.is_consistent_with(
                    g0, sample.positives, sample.negatives, engine=engine
                )

    def test_no_negatives_learns_epsilon_like_query(self, g0, engine):
        result = learn_path_query(g0, Sample({"v1", "v5"}), k=2, engine=engine)
        assert not result.is_null
        # With no negative example everything generalizes to a single state
        # whose language contains the empty word, so every node is selected.
        assert result.query.evaluate(g0, engine=engine) == g0.nodes


class TestDynamicK:
    def test_dynamic_k_grows_until_success(self, g0, g0_sample, engine):
        result = learn_with_dynamic_k(g0, g0_sample, k_start=2, k_max=5, engine=engine)
        assert not result.is_null
        assert result.k == 3

    def test_dynamic_k_stops_at_k_max(self, inconsistent_case, engine):
        graph, sample = inconsistent_case
        result = learn_with_dynamic_k(graph, sample, k_start=2, k_max=3, engine=engine)
        assert result.is_null
        assert result.k == 3

    def test_invalid_bounds_raise(self, g0, g0_sample, engine):
        with pytest.raises(LearningError):
            learn_with_dynamic_k(g0, g0_sample, k_start=4, k_max=2, engine=engine)


class TestGeoExample:
    def test_learned_query_is_consistent_with_intro_labels(self, geo, engine):
        # The introduction's labels: N2 and N6 positive, N5 negative.
        sample = Sample({"N2", "N6"}, {"N5"})
        result = learn_with_dynamic_k(geo, sample, engine=engine)
        assert not result.is_null
        assert result.query.is_consistent_with(
            geo, sample.positives, sample.negatives, engine=engine
        )

    def test_richer_sample_matches_goal_selection(self, geo, geo_goal, engine):
        sample = Sample({"N1", "N2", "N4", "N6"}, {"N3", "N5", "C1", "R1"})
        result = learn_with_dynamic_k(geo, sample, engine=engine)
        assert not result.is_null
        assert result.query.evaluate(geo, engine=engine) == geo_goal.evaluate(geo, engine=engine)
