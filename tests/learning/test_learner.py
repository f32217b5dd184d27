"""Unit tests for Algorithm 1 (the path-query learner)."""

import importlib
from types import SimpleNamespace

import pytest

from repro.datasets import geo_graph
from repro.engine import QueryEngine
from repro.errors import LearningError
from repro.learning import (
    BinarySample,
    NarySample,
    Sample,
    learn_path_query,
    learn_with_dynamic_k,
)


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


@pytest.mark.parametrize(
    "module_name, learn, sample",
    [
        ("learner", "learn_path_query", Sample(positives={"N2", "N6"}, negatives={"N5"})),
        (
            "binary_learner",
            "learn_binary_query",
            BinarySample(positives={("N2", "N5")}, negatives={("N4", "N5")}),
        ),
        (
            "nary_learner",
            "learn_nary_query",
            NarySample(positives={("N2", "N5", "N3")}, negatives={("N4", "N5", "R1")}),
        ),
    ],
)
def test_a_bare_call_times_its_sample_check(monkeypatch, module_name, learn, sample):
    """Algorithms 1-3 start their clock before they check the sample: the
    learner module's clock moves 100 s inside ``check_against``."""
    module = importlib.import_module(f"repro.learning.{module_name}")
    now = [0.0]
    check = type(sample).check_against

    def slow_check(self, graph):
        now[0] += 100.0
        return check(self, graph)

    monkeypatch.setattr(module, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(type(sample), "check_against", slow_check)
    result = getattr(module, learn)(geo_graph(), sample, k=3, engine=QueryEngine())
    assert result.elapsed == 100.0
