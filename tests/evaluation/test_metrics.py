"""Unit tests for the F1 / precision / recall metrics."""

import pytest

from repro.evaluation import ClassificationScores, f1_score, score_query
from repro.evaluation.metrics import compare_node_sets
from repro.queries import PathQuery


class TestClassificationScores:
    def test_perfect_prediction(self):
        scores = compare_node_sets({"a", "b"}, {"a", "b"}, {"a", "b", "c"})
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0
        assert scores.accuracy == 1.0

    def test_partial_prediction(self):
        scores = compare_node_sets({"a"}, {"a", "b"}, {"a", "b", "c", "d"})
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)
        assert scores.accuracy == 0.75

    def test_disjoint_prediction(self):
        scores = compare_node_sets({"c"}, {"a"}, {"a", "b", "c"})
        assert scores.f1 == 0.0

    def test_empty_prediction_and_reference(self):
        scores = compare_node_sets(set(), set(), {"a"})
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0

    def test_counts(self):
        scores = ClassificationScores(2, 1, 3, 4)
        assert scores.precision == pytest.approx(2 / 3)
        assert scores.recall == pytest.approx(2 / 5)
        assert scores.accuracy == pytest.approx(6 / 10)


class TestQueryScoring:
    def test_equal_queries_have_f1_one(self, g0, abstar_c, engine):
        assert f1_score(abstar_c, abstar_c, g0, engine=engine) == 1.0

    def test_null_query_scores_as_empty_prediction(self, g0, abstar_c, engine):
        scores = score_query(None, abstar_c, g0, engine=engine)
        assert scores.f1 == 0.0
        assert scores.recall == 0.0

    def test_overgeneral_query_loses_precision(self, g0, abstar_c, engine):
        broad = PathQuery.parse("a", g0.alphabet)  # selects 6 of 7 nodes
        scores = score_query(broad, abstar_c, g0, engine=engine)
        assert scores.recall == 1.0
        assert scores.precision == pytest.approx(2 / 6)
