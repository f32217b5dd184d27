"""Unit tests for selectivity measurement (Table 1 support)."""

import pytest

from repro.errors import QueryError
from repro.graphdb import GraphDB
from repro.queries import PathQuery, selectivity, selectivity_report


class TestSelectivity:
    def test_selectivity_value(self, g0, engine):
        query = PathQuery.parse("a", g0.alphabet)
        assert selectivity(query, g0, engine=engine) == pytest.approx(6 / 7)

    def test_report_contains_all_columns(self, g0, engine):
        queries = {
            "q1": PathQuery.parse("(a.b)*.c", g0.alphabet),
            "q2": PathQuery.parse("a", g0.alphabet),
        }
        report = selectivity_report(queries, g0, engine=engine)
        assert set(report) == {"q1", "q2"}
        assert report["q1"]["selected_nodes"] == 2
        assert report["q1"]["selectivity"] == pytest.approx(2 / 7)
        assert report["q1"]["selectivity_percent"] == pytest.approx(100 * 2 / 7)
        assert report["q2"]["expression"] == "a"

    def test_report_accepts_sequence_of_pairs(self, g0, engine):
        report = selectivity_report([("q", PathQuery.parse("c", g0.alphabet))], g0, engine=engine)
        assert report["q"]["selected_nodes"] == len(
            PathQuery.parse("c", g0.alphabet).evaluate(g0, engine=engine)
        )

    def test_empty_graph_raises(self, engine):
        with pytest.raises(QueryError):
            selectivity_report({}, GraphDB(["a"]), engine=engine)
