"""Unit tests for the experimental workloads (Table 1 structures and syn1-3)."""

import pytest

from repro.evaluation import biological_queries, biological_workloads, synthetic_workloads
from repro.evaluation.workloads import (
    biological_query_expressions,
    synthetic_query_expressions,
)


class TestBiologicalQueries:
    def test_six_queries_with_table1_names(self):
        queries = biological_queries()
        assert set(queries) == {"bio1", "bio2", "bio3", "bio4", "bio5", "bio6"}

    def test_structures_use_expected_classes(self):
        expressions = biological_query_expressions()
        # bio1 = b.A.A* starts with the rare biomarker label.
        assert "biomarker_of" in str(expressions["bio1"])
        # bio3 = C.E contains no Kleene star.
        assert "*" not in str(expressions["bio3"])
        # bio5 combines the A and I classes.
        assert "inhibits" in str(expressions["bio5"])
        assert "interacts" in str(expressions["bio5"])

    def test_workloads_on_small_graph(self):
        workloads = biological_workloads(node_count=300, edge_count=800, seed=3)
        assert len(workloads) == 6
        # All six queries share the same graph instance.
        graphs = {id(w.graph) for w in workloads}
        assert len(graphs) == 1

    def test_selectivity_ordering_matches_table1(self, engine):
        # Table 1 orders bio1 < bio2 < ... < bio6 by selectivity; check the
        # reproduction keeps the two ends in the right order at small scale.
        workloads = {w.name: w for w in biological_workloads(node_count=600, edge_count=1600, seed=7)}
        bio1, bio3, bio6 = (
            workloads[name].selectivity(engine=engine) for name in ("bio1", "bio3", "bio6")
        )
        assert bio1 <= bio3 <= bio6


class TestSyntheticWorkloads:
    def test_three_queries_per_size(self):
        workloads = synthetic_workloads(node_counts=(500, 800), seed=5)
        names = {w.name for w in workloads}
        assert names == {
            "syn1@500",
            "syn2@500",
            "syn3@500",
            "syn1@800",
            "syn2@800",
            "syn3@800",
        }

    def test_structures_are_a_bstar_c(self):
        for name, expression in synthetic_query_expressions().items():
            assert "*" in str(expression), name

    def test_selectivity_ordering(self, engine):
        workloads = {w.name: w for w in synthetic_workloads(node_counts=(2000,), seed=11)}
        assert (
            workloads["syn1@2000"].selectivity(engine=engine)
            < workloads["syn2@2000"].selectivity(engine=engine)
            < workloads["syn3@2000"].selectivity(engine=engine)
        )

    def test_workload_selectivity_matches_query_on_graph(self, engine):
        workload = synthetic_workloads(node_counts=(400,), seed=2)[0]
        selected = workload.query.evaluate(workload.graph, engine=engine)
        assert workload.selectivity(engine=engine) == pytest.approx(
            len(selected) / workload.graph.node_count()
        )
