"""Unit tests for the disjunction-of-SCPs baseline learner."""

from repro.learning import Sample, learn_path_query, learn_scp_disjunction
from repro.queries import PathQuery


class TestSCPDisjunctionBaseline:
    def test_baseline_returns_disjunction_of_scps(self, g0, g0_sample, engine):
        result = learn_scp_disjunction(g0, g0_sample, k=3, engine=engine)
        assert not result.is_null
        # Section 3.2: the disjunction of the SCPs is c + a.b.c.
        assert result.query == PathQuery.parse("c+a.b.c", g0.alphabet)

    def test_baseline_is_consistent(self, g0, g0_sample, engine):
        result = learn_scp_disjunction(g0, g0_sample, k=3, engine=engine)
        assert result.query.is_consistent_with(
            g0, g0_sample.positives, g0_sample.negatives, engine=engine
        )

    def test_baseline_cannot_express_kleene_star(self, g0, g0_sample, abstar_c, engine):
        # The baseline never generalizes, so it does not learn (a.b)*.c even
        # from the characteristic sample -- the full learner does.
        baseline = learn_scp_disjunction(g0, g0_sample, k=3, engine=engine)
        full = learn_path_query(g0, g0_sample, k=3, engine=engine)
        assert not baseline.query.equivalent_to(abstar_c)
        assert full.query.equivalent_to(abstar_c)

    def test_baseline_abstains_when_a_positive_has_no_scp(self, g0, g0_sample, engine):
        result = learn_scp_disjunction(g0, g0_sample, k=2, engine=engine)
        assert result.is_null
        assert result.hypothesis is not None

    def test_baseline_abstains_on_empty_sample(self, g0, engine):
        assert learn_scp_disjunction(g0, Sample(), k=2, engine=engine).is_null

    def test_baseline_abstains_on_inconsistent_sample(self, inconsistent_case, engine):
        graph, sample = inconsistent_case
        assert learn_scp_disjunction(graph, sample, k=5, engine=engine).is_null
