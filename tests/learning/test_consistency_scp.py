"""Unit tests for consistency checking (Lemma 3.1) and SCP selection."""

import pytest
from oracles.paths import covered_by, smallest_consistent_path

from repro.errors import LearningError
from repro.learning import (
    Sample,
    bounded_consistent,
    is_consistent,
    sample_has_consistent_query,
    select_smallest_consistent_paths,
)


class TestExactConsistency:
    def test_paper_sample_on_g0_is_consistent(self, g0, g0_sample, engine):
        assert is_consistent(g0, g0_sample, engine=engine)

    def test_figure5_sample_is_inconsistent(self, inconsistent_case, engine):
        graph, sample = inconsistent_case
        assert not is_consistent(graph, sample, engine=engine)

    def test_sample_without_positives_is_consistent(self, g0, engine):
        assert is_consistent(g0, Sample(negatives={"v2"}), engine=engine)

    def test_sample_without_negatives_is_consistent(self, g0, engine):
        assert is_consistent(g0, Sample(positives={"v1", "v4"}), engine=engine)

    def test_positive_dominated_by_negative_is_inconsistent(self, g0, engine):
        # v4 has no outgoing edge, so paths(v4) = {eps} which any negative covers.
        assert not is_consistent(g0, Sample({"v4"}, {"v5"}), engine=engine)


class TestBoundedConsistency:
    def test_bounded_matches_exact_on_paper_sample(self, g0, g0_sample, engine):
        assert bounded_consistent(g0, g0_sample, k=3, engine=engine)

    def test_bounded_fails_when_k_too_small(self, g0, engine):
        # v1's only consistent path w.r.t. {v2, v7} is abc (length 3).
        sample = Sample({"v1"}, {"v2", "v7"})
        assert not bounded_consistent(g0, sample, k=2, engine=engine)
        assert bounded_consistent(g0, sample, k=3, engine=engine)

    def test_bounded_on_inconsistent_sample(self, inconsistent_case, engine):
        graph, sample = inconsistent_case
        assert not bounded_consistent(graph, sample, k=5, engine=engine)

    def test_dispatcher(self, g0, g0_sample, engine):
        assert sample_has_consistent_query(g0, g0_sample, engine=engine)
        assert sample_has_consistent_query(g0, g0_sample, k=3, engine=engine)


class TestSmallestConsistentPath:
    def test_paper_scps(self, g0):
        # Section 3.2: the SCPs are abc for v1 and c for v3.
        negatives = {"v2", "v7"}
        assert smallest_consistent_path(g0, "v1", negatives, k=3) == ("a", "b", "c")
        assert smallest_consistent_path(g0, "v3", negatives, k=3) == ("c",)

    def test_no_scp_within_bound(self, g0):
        assert smallest_consistent_path(g0, "v1", {"v2", "v7"}, k=2) is None

    def test_scp_without_negatives_is_epsilon(self, g0):
        assert smallest_consistent_path(g0, "v1", set(), k=2) == ()

    def test_negative_bound_raises(self, g0):
        with pytest.raises(LearningError):
            smallest_consistent_path(g0, "v1", set(), k=-1)

    def test_scp_for_inconsistent_positive_is_none(self, inconsistent_case):
        graph, sample = inconsistent_case
        positive = next(iter(sample.positives))
        assert smallest_consistent_path(graph, positive, sample.negatives, k=6) is None


class TestSelectSCPs:
    def test_selects_per_positive(self, g0, g0_sample, engine):
        scps = select_smallest_consistent_paths(g0, g0_sample, k=3, engine=engine)
        assert scps == {"v1": ("a", "b", "c"), "v3": ("c",)}

    def test_positives_without_scp_are_omitted(self, g0, g0_sample, engine):
        scps = select_smallest_consistent_paths(g0, g0_sample, k=2, engine=engine)
        assert "v1" not in scps
        assert scps["v3"] == ("c",)

    def test_scps_are_never_covered_by_negatives(self, g0, g0_sample, engine):
        scps = select_smallest_consistent_paths(g0, g0_sample, k=4, engine=engine)
        for path in scps.values():
            assert not covered_by(g0, path, g0_sample.negatives)
