"""Unit tests for the synthetic, AliBaba-like and workflow graph generators."""

import pytest

from repro.datasets import (
    generate_alibaba_like,
    scale_free_graph,
    workflow_graph,
    zipfian_label_weights,
)
from repro.datasets.alibaba import (
    ALIBABA_FILLER_LABELS,
    ALIBABA_LABEL_CLASSES,
    ALIBABA_LABEL_FREQUENCIES,
    alibaba_alphabet,
)
from repro.datasets.synthetic import default_alphabet
from repro.datasets.workflows import workflow_goal_query
from repro.errors import GraphError
from repro.queries import PathQuery


class TestScaleFree:
    def test_size_and_edge_factor(self):
        graph = scale_free_graph(200, edge_factor=3.0, seed=1)
        assert graph.node_count() == 200
        assert graph.edge_count() == pytest.approx(600, abs=30)

    def test_determinism(self):
        left = scale_free_graph(100, seed=42)
        right = scale_free_graph(100, seed=42)
        assert left.edges == right.edges

    def test_different_seeds_differ(self):
        assert scale_free_graph(100, seed=1).edges != scale_free_graph(100, seed=2).edges

    def test_zipfian_label_skew(self):
        graph = scale_free_graph(400, alphabet_size=10, zipf_exponent=1.2, seed=3)
        histogram = graph.label_histogram()
        labels = default_alphabet(10)
        assert histogram.get(labels[0], 0) > histogram.get(labels[-1], 0)

    def test_scale_free_shape(self):
        graph = scale_free_graph(400, seed=5)
        stats = graph.degree_statistics()
        # A hub should have noticeably more than the average degree.
        assert stats["max_out_degree"] >= 3 * stats["mean_out_degree"]

    def test_explicit_label_weights(self):
        graph = scale_free_graph(
            200, alphabet=["x", "y"], label_weights=[10.0, 0.1], seed=0
        )
        histogram = graph.label_histogram()
        assert histogram.get("x", 0) > histogram.get("y", 0)

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            scale_free_graph(1)
        with pytest.raises(GraphError):
            scale_free_graph(10, edge_factor=0)
        with pytest.raises(GraphError):
            scale_free_graph(10, alphabet=["x"], label_weights=[1.0, 2.0])
        with pytest.raises(GraphError):
            zipfian_label_weights(0)


class TestAlibabaLike:
    def test_default_scale_matches_paper(self):
        graph = generate_alibaba_like(node_count=500, edge_count=1300, seed=2)
        assert graph.node_count() == 500
        assert graph.edge_count() == pytest.approx(1300, abs=80)

    def test_alphabet_covers_classes_and_fillers(self):
        alphabet = set(alibaba_alphabet())
        for class_symbols in ALIBABA_LABEL_CLASSES.values():
            assert set(class_symbols) <= alphabet
        assert set(ALIBABA_FILLER_LABELS) <= alphabet
        assert set(ALIBABA_LABEL_FREQUENCIES) == alphabet

    def test_rare_labels_are_rare(self):
        graph = generate_alibaba_like(node_count=1000, edge_count=2700, seed=4)
        histogram = graph.label_histogram()
        rare = histogram.get("biomarker_of", 0)
        frequent = histogram.get("interacts", 0)
        assert rare < frequent


class TestWorkflows:
    def test_goal_selects_exactly_the_matching_runs(self, engine):
        graph = workflow_graph(matching_runs=4, other_runs=8, seed=1)
        goal = PathQuery.parse(workflow_goal_query(), graph.alphabet)
        selected = goal.evaluate(graph, engine=engine)
        starts = {node for node in selected if str(node).endswith("_s0")}
        assert len(starts) == 4

    def test_requires_at_least_one_matching_run(self):
        with pytest.raises(GraphError):
            workflow_graph(matching_runs=0)

    def test_determinism(self):
        assert workflow_graph(seed=3).edges == workflow_graph(seed=3).edges
