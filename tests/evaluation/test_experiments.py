"""Unit tests for the static and interactive experiment drivers and reporting."""

import random

import pytest

from repro.api import ExperimentConfig
from repro.errors import ConfigError, LearningError
from repro.evaluation import (
    render_figure11,
    render_figure12,
    render_table1,
    render_table2,
    run_interactive_experiment,
    run_interactive_grid,
    run_static_experiment,
)
from repro.evaluation.static import draw_sample
from repro.evaluation.workloads import Workload
from repro.datasets import scale_free_graph
from repro.queries import PathQuery, selectivity_report


@pytest.fixture(scope="module")
def small_workload() -> Workload:
    graph = scale_free_graph(250, alphabet_size=8, seed=9)
    query = PathQuery.parse("l00.(l01+l02)*.l03", graph.alphabet)
    return Workload(name="tiny", query=query, graph=graph, description="A.B*.C")


class TestDrawSample:
    def test_sample_is_labeled_by_the_goal(self, small_workload, engine):
        rng = random.Random(0)
        sample = draw_sample(
            small_workload.graph,
            small_workload.query,
            labeled_fraction=0.05,
            rng=rng,
            engine=engine,
        )
        selected = small_workload.query.evaluate(small_workload.graph, engine=engine)
        assert sample.positives <= selected
        assert sample.negatives.isdisjoint(selected)
        assert len(sample) >= 2

    def test_positive_share_override(self, small_workload, engine):
        rng = random.Random(1)
        sample = draw_sample(
            small_workload.graph,
            small_workload.query,
            labeled_fraction=0.1,
            rng=rng,
            positive_share=0.5,
            engine=engine,
        )
        assert len(sample.positives) >= 1

    def test_invalid_fraction_raises(self, small_workload, engine):
        with pytest.raises(LearningError):
            draw_sample(
                small_workload.graph,
                small_workload.query,
                labeled_fraction=0.0,
                rng=random.Random(0),
                engine=engine,
            )


class TestStaticExperiment:
    def test_sweep_produces_one_point_per_fraction(self, small_workload, engine):
        config = ExperimentConfig(labeled_fractions=(0.02, 0.05, 0.1), seed=3, k_max=3)
        result = run_static_experiment(small_workload, config, engine=engine)
        assert len(result.points) == 3
        assert [p.labeled_fraction for p in result.points] == [0.02, 0.05, 0.1]
        for point in result.points:
            assert 0.0 <= point.f1 <= 1.0
            assert point.learning_seconds >= 0.0

    def test_f1_and_time_series(self, small_workload, engine):
        config = ExperimentConfig(labeled_fractions=(0.05,), seed=3, k_max=3)
        result = run_static_experiment(small_workload, config, engine=engine)
        assert len(result.f1_series()) == 1
        assert len(result.time_series()) == 1

    def test_labels_needed_for_f1(self, small_workload, engine):
        config = ExperimentConfig(labeled_fractions=(0.02, 0.3), seed=0, k_max=3)
        result = run_static_experiment(small_workload, config, engine=engine)
        threshold = result.labels_needed_for_f1(0.5)
        assert threshold is None or threshold in (0.02, 0.3)

    def test_baseline_ablation_runs(self, small_workload, engine):
        config = ExperimentConfig(labeled_fractions=(0.05,), seed=0, use_generalization=False)
        result = run_static_experiment(small_workload, config, engine=engine)
        assert len(result.points) == 1


class TestInteractiveExperiment:
    def test_row_fields(self, small_workload, engine):
        config = ExperimentConfig(strategy="kR", seed=1, max_interactions=15, k_max=3)
        row = run_interactive_experiment(small_workload, config, engine=engine)
        assert row.workload_name == "tiny"
        assert row.strategy == "kR"
        assert row.interactions <= 15
        assert 0.0 <= row.labeled_fraction <= 1.0
        assert 0.0 <= row.final_f1 <= 1.0

    def test_relaxed_target_halts_no_later_than_strict(self, small_workload, engine):
        config = ExperimentConfig(strategy="kS", seed=2, max_interactions=25, target_f1=0.6)
        relaxed = run_interactive_experiment(small_workload, config, engine=engine)
        strict = run_interactive_experiment(
            small_workload, config.replace(target_f1=1.0), engine=engine
        )
        assert relaxed.interactions <= strict.interactions

    def test_invalid_budget_raises(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(max_interactions=0)


class TestReporting:
    def test_render_table1(self, small_workload, engine):
        report = selectivity_report(
            {"q": small_workload.query}, small_workload.graph, engine=engine
        )
        text = render_table1(report)
        assert "Table 1" in text
        assert "q" in text

    def test_render_figures_and_table2(self, small_workload, engine):
        static = run_static_experiment(
            small_workload,
            ExperimentConfig(labeled_fractions=(0.05,), seed=0, k_max=3),
            engine=engine,
        )
        interactive = run_interactive_experiment(
            small_workload,
            ExperimentConfig(strategy="kR", seed=0, max_interactions=10, k_max=3),
            engine=engine,
        )
        assert "F1" in render_figure11([static])
        assert "time" in render_figure12([static])
        table2 = render_table2([interactive], {"tiny": 0.07})
        assert "kR" in table2
        assert "7.00%" in table2


class TestInteractiveGrid:
    def test_grid_shape_and_order(self, small_workload):
        results = run_interactive_grid(
            [small_workload],
            ExperimentConfig(max_interactions=5, pool_size=16),
            strategies=("kR", "kS"),
            seeds=(0, 1),
            max_workers=1,
        )
        assert [(r.workload_name, r.strategy) for r in results] == [
            ("tiny", "kR"),
            ("tiny", "kR"),
            ("tiny", "kS"),
            ("tiny", "kS"),
        ]
        assert all(r.interactions <= 5 for r in results)

    def test_grid_matches_single_runs(self, small_workload, engine):
        config = ExperimentConfig(max_interactions=6, pool_size=16)
        grid = run_interactive_grid(
            [small_workload], config, strategies=("kR",), seeds=(3,), max_workers=1
        )
        single = run_interactive_experiment(
            small_workload, config.replace(strategy="kR", seed=3), engine=engine
        )
        assert grid[0].interactions == single.interactions
        assert grid[0].final_f1 == single.final_f1
        assert grid[0].halted_by == single.halted_by

    def test_empty_grid(self):
        assert run_interactive_grid([], ExperimentConfig(), max_workers=1) == []

    def test_invalid_workers_raise(self, small_workload):
        with pytest.raises(LearningError):
            run_interactive_grid([small_workload], ExperimentConfig(), max_workers=0)

    def test_process_pool_matches_inline(self, small_workload):
        config = ExperimentConfig(max_interactions=4, pool_size=16)
        kwargs = dict(strategies=("kR",), seeds=(0, 1))
        inline = run_interactive_grid([small_workload], config, max_workers=1, **kwargs)
        try:
            pooled = run_interactive_grid([small_workload], config, max_workers=2, **kwargs)
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable in this sandbox: {error}")
        assert [(r.strategy, r.interactions, r.final_f1) for r in pooled] == [
            (r.strategy, r.interactions, r.final_f1) for r in inline
        ]
