"""The Workspace facade: typed configs, engine ownership, experiment wiring."""

from __future__ import annotations

import pytest

from repro.api import (
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    Workspace,
)
from repro.datasets import geo_graph
from repro.engine import QueryEngine
from repro.errors import ConfigError
from repro.learning import BinarySample, Sample


def test_workspace_owns_a_private_engine():
    ws = Workspace(geo_graph())
    assert isinstance(ws.engine, QueryEngine)
    assert Workspace(geo_graph()).engine is not ws.engine


def test_engine_config_sizes_the_engine():
    ws = Workspace(geo_graph(), engine_config=EngineConfig(plan_cache_size=7, result_cache_size=9))
    assert ws.engine.plan_cache.capacity == 7
    assert ws.engine.result_cache.capacity == 9
    with pytest.raises(ConfigError):
        Workspace(geo_graph(), engine=QueryEngine(), engine_config=EngineConfig())


def test_from_file_roundtrip(tmp_path):
    ws = Workspace.from_figure("geo")
    path = tmp_path / "geo.tsv"
    ws.save(path)
    reloaded = Workspace.from_file(path)
    assert reloaded.graph.nodes == ws.graph.nodes
    assert reloaded.graph.edges == ws.graph.edges
    assert reloaded.name == "geo"


def test_from_figure_unknown_name():
    with pytest.raises(ConfigError):
        Workspace.from_figure("nope")


def test_query_uses_workspace_engine_stats():
    ws = Workspace.from_figure("geo")
    before = ws.stats()["evaluations"]
    ws.query("(tram+bus)*.cinema")
    ws.query("(tram+bus)*.cinema")  # result-cache hit
    after = ws.stats()
    assert after["evaluations"] == before + 1
    assert after["result_cache_hits"] >= 1
    assert after["graph_nodes"] == 10


def test_learn_matches_legacy_shim():
    from repro.learning import learn_with_dynamic_k

    graph = geo_graph()
    sample = Sample(positives={"N2", "N6"}, negatives={"N5"})
    ws = Workspace(graph)
    modern = ws.learn(sample)
    legacy = learn_with_dynamic_k(graph, sample, engine=ws.engine)
    assert modern.query == legacy.query
    assert modern.k == legacy.k


def test_learn_semantics_dispatch_and_mismatch():
    ws = Workspace.from_figure("geo")
    binary = ws.learn(BinarySample(positives={("N2", "N5")}))
    assert type(binary).__name__ == "BinaryLearnerResult"
    with pytest.raises(ConfigError):
        ws.learn(Sample(positives={"N2"}), LearnerConfig(semantics="binary"))
    with pytest.raises(ConfigError):
        ws.learn("not a sample")


def test_query_oracle_labels_track_graph_version():
    from repro import PathQuery, QueryOracle

    ws = Workspace.from_figure("geo")
    goal = PathQuery.parse("(tram+bus)*.cinema", ws.graph.alphabet)
    oracle = QueryOracle(goal, engine=ws.engine)
    assert oracle.label(ws.graph, "N5") == "-"
    ws.graph.add_edge("N5", "cinema", "C9")  # N5 now reaches a cinema
    assert oracle.label(ws.graph, "N5") == "+"


def test_experiment_name_override_and_default():
    ws = Workspace.from_figure("geo")
    named = ws.run_experiment(
        ExperimentConfig(goal="cinema", name="workspace", labeled_fractions=(0.3,))
    )
    assert named.workload_name == "workspace"  # even a collidable name sticks
    unnamed = ws.run_experiment(ExperimentConfig(goal="cinema", labeled_fractions=(0.3,)))
    assert unnamed.workload_name == "geo"


def test_learn_dynamic_k_applies_to_binary_semantics():
    ws = Workspace.from_figure("geo")
    # N2 -> C1 needs a length-3 path (bus.tram.cinema); k=1 alone abstains.
    sample = BinarySample(positives={("N2", "C1")})
    fixed = ws.learn(sample, LearnerConfig(semantics="binary", k=1, dynamic_k=False))
    assert fixed.is_null
    grown = ws.learn(sample, LearnerConfig(semantics="binary", k=1, k_max=3))
    assert grown.ok
    assert grown.k == 3


def test_dynamic_k_elapsed_covers_all_attempts(monkeypatch):
    """Every attempt counts, and so does the episode's own set-up: the
    learner module's clock moves 100 s while the coverage is built."""
    from dataclasses import replace
    from types import SimpleNamespace

    import repro.learning.learner as learner_mod

    real = learner_mod.learn_path_query
    calls = []

    def spy(graph, sample, *, k, engine, coverage=None):
        calls.append(k)
        return replace(real(graph, sample, k=k, engine=engine, coverage=coverage), elapsed=1.0)

    now = [0.0]
    build = learner_mod.NegativeCoverage

    def slow_build(index, nodes):
        now[0] += 100.0
        return build(index, nodes)

    monkeypatch.setattr(learner_mod, "learn_path_query", spy)
    monkeypatch.setattr(learner_mod, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(learner_mod, "NegativeCoverage", slow_build)
    sample = Sample(positives={"N2", "N6"}, negatives={"N5"})
    result = learner_mod.learn_with_dynamic_k(
        geo_graph(), sample, k_start=0, k_max=4, engine=QueryEngine()
    )
    assert len(calls) > 1  # k had to grow
    # The whole procedure, not the last try, and the set-up before the first.
    assert result.elapsed == float(len(calls)) + 100.0


def test_learn_fixed_k_and_baseline():
    ws = Workspace.from_figure("geo")
    sample = Sample(positives={"N2", "N6"}, negatives={"N5"})
    fixed = ws.learn(sample, LearnerConfig(k=2, dynamic_k=False))
    assert fixed.k == 2
    baseline = ws.learn(sample, LearnerConfig(generalize=False))
    # The baseline never uses the Kleene star: plain disjunction of SCPs.
    assert baseline.hypothesis is not None
    assert "*" not in baseline.hypothesis.expression


def test_learn_interactive_reaches_goal():
    ws = Workspace.from_figure("geo")
    result = ws.learn_interactive(
        "(tram+bus)*.cinema", InteractiveConfig(max_interactions=30, seed=1)
    )
    assert result.halted_by == "goal"
    goal_nodes = ws.query("(tram+bus)*.cinema").selected
    assert result.query.evaluate(ws.graph, engine=ws.engine) == goal_nodes


def test_run_experiment_static_and_interactive():
    ws = Workspace.from_figure("geo")
    static = ws.run_experiment(
        ExperimentConfig(goal="(tram+bus)*.cinema", labeled_fractions=(0.3, 0.6))
    )
    assert static.workload_name == "geo"
    assert len(static.points) == 2
    interactive = ws.run_experiment(
        ExperimentConfig(goal="(tram+bus)*.cinema", scenario="interactive", max_interactions=30)
    )
    assert interactive.final_f1 == 1.0
    with pytest.raises(ConfigError):
        ws.run_experiment(ExperimentConfig())  # goal missing
    with pytest.raises(ConfigError):
        ws.run_experiment("static")  # not a config


def test_experiment_runs_on_workspace_engine_only(monkeypatch):
    """Experiments run on the workspace engine: they construct no other one."""
    ws = Workspace.from_figure("geo")
    constructed = []
    original = QueryEngine.__init__

    def counting(self, *args, **kwargs):
        constructed.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(QueryEngine, "__init__", counting)
    ws.run_experiment(
        ExperimentConfig(goal="(tram+bus)*.cinema", labeled_fractions=(0.3,))
    )
    ws.run_experiment(
        ExperimentConfig(
            goal="(tram+bus)*.cinema", scenario="interactive", max_interactions=10
        )
    )
    assert ws.stats()["evaluations"] > 0
    assert constructed == []


def test_config_validation_and_roundtrip():
    with pytest.raises(ConfigError):
        LearnerConfig(k=-1)
    with pytest.raises(ConfigError):
        LearnerConfig(k=5, k_max=2)
    with pytest.raises(ConfigError):
        LearnerConfig(semantics="ternary")
    with pytest.raises(ConfigError):
        LearnerConfig(semantics="binary", generalize=False)
    with pytest.raises(ConfigError):
        InteractiveConfig(strategy="greedy")
    with pytest.raises(ConfigError):
        InteractiveConfig(target_f1=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(goal="a", labeled_fractions=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(goal="a", scenario="batch")
    with pytest.raises(ConfigError):
        EngineConfig(plan_cache_size=0)

    config = ExperimentConfig(goal="a.b", labeled_fractions=(0.1, 0.2), strategy="kS")
    rebuilt = ExperimentConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.labeled_fractions == (0.1, 0.2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"goal": "a", "no_such_field": 1})
    assert config.replace(seed=3).seed == 3
