"""Snapshot of the public surface: ``repro.__all__`` must not drift silently.

If you intentionally add or remove a public name, update EXPECTED_ALL here in
the same change -- that is the point of the test.
"""

from __future__ import annotations

import pytest

import repro

EXPECTED_ALL = frozenset(
    {
        "__version__",
        # errors
        "ReproError",
        "AlphabetError",
        "AutomatonError",
        "RegexSyntaxError",
        "GraphError",
        "QueryError",
        "SampleError",
        "LearningError",
        "InteractionError",
        "ConfigError",
        "SerializationError",
        "StorageError",
        "TelemetryError",
        # core types
        "Alphabet",
        "GraphDB",
        "QueryEngine",
        "EngineStats",
        "PathQuery",
        "BinaryPathQuery",
        "NaryPathQuery",
        "Sample",
        "BinarySample",
        "NarySample",
        # public API facade
        "Workspace",
        "EngineConfig",
        "TelemetryConfig",
        "LearnerConfig",
        "InteractiveConfig",
        "ExperimentConfig",
        "StorageConfig",
        "Result",
        "QueryResult",
        "result_from_dict",
        "result_from_json",
        "result_to_json",
        # storage layer
        "DatasetCatalog",
        "GraphView",
        "MappedGraphIndex",
        "open_snapshot",
        "write_snapshot",
        # telemetry
        "Telemetry",
        "MetricsRegistry",
        # learning entry points
        "learn_path_query",
        "learn_with_dynamic_k",
        "learn_binary_query",
        "learn_nary_query",
        # interactive entry points
        "QueryOracle",
        "make_strategy",
        "InteractiveSession",
        "InteractiveCheckpoint",
        "SessionState",
        # evaluation
        "f1_score",
        "score_query",
        "run_interactive_grid",
    }
)


def test_public_api_snapshot():
    assert set(repro.__all__) == EXPECTED_ALL


def test_all_names_are_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists {name!r} but it is not importable"


def test_no_duplicates_in_all():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_engine_stats_reexport():
    from repro.engine.engine import EngineStats

    assert repro.EngineStats is EngineStats


def test_api_subpackage_all_importable():
    import repro.api

    for name in repro.api.__all__:
        assert hasattr(repro.api, name)


def test_engine_subpackage_lost_exactly_the_shard_pool():
    import importlib

    import repro.engine

    gone = {
        "ParallelExecutor",
        "shard_bounds",
        "evaluate_all_sharded",
        "binary_evaluate_sharded",
        "DEFAULT_MIN_SHARD_EDGES",  # the deleted min_shard_edges knob's default
        # PR 21: the plan layer (a plan is its kernel table)
        "CompiledPlan",
        "compile_plan",
        "automaton_fingerprint",
        "selectivity_ordered",
        # PR 23: the cost model (three comparisons in engine/planner.py)
        "CostEstimate",
        "CostModel",
        "cheapest",
        # numpy is a required dependency: there is nothing left to probe
        "have_numpy",
    }
    assert len(repro.engine.__all__) == 29 - len(gone) == 16
    for name in gone:
        assert name not in repro.engine.__all__ and not hasattr(repro.engine, name)
    for name in repro.engine.__all__:
        assert hasattr(repro.engine, name)
    for module in ("repro.engine.parallel", "repro.engine.plan", "repro.engine.costs"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert len(repro.__all__) == 55
