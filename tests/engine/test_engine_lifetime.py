"""A dropped engine dies by reference count, not at the next full collection.

The engine owns its telemetry registry; a registry callback that closed over
the engine used to make the pair a cycle, so a discarded ``Workspace`` kept
its CSR index (about 80 arrays) until a generation-2 collection happened to
run -- and a program that allocates *less* triggers those less often.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api.workspace import Workspace
from repro.datasets import geo_graph
from repro.engine import QueryEngine
from repro.engine.cache import PlanCache, ResultCache
from repro.engine.index import GraphIndex
from repro.queries import PathQuery
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry

ENGINE_PARTS = (
    QueryEngine,
    Workspace,
    GraphIndex,
    PlanCache,
    ResultCache,
    Telemetry,
    MetricsRegistry,
)


def cinema(graph) -> PathQuery:
    return PathQuery.parse("(tram+bus)*.cinema", graph.alphabet)


def build_engine():
    engine = QueryEngine()
    return engine, engine


def build_workspace():
    workspace = Workspace(geo_graph())
    return workspace, workspace.engine


@pytest.mark.parametrize("build", [build_engine, build_workspace])
def test_dropped_engine_is_freed_without_the_collector(build):
    gc.collect()
    gc.disable()
    try:
        owner, engine = build()
        graph = geo_graph()
        engine.index_for(graph)
        assert engine.evaluate(graph, cinema(graph))
        assert "engine_plan_cache_hits" in engine.telemetry.registry.render_prometheus()
        probe = weakref.ref(engine)
        del owner, engine
        assert probe() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, ENGINE_PARTS)]
        assert leaked == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_cache_gauges_follow_the_engine_and_outlive_it_quietly():
    engine = QueryEngine()
    registry = engine.telemetry.registry
    graph = geo_graph()
    engine.evaluate(graph, cinema(graph))
    engine.evaluate(graph, cinema(graph))
    assert registry.snapshot()["engine_result_cache_hits"] == engine.result_cache.hits == 1
    del engine
    gc.collect()
    assert registry.snapshot()["engine_result_cache_hits"] == 0
