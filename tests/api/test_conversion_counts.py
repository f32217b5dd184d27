"""No layer converts a query -- or an answer -- at its edge: pinned by count.

With ``TableDFA.from_dfa`` / ``to_dfa`` / ``canonical`` wrapped (the
``conversions`` fixture), a static sweep, a kR and a kS session and plain
workspace queries int-code no ``DFA`` at all, canonicalise once per compile
and once per learner call, and never build an object-level ``DFA``: a
learned query's expression is rendered from its table.

An answer goes from the walk to the reply as node ids: a served path query
sorts ids by the index's ``repr`` rank (built once per index), never sorts
names with ``key=repr``, never builds a set of names and never looks a node
up by name (so a snapshot-backed index never builds its name dict).
"""

from __future__ import annotations

import builtins

import pytest

import repro.engine.index as index_module
import repro.interactive.state as state_module
import repro.learning.learner as learner_module
from repro.api import ExperimentConfig, InteractiveConfig, Workspace
from repro.api.config import ServiceConfig
from repro.automata.kernel import TableDFA
from repro.datasets.synthetic import scale_free_graph
from repro.engine.index import Answer, GraphIndex
from repro.evaluation.workloads import synthetic_query_expressions
from repro.queries.path_query import PARSE_CACHE, parse_cache_stats
from repro.service import QueryService
from repro.storage.catalog import DatasetCatalog

GOALS = [str(expression) for expression in synthetic_query_expressions(6).values()]


@pytest.fixture(scope="module")
def graph():
    return scale_free_graph(400, alphabet_size=6, zipf_exponent=1.0, seed=11)


@pytest.fixture
def learner_calls(monkeypatch) -> list:
    """One entry (the result) per ``learn_path_query`` call, wherever it is made."""
    results: list = []
    original = learner_module.learn_path_query

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(learner_module, "learn_path_query", counting)
    monkeypatch.setattr(state_module, "learn_path_query", counting)
    return results


def check(conversions, learner_calls, compiles_before):
    """The three count claims, against what the run actually did."""
    assert not conversions["from_dfa"]
    compiles = parse_cache_stats()["misses"] - compiles_before
    assert len(conversions["canonical"]) <= compiles + len(learner_calls)
    assert not conversions["to_dfa"]


def test_a_static_sweep_converts_nothing(graph, conversions, learner_calls):
    PARSE_CACHE.clear()
    compiles = parse_cache_stats()["misses"]
    workspace = Workspace(graph, name="counts")
    for seed, goal in enumerate(GOALS):
        result = workspace.run_experiment(
            ExperimentConfig(
                goal=goal,
                scenario="static",
                seed=seed,
                labeled_fractions=(0.02, 0.05, 0.1),
                k_start=2,
                k_max=4,
            )
        )
        assert len(result.points) == 3
        rendered = [point.learned_expression for point in result.points]
        assert any(expression is not None for expression in rendered)
    assert len(learner_calls) >= 9 and any(r.hypothesis for r in learner_calls)
    check(conversions, learner_calls, compiles)


@pytest.mark.parametrize("strategy", ["kR", "kS"])
def test_a_session_converts_nothing(graph, conversions, learner_calls, strategy):
    PARSE_CACHE.clear()
    compiles = parse_cache_stats()["misses"]
    workspace = Workspace(graph, name="counts")
    result = workspace.learn_interactive(
        GOALS[1],
        InteractiveConfig(
            strategy=strategy, seed=3, k_start=2, k_max=4, max_interactions=20, pool_size=48
        ),
    )
    assert result.interaction_count == 20 and result.query is not None
    check(conversions, learner_calls, compiles)


def test_workspace_queries_convert_nothing_warm_or_cold(graph, conversions):
    PARSE_CACHE.clear()
    workspace = Workspace(graph, name="counts")
    cold = workspace.query("l00.l01*.l02")
    assert len(conversions["canonical"]) == 1  # the compile
    warm = workspace.query("l00.l01*.l02")
    assert warm.selected == cold.selected and warm.query.table is cold.query.table
    assert warm.to_dict()["query"]["expression"] == "l00.l01*.l02"
    assert len(conversions["canonical"]) == 1
    assert not conversions["from_dfa"] and not conversions["to_dfa"]


def test_a_workspace_query_takes_the_planner_fast_path(graph, compilations, monkeypatch):
    """A fresh expression's own table is canonical: the planner takes it as
    it is, so the compile is the only place ``TableDFA.minimized`` runs, and
    the plan's report lists no rewrite."""
    minimized_in = []
    minimized = TableDFA.minimized

    def counting_minimized(self):
        minimized_in.append(len(compilations))
        return minimized(self)

    monkeypatch.setattr(TableDFA, "minimized", counting_minimized)
    PARSE_CACHE.clear()
    workspace = Workspace(graph, name="counts")
    for number, expression in enumerate(("l00.l01*.l02", "(l03+l04).l05*", "l02*"), 1):
        workspace.query(expression)
        assert len(compilations) == number and minimized_in == list(range(1, number + 1))
        plan = workspace.explain(expression)
        assert plan.cache["disposition"] == "hit"  # the report is the query's own plan's
        assert plan.rewrites == () and plan.planner["parity"] == "clean"


@pytest.fixture
def answer_work(monkeypatch) -> dict[str, int]:
    """Live counts of rank builds, ``sorted(..., key=repr)`` calls, name sets
    built from an answer and reads of an index's name dict, from here on."""
    counts = {"rank_builds": 0, "repr_sorts": 0, "name_sets": 0, "name_lookups": 0}
    repr_rank, node_set, builtin_sorted = index_module.repr_rank, Answer.node_set, builtins.sorted
    node_ids = GraphIndex.node_ids

    def counting_rank(nodes, typecode):
        counts["rank_builds"] += 1
        return repr_rank(nodes, typecode)

    def counting_node_set(self):
        counts["name_sets"] += 1
        return node_set(self)

    def counting_sorted(iterable, /, *, key=None, reverse=False):
        counts["repr_sorts"] += key is repr
        return builtin_sorted(iterable, key=key, reverse=reverse)

    def counting_node_ids(self):
        counts["name_lookups"] += 1
        return node_ids.fget(self)

    monkeypatch.setattr(index_module, "repr_rank", counting_rank)
    monkeypatch.setattr(GraphIndex, "node_ids", property(counting_node_ids))
    monkeypatch.setattr(Answer, "node_set", counting_node_set)
    monkeypatch.setattr(builtins, "sorted", counting_sorted)
    return counts


def test_served_path_queries_sort_ids_not_names(graph, tmp_path, answer_work):
    DatasetCatalog(tmp_path).save("counts", graph)
    config = ServiceConfig(
        catalog_root=str(tmp_path), snapshots=("counts",), batch_window=0.0, share_caches=False
    )
    labels = sorted(graph.labels())
    expressions = [f"{a}.{b}*.{c}" for a in labels for b in labels for c in labels][:100]
    with QueryService(config) as service:
        replies = [service.handle({"op": "query", "params": {"expr": e}}) for e in expressions]
        assert all(reply["ok"] for reply in replies)
        assert any(reply["result"]["count"] for reply in replies)
        assert answer_work == {"rank_builds": 1, "repr_sorts": 0, "name_sets": 0, "name_lookups": 0}
        hit = service.handle({"op": "query", "params": {"expr": expressions[-1]}})
        assert hit["result"]["selected"] == replies[-1]["result"]["selected"]
        assert answer_work == {"rank_builds": 1, "repr_sorts": 0, "name_sets": 0, "name_lookups": 0}
        stats = service.handle({"op": "stats"})["result"]["datasets"]["counts"]
        assert stats["result_cache_hits"] == 1 and stats["result_cache_misses"] == 100
    for expression, reply in zip(expressions, replies):
        expected = Workspace(graph).query(expression).selected
        assert reply["result"]["selected"] == builtins.sorted(expected, key=repr)
