"""A reply lists its nodes in ``repr`` order, read off the index's rank.

``QueryResult.to_dict`` no longer sorts names: it sorts the answer's ids by
the index's ``repr`` rank and takes the names from the node table.  The
property below holds that to the sort it replaced -- ``sorted(selected,
key=repr)`` over the oracle's node set, the same list and the same JSON
bytes -- on node names that mix ints, strings with quotes, backslashes and
non-ASCII characters, and tuples, on every index an answer can come from:
both kernels, a heap index, a snapshot reopened through ``mmap`` and an
index refreshed after nodes were added.

The names come from the index's rank-ordered node table
(``GraphIndex.repr_order``), a numpy object array; both properties hold the
table to ``sorted(names, key=repr)`` with every name kept as the one object
it is -- a tuple name must not be spread over a second axis.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.automata import dfa_of
from oracles.product import reference_evaluate

from repro.api import Workspace
from repro.api.config import EngineConfig, StorageConfig
from repro.graphdb import GraphDB

BACKENDS = ("python", "numpy")
EXPRESSIONS = ("a", "b*", "a.b*", "(a+b)*.a", "b.a+a.a")

TEXT = st.text(st.sampled_from(["a", "Z", "'", '"', "\\", "é", "中", " ", "\n"]), max_size=4)
NAME = st.one_of(st.integers(-30, 30), TEXT, st.tuples(st.integers(0, 3), TEXT))


@st.composite
def graphs(draw, names=NAME):
    """``(nodes, edges, later)``: a small graph over distinct drawn names, and
    a few more names to add once it is indexed."""
    pool = draw(st.lists(names, min_size=2, max_size=30, unique_by=repr))
    split = draw(st.integers(max(1, len(pool) - 6), len(pool)))
    nodes, later = pool[:split], pool[split:]
    pick = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(pick, st.sampled_from("ab"), pick), max_size=40))
    return nodes, edges, later


def build(nodes: list, edges: list) -> GraphDB:
    graph = GraphDB(["a", "b"])
    graph.add_nodes(nodes)
    graph.add_edges(edges)
    return graph


def assert_reply_order(workspace: Workspace, graph: GraphDB) -> None:
    for expression in EXPRESSIONS:
        result = workspace.query(expression)
        expected = sorted(reference_evaluate(graph, dfa_of(result.query.table)), key=repr)
        selected = result.to_dict()["selected"]
        assert selected == expected == sorted(result.selected, key=repr)
        assert list(map(type, selected)) == list(map(type, expected))
        assert json.dumps(selected) == json.dumps(expected)
    index = workspace.engine.index_for(workspace.graph)
    by_rank = index.repr_order[1]
    assert isinstance(by_rank, np.ndarray) and by_rank.dtype == object
    names = sorted(index.nodes_by_id, key=repr)
    assert all(got is want for got, want in zip(by_rank, names, strict=True))


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(graphs())
def test_heap_and_refreshed_indexes_reply_in_repr_order(drawn):
    nodes, edges, later = drawn
    for backend in BACKENDS:
        graph = build(nodes, edges)
        workspace = Workspace(graph, engine_config=EngineConfig(backend=backend))
        assert_reply_order(workspace, graph)
        if later:
            for node in later:  # a new node with an edge, into an indexed graph
                graph.add_edge(node, "a", nodes[0])
            assert_reply_order(workspace, graph)
            assert workspace.stats()["index_refreshes"] == 1


@PROPERTY
@given(graphs(TEXT))
def test_a_reopened_snapshot_replies_in_repr_order(drawn):
    nodes, edges, _ = drawn
    graph = build(nodes, edges)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "order.rgz"
        Workspace(graph).save_snapshot(path)
        for backend in BACKENDS:
            workspace = Workspace.open_snapshot(
                path,
                storage=StorageConfig(use_mmap=True),
                engine_config=EngineConfig(backend=backend),
            )
            assert workspace.stats()["index_builds"] == 0
            assert_reply_order(workspace, graph)
