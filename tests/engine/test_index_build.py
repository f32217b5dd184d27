"""The CSR index against an independent oracle, byte for byte.

``GraphIndex.build`` encodes the edge set as packed ``(origin << 32) | end``
codes and counting-sorts each label with numpy.  ``oracles.csr.reference_csr``
reads the same rows off the graph's adjacency sets, node by node.  On small
graphs with shuffled node orders, self-loops, a node with edges on every
label, an alphabet label no edge uses and the empty graph:

* the build equals the oracle, array for array (``tobytes``);
* the bulk ingester, fed the same edges as a TSV stream, produces the same
  bytes -- and, with ``dedupe=False`` and every line written twice, each
  target twice;
* a refresh after more nodes and edges (a first use of ``c`` among them)
  equals the oracle of the grown graph.

Tier-1 replays a fixed set of examples (``derandomize``); the nightly job
draws fresh ones under the ``nightly`` Hypothesis profile
(``tests/conftest.py``).
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st
from oracles.csr import reference_csr
from oracles.evaluation import NAMES, shuffled_graphs

from repro.engine import GraphIndex
from repro.graphdb import GraphDB
from repro.storage import ingest_edge_list

NIGHTLY = settings.default.max_examples >= 5_000
PROPERTY = settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 200)
)


@st.composite
def graphs(draw):
    """A :func:`shuffled_graphs` graph with a few self-loops, and maybe one
    node with an edge to and from every node on both used labels."""
    graph = draw(shuffled_graphs())
    nodes = graph.node_order
    loops = st.tuples(st.sampled_from(nodes), st.sampled_from("ab"))
    graph.add_edges((node, label, node) for node, label in draw(st.lists(loops, max_size=4)))
    if draw(st.booleans()):
        hub = draw(st.sampled_from(nodes))
        for label in "ab":
            graph.add_edges((hub, label, node) for node in nodes)
            graph.add_edges((node, label, hub) for node in nodes)
    return graph


def assert_matches(index: GraphIndex, graph: GraphDB) -> None:
    assert index.nodes_by_id == graph.node_order
    assert index.labels_by_id == graph.label_order
    assert index.edge_count == graph.edge_count()
    assert_rows(index, reference_csr(graph))


def assert_rows(index: GraphIndex, expected: list) -> None:
    got = list(zip(index.fwd_offsets, index.fwd_targets, index.bwd_offsets, index.bwd_targets))
    assert len(got) == len(expected)
    for arrays, reference in zip(got, expected):
        assert [part.tobytes() for part in arrays] == [part.tobytes() for part in reference]


def tsv(graph: GraphDB, copies: int = 1) -> list[str]:
    """The graph as edge-list lines: every node declared in order (named by
    its id), then the edges grouped by label in first-use order."""
    ids = {node: str(position) for position, node in enumerate(graph.node_order)}
    lines = [f"%node\t{name}" for name in ids.values()]
    for label in graph.label_order:
        for origin, edge_label, end in graph.edges:
            if edge_label == label:
                lines += [f"{ids[origin]}\t{label}\t{ids[end]}"] * copies
    return lines


def doubled(rows: tuple[array, array, array, array]) -> tuple[array, array, array, array]:
    """One label's rows with every edge present twice."""
    fwd_off, fwd_tgt, bwd_off, bwd_tgt = rows
    return (
        array("l", [2 * value for value in fwd_off]),
        array("l", [value for value in fwd_tgt for _ in "xx"]),
        array("l", [2 * value for value in bwd_off]),
        array("l", [value for value in bwd_tgt for _ in "xx"]),
    )


@PROPERTY
@given(graph=graphs(), data=st.data())
def test_build_ingest_and_refresh_match_the_oracle(graph, data):
    index = GraphIndex.build(graph)
    assert_matches(index, graph)
    assert "c" not in index.label_ids

    ingested = ingest_edge_list(tsv(graph)).index
    assert ingested.labels_by_id == index.labels_by_id
    assert_rows(ingested, reference_csr(graph))
    duplicated = ingest_edge_list(tsv(graph, copies=2), dedupe=False).index
    assert_rows(duplicated, [doubled(rows) for rows in reference_csr(graph)])

    later = data.draw(st.lists(NAMES.filter(lambda name: name not in graph), max_size=3))
    graph.add_nodes(later)
    pick = st.sampled_from(graph.node_order)
    graph.add_edges(data.draw(st.lists(st.tuples(pick, st.sampled_from("abc"), pick))))
    assert_matches(index.refresh(graph, max_ratio=1e9), graph)


@pytest.mark.parametrize("nodes", [[], ["lonely", 7]])
def test_a_graph_without_edges(nodes):
    graph = GraphDB(["a", "b", "c"])
    graph.add_nodes(nodes)
    index = GraphIndex.build(graph)
    assert_matches(index, graph)
    assert index.labels_by_id == () and index.fwd_offsets == []
    assert ingest_edge_list(tsv(graph)).index.nodes_by_id == tuple(map(str, range(len(nodes))))
