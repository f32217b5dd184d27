"""``GraphIndex.out_label_masks``: per node, the labels of its out-edges.

The learner's path enumeration (``NegativeCoverage.uncovered_paths``) reads
the masks to skip labels a reached set has no edge of, so a wrong bit drops
or invents a path.  Every index flavour must give the pure-python reference
below -- a heap build, a refreshed index and an mmap snapshot -- also with
more labels than an int64 holds, where the vectorised build gives way to a
python loop.  The daemon's query path never builds them.
"""

from __future__ import annotations

import pytest

from repro.api import Workspace
from repro.datasets.synthetic import scale_free_graph
from repro.engine.index import GraphIndex
from repro.graphdb import GraphDB
from repro.storage.snapshot import open_snapshot, write_snapshot


def reference_masks(index: GraphIndex) -> list[int]:
    return [
        sum(
            1 << label_id
            for label_id, offsets in enumerate(index.fwd_offsets)
            if offsets[node_id] != offsets[node_id + 1]
        )
        for node_id in range(index.num_nodes)
    ]


def assert_reference(index: GraphIndex) -> None:
    masks = index.out_label_masks
    assert masks == reference_masks(index)
    assert all(type(mask) is int for mask in masks)
    assert index.out_label_masks is masks  # built once per index


@pytest.mark.parametrize("seed", [0, 3])
def test_heap_and_refreshed_indexes_match_the_reference(seed):
    graph = scale_free_graph(300, alphabet_size=20, seed=seed)
    heap = GraphIndex.build(graph)
    assert_reference(heap)
    nodes = list(graph.node_order)
    graph.add_edge(nodes[0], "l19", "fresh")  # a new node, a rare label
    graph.add_edge("fresh", "l00", nodes[1])
    refreshed = heap.refresh(graph)
    assert refreshed is not None and refreshed is not heap
    assert refreshed._out_label_masks is None  # a refresh starts unbuilt
    assert_reference(refreshed)
    assert refreshed.out_label_masks == GraphIndex.build(graph).out_label_masks


@pytest.mark.parametrize("use_mmap", [True, False])
def test_a_mapped_snapshot_matches_the_reference(use_mmap, tmp_path):
    graph = scale_free_graph(200, alphabet_size=12, seed=5)
    path = tmp_path / "g.rgz"
    write_snapshot(GraphIndex.build(graph), path)
    mapped = open_snapshot(path, use_mmap=use_mmap)
    try:
        assert_reference(mapped)
        assert mapped.out_label_masks == GraphIndex.build(graph).out_label_masks
    finally:
        mapped.close()


def test_more_labels_than_an_int64_holds():
    labels = [f"l{i:02d}" for i in range(70)]
    graph = GraphDB(labels)
    for i, label in enumerate(labels):
        graph.add_edge(f"n{i % 7}", label, f"n{(i + 1) % 9}")
    index = GraphIndex.build(graph)
    assert_reference(index)
    assert index.out_label_masks[0] >> 63  # bits past the int64 range are set


def test_the_query_path_never_builds_the_masks():
    workspace = Workspace.from_figure("geo")
    assert workspace.query("(tram+bus)*.cinema").count == 4
    assert workspace.engine.index_for(workspace.graph)._out_label_masks is None
