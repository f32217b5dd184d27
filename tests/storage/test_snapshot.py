"""Snapshot format round-trips, corruption detection and mapped-index behavior."""

from __future__ import annotations

import json
import struct

import pytest
from oracles.graph import successors

from repro.datasets import geo_graph, scale_free_graph
from repro.engine import GraphIndex, QueryEngine
from repro.errors import GraphError, StorageError
from repro.queries import PathQuery
from repro.storage import (
    GraphView,
    MappedGraphIndex,
    open_snapshot,
    snapshot_info,
    write_snapshot,
)
from repro.storage import format as fmt


@pytest.fixture
def geo():
    return geo_graph()


@pytest.fixture
def geo_snapshot(geo, tmp_path):
    path = tmp_path / "geo.rgz"
    write_snapshot(GraphIndex.build(geo), path, meta={"name": "geo"})
    return path


class TestRoundTrip:
    def test_tables_survive(self, geo, geo_snapshot):
        built = GraphIndex.build(geo)
        mapped = open_snapshot(geo_snapshot, verify=True)
        assert mapped.nodes_by_id == built.nodes_by_id
        assert mapped.labels_by_id == built.labels_by_id
        assert mapped.node_ids == built.node_ids
        assert mapped.edge_count == built.edge_count

    def test_csr_bytes_survive(self, geo, geo_snapshot):
        built = GraphIndex.build(geo)
        mapped = open_snapshot(geo_snapshot)
        for lid in range(built.num_labels):
            assert bytes(mapped.fwd_offsets[lid]) == fmt.i64_bytes(built.fwd_offsets[lid])
            assert bytes(mapped.fwd_targets[lid]) == fmt.i64_bytes(built.fwd_targets[lid])
            assert bytes(mapped.bwd_offsets[lid]) == fmt.i64_bytes(built.bwd_offsets[lid])
            assert bytes(mapped.bwd_targets[lid]) == fmt.i64_bytes(built.bwd_targets[lid])

    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_query_parity(self, geo, geo_snapshot, use_mmap):
        engine = QueryEngine()
        view = GraphView(open_snapshot(geo_snapshot, use_mmap=use_mmap))
        query = PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)
        assert engine.evaluate(view, query) == engine.evaluate(geo, query)
        for node in geo.node_order:
            assert engine.selects(view, query, node) == engine.selects(geo, query, node)

    def test_prebuilt_index_adopted_without_rebuild(self, geo, geo_snapshot):
        engine = QueryEngine()
        view = GraphView(open_snapshot(geo_snapshot))
        query = PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)
        engine.evaluate(view, query)
        assert engine.stats.index_builds == 0
        assert engine.index_for(view) is view.prebuilt_index

    def test_unicode_and_awkward_names(self, tmp_path):
        from repro.graphdb import GraphDB

        graph = GraphDB()
        graph.add_edge("Ünïcøde ☃", "läbel\t", "x\nnewline")
        graph.add_edge("", "l", "Ünïcøde ☃")
        graph.add_node("isolated \U0001f600")
        path = tmp_path / "odd.rgz"
        write_snapshot(GraphIndex.build(graph), path)
        view = GraphView(open_snapshot(path, verify=True))
        assert view.nodes == graph.nodes
        assert view.edges == graph.edges

    def test_isolated_nodes_survive(self, tmp_path):
        from repro.graphdb import GraphDB

        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        graph.add_node("lonely")
        path = tmp_path / "iso.rgz"
        write_snapshot(GraphIndex.build(graph), path)
        view = GraphView(open_snapshot(path))
        assert "lonely" in view
        assert view.nodes == {"a", "b", "lonely"}

    def test_meta_and_info(self, geo_snapshot):
        info = snapshot_info(geo_snapshot)
        assert info["nodes"] == 10
        assert info["labels"] == 4
        assert info["edges"] == 13
        assert info["meta"]["name"] == "geo"
        assert set(fmt.SECTION_NAMES) == set(info["sections"])
        mapped = open_snapshot(geo_snapshot)
        assert mapped.meta["name"] == "geo"

    def test_non_string_nodes_rejected(self, tmp_path):
        from repro.graphdb import GraphDB

        graph = GraphDB()
        graph.add_edge(1, "l", 2)
        with pytest.raises(StorageError, match="string node identifiers"):
            write_snapshot(GraphIndex.build(graph), tmp_path / "bad.rgz")

    def test_large_synthetic_parity(self, tmp_path):
        graph = scale_free_graph(400, alphabet_size=8, seed=5)
        path = tmp_path / "syn.rgz"
        write_snapshot(GraphIndex.build(graph), path)
        view = GraphView(open_snapshot(path, verify=True))
        engine = QueryEngine()
        label = sorted(graph.labels())[0]
        query = PathQuery.parse(f"{label}.{label}*", graph.alphabet)
        assert engine.evaluate(view, query) == engine.evaluate(graph, query)


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="does not exist"):
            open_snapshot(tmp_path / "nope.rgz")

    def test_bad_magic(self, geo_snapshot):
        data = bytearray(geo_snapshot.read_bytes())
        data[:4] = b"BOGU"
        geo_snapshot.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="bad magic"):
            open_snapshot(geo_snapshot)

    def test_unsupported_version(self, geo_snapshot):
        data = bytearray(geo_snapshot.read_bytes())
        struct.pack_into("<I", data, 8, 99)
        geo_snapshot.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="version"):
            open_snapshot(geo_snapshot)

    def test_header_checksum_detects_flips(self, geo_snapshot):
        data = bytearray(geo_snapshot.read_bytes())
        data[20] ^= 0xFF  # inside the header's count fields
        geo_snapshot.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            open_snapshot(geo_snapshot)

    def test_payload_checksum_on_verify(self, geo_snapshot):
        data = bytearray(geo_snapshot.read_bytes())
        data[-3] ^= 0x01  # flip a bit inside the meta JSON tail
        geo_snapshot.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="payload checksum"):
            open_snapshot(geo_snapshot, verify=True)

    def test_truncated_file(self, geo_snapshot):
        data = geo_snapshot.read_bytes()
        geo_snapshot.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError, match="truncated|checksum"):
            open_snapshot(geo_snapshot)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.rgz"
        empty.write_bytes(b"")
        with pytest.raises(StorageError):
            open_snapshot(empty)

    def test_garbage_meta(self, geo_snapshot):
        info = snapshot_info(geo_snapshot)
        offset = info["sections"]["meta"]["offset"]
        data = bytearray(geo_snapshot.read_bytes())
        data[offset] = 0xFF
        geo_snapshot.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="meta"):
            snapshot_info(geo_snapshot)


class TestMappedIndex:
    def test_repr_and_close(self, geo_snapshot):
        mapped = open_snapshot(geo_snapshot)
        assert isinstance(mapped, MappedGraphIndex)
        assert "open" in repr(mapped)
        mapped.close()
        assert "closed" in repr(mapped)
        mapped.close()  # idempotent

    def test_refresh_of_thawed_view_is_heap_backed(self, geo, geo_snapshot):
        mapped = open_snapshot(geo_snapshot)
        thawed = GraphView(mapped).thaw()
        index = GraphIndex.build(thawed)
        thawed.add_edge("N1", "bus", "N9")
        refreshed = index.refresh(thawed, max_ratio=1.0)
        fresh = GraphIndex.build(thawed)
        assert refreshed is not None
        assert type(refreshed) is GraphIndex
        for lid in range(fresh.num_labels):
            assert refreshed.fwd_targets[lid].tobytes() == fresh.fwd_targets[lid].tobytes()

    def test_view_freezes_mutation(self, geo_snapshot):
        view = GraphView(open_snapshot(geo_snapshot))
        with pytest.raises(GraphError, match="frozen"):
            view.add_edge("a", "l", "b")
        with pytest.raises(GraphError, match="frozen"):
            view.add_node("new")

    def test_view_read_api_matches_graphdb(self, geo, geo_snapshot):
        view = GraphView(open_snapshot(geo_snapshot))
        assert view.node_order == geo.node_order
        assert view.label_order == geo.label_order
        assert view.nodes == geo.nodes
        assert view.edges == geo.edges
        assert view.node_count() == geo.node_count()
        assert view.edge_count() == geo.edge_count()
        assert len(view) == len(geo)
        assert sorted(view.alphabet) == sorted(geo.alphabet)
        for node in geo.node_order:
            assert successors(view, node) == successors(geo, node)
            for label in geo.labels():
                assert successors(view, node, label) == successors(geo, node, label)
        for origin, label, end in geo.edges:
            assert view.has_edge(origin, label, end)
        assert not view.has_edge("N1", "made-up", "N2")

    def test_thaw_is_mutable_and_equal(self, geo, geo_snapshot):
        view = GraphView(open_snapshot(geo_snapshot))
        thawed = view.thaw()
        assert thawed.nodes == geo.nodes
        assert thawed.edges == geo.edges
        assert thawed.node_order == geo.node_order
        thawed.add_edge("N1", "bus", "brand-new")
        assert thawed.edge_count() == geo.edge_count() + 1
        # The view is untouched.
        assert view.edge_count() == geo.edge_count()


def test_written_file_is_deterministic(tmp_path, geo):
    index = GraphIndex.build(geo)
    a, b = tmp_path / "a.rgz", tmp_path / "b.rgz"
    write_snapshot(index, a, meta={"name": "geo"})
    write_snapshot(index, b, meta={"name": "geo"})
    assert a.read_bytes() == b.read_bytes()


def test_meta_is_json_roundtrippable(geo_snapshot):
    info = snapshot_info(geo_snapshot)
    assert json.loads(json.dumps(info)) == info
