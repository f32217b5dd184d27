"""Unit tests for graph serialization."""

import pytest

from repro.errors import GraphError
from repro.graphdb import (
    GraphDB,
    graph_from_edge_list,
    graph_from_json,
    graph_to_edge_list,
    graph_to_json,
    load_graph,
    save_graph,
)


@pytest.fixture
def sample_graph():
    graph = GraphDB(["a", "b"])
    graph.add_edges([("x", "a", "y"), ("y", "b", "z")])
    graph.add_node("isolated")
    return graph


class TestEdgeList:
    def test_roundtrip(self, sample_graph):
        text = graph_to_edge_list(sample_graph)
        restored = graph_from_edge_list(text)
        assert restored.nodes == sample_graph.nodes
        assert restored.edges == sample_graph.edges

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# comment\n\nx\ta\ty\n"
        graph = graph_from_edge_list(text)
        assert graph.edges == {("x", "a", "y")}

    def test_malformed_edge_raises(self):
        with pytest.raises(GraphError):
            graph_from_edge_list("x\ta\n")

    def test_malformed_node_directive_raises(self):
        with pytest.raises(GraphError):
            graph_from_edge_list("%node\tx\textra\n")

    def test_tabs_and_newlines_in_names_roundtrip(self):
        graph = GraphDB()
        graph.add_edge("has\ttab", "label\nwith\nnewlines", "back\\slash")
        graph.add_edge("cr\rname", "l", "plain")
        graph.add_node("iso\tlated")
        restored = graph_from_edge_list(graph_to_edge_list(graph))
        assert restored.nodes == graph.nodes
        assert restored.edges == graph.edges

    def test_comment_and_directive_lookalike_names_roundtrip(self):
        graph = GraphDB()
        graph.add_edge("#not-a-comment", "a", "%node")
        graph.add_node("%node")  # already present as an edge endpoint
        graph.add_node("#iso")
        restored = graph_from_edge_list(graph_to_edge_list(graph))
        assert restored.nodes == graph.nodes
        assert restored.edges == graph.edges

    def test_unknown_escape_raises(self):
        with pytest.raises(GraphError):
            graph_from_edge_list("a\\q\tl\tb\n")

    def test_dangling_escape_raises(self):
        with pytest.raises(GraphError):
            graph_from_edge_list("a\tl\tb\\\n")

    def test_output_is_node_order_stable(self):
        graph = GraphDB()
        graph.add_edge("zeta", "later", "alpha")
        graph.add_edge("alpha", "early", "mid")
        graph.add_node("lonely")
        expected = (
            "# repro graph database edge list\n"
            "zeta\tlater\talpha\n"
            "alpha\tearly\tmid\n"
            "%node\tlonely\n"
        )
        # Edges come out keyed by (origin, label, end) positions in the
        # stable node/label orders, isolated nodes in insertion order --
        # no repr-sorting, no hash-seed dependence.
        assert graph_to_edge_list(graph) == expected
        assert graph_to_edge_list(graph) == graph_to_edge_list(graph.copy())

    def test_copy_and_subgraph_preserve_label_order(self):
        # Regression: copy() used to replay a *set* of edges, so
        # the copy's label first-use order (the canonical CSR numbering and
        # edge-list output order) depended on the hash seed.  Two edges from
        # the same origin make any instability visible.
        graph = GraphDB()
        graph.add_edge("a", "xlabel", "b")
        graph.add_edge("a", "ylabel", "c")
        assert graph.copy().label_order == graph.label_order
        assert graph_to_edge_list(graph.copy()) == graph_to_edge_list(graph)


class TestJson:
    def test_roundtrip(self, sample_graph):
        text = graph_to_json(sample_graph)
        restored = graph_from_json(text)
        assert restored.nodes == sample_graph.nodes
        assert restored.edges == sample_graph.edges

    def test_invalid_json_raises(self):
        with pytest.raises(GraphError):
            graph_from_json("not json")

    def test_missing_edges_key_raises(self):
        with pytest.raises(GraphError):
            graph_from_json('{"nodes": []}')

    def test_malformed_edge_entry_raises(self):
        with pytest.raises(GraphError):
            graph_from_json('{"edges": [["x", "a"]]}')


class TestFiles:
    def test_save_and_load_json(self, sample_graph, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(sample_graph, path)
        assert load_graph(path).edges == sample_graph.edges

    def test_save_and_load_edge_list(self, sample_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        save_graph(sample_graph, path)
        assert load_graph(path).edges == sample_graph.edges
        assert load_graph(path).nodes == sample_graph.nodes
