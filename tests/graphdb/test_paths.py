"""The path semantics of graph databases: the binary enumeration the library
keeps, and the object-level ``oracles.paths`` walks the tests compare with."""

import pytest
from oracles.paths import covered_by, enumerate_paths, paths_nfa

from repro.errors import GraphError
from repro.graphdb import GraphDB, enumerate_paths_between


class TestPathsNFA:
    def test_language_is_paths_of_node(self, g0):
        nfa = paths_nfa(g0, "v1")
        # Section 2: abc is a path of v1, empty word always is, bc is not.
        assert nfa.accepts(())
        assert nfa.accepts(("a", "b", "c"))
        assert nfa.accepts(("a",))
        assert not nfa.accepts(("b",))
        assert not nfa.accepts(("c",))

    def test_multiple_start_nodes(self, g0):
        nfa = paths_nfa(g0, ["v2", "v7"])
        assert nfa.accepts(("b", "c"))   # path of v2
        assert nfa.accepts(("a", "a"))   # path of v7 (self loops)

    def test_unknown_node_raises(self, g0):
        with pytest.raises(GraphError):
            paths_nfa(g0, "missing")


class TestEnumeratePaths:
    def test_paper_example_paths_of_v5(self, g0):
        assert list(enumerate_paths(g0, "v5", max_length=3)) == [(), ("a",), ("b",)]

    def test_canonical_order(self, g0):
        paths = list(enumerate_paths(g0, "v1", max_length=3))
        keys = [g0.alphabet.word_key(path) for path in paths]
        assert keys == sorted(keys)

    def test_limit(self, g0):
        assert len(list(enumerate_paths(g0, "v1", max_length=4, limit=5))) == 5

    def test_empty_word_is_always_first(self, g0):
        for node in g0.nodes:
            first = next(iter(enumerate_paths(g0, node, max_length=1)))
            assert first == ()

    def test_words_are_deduplicated(self):
        graph = GraphDB(["a"])
        graph.add_edges([("x", "a", "y"), ("x", "a", "z")])
        assert list(enumerate_paths(graph, "x", max_length=1)) == [(), ("a",)]

    def test_negative_max_length_raises(self, g0):
        with pytest.raises(GraphError):
            list(enumerate_paths(g0, "v1", max_length=-1))

    def test_unknown_node_raises(self, g0):
        with pytest.raises(GraphError):
            list(enumerate_paths(g0, "missing", max_length=1))


class TestEnumeratePathsBetween:
    def test_paths_between_nodes(self, g0):
        paths = list(enumerate_paths_between(g0, "v1", "v4", max_length=3))
        assert ("a", "b", "c") in paths
        assert ("a", "a", "a") in paths  # v1 a v2 a v5 a v4
        assert () not in paths

    def test_same_node_includes_empty_word(self, g0):
        paths = list(enumerate_paths_between(g0, "v1", "v1", max_length=2))
        assert paths[0] == ()

    def test_no_path_within_bound(self):
        graph = GraphDB(["a"])
        graph.add_edges([("x", "a", "y"), ("z", "a", "w")])
        assert list(enumerate_paths_between(graph, "x", "w", max_length=3)) == []


class TestCoverage:
    def test_node_has_path(self, g0):
        # One node's paths: covered_by with a one-node set.
        assert covered_by(g0, ("b", "c"), ["v2"])
        assert not covered_by(g0, ("c",), ["v7"])
        assert covered_by(g0, (), ["v4"])

    def test_covered_by_negatives_of_paper_example(self, g0):
        negatives = {"v2", "v7"}
        # bc is covered by v2 (this blocks the eps/a merge in Section 3.2).
        assert covered_by(g0, ("b", "c"), negatives)
        # The empty word is covered by any non-empty node set.
        assert covered_by(g0, (), negatives)
        # abc and c are not covered: they are the SCPs of v1 and v3.
        assert not covered_by(g0, ("a", "b", "c"), negatives)
        assert not covered_by(g0, ("c",), negatives)

    def test_covered_by_empty_node_set_is_false(self, g0):
        assert not covered_by(g0, (), set())

    def test_covered_by_unknown_node_raises(self, g0):
        with pytest.raises(GraphError):
            covered_by(g0, ("a",), {"missing"})
