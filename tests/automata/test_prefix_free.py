"""Unit tests for prefix-free queries (Section 2 of the paper)."""

import pytest
from oracles.operations import language_equivalent

from repro.automata import Alphabet, is_prefix_free, prefix_free
from repro.regex import compile_query


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestIsPrefixFree:
    def test_abstar_c_is_prefix_free(self, abc):
        assert is_prefix_free(compile_query("(a.b)*.c", abc))

    def test_a_bstar_is_not_prefix_free(self, abc):
        # The paper's example: a and a.b* are equivalent; a.b* is not prefix-free.
        assert not is_prefix_free(compile_query("a.b*", abc))

    def test_a_plus_ab_is_not_prefix_free(self, abc):
        assert not is_prefix_free(compile_query("a+a.b", abc))

    def test_single_symbol_is_prefix_free(self, abc):
        assert is_prefix_free(compile_query("a", abc))

    def test_astar_is_not_prefix_free(self, abc):
        # eps is a prefix of a.
        assert not is_prefix_free(compile_query("a*", abc))


class TestPrefixFreeTransformation:
    def test_a_bstar_reduces_to_a(self, abc):
        reduced = prefix_free(compile_query("a.b*", abc))
        assert language_equivalent(reduced, compile_query("a", abc))

    def test_prefix_free_query_is_unchanged(self, abc):
        query = compile_query("(a.b)*.c", abc)
        assert language_equivalent(prefix_free(query), query)

    def test_result_is_always_prefix_free(self, abc):
        for expression in ["a.b*", "a+a.b", "a*", "(a+b)*.c", "a.(b+c)*"]:
            assert is_prefix_free(prefix_free(compile_query(expression, abc)))

    def test_astar_reduces_to_epsilon(self, abc):
        reduced = prefix_free(compile_query("a*", abc))
        assert reduced.accepts(())
        assert not reduced.accepts(("a",))

    def test_language_is_minimal_words_of_original(self, abc):
        # For a + a.b, only 'a' survives (a is a prefix of ab).
        reduced = prefix_free(compile_query("a+a.b", abc))
        assert reduced.accepts(("a",))
        assert not reduced.accepts(("a", "b"))
