"""Unit tests for prefix-free queries (Section 2 of the paper)."""

import pytest
from oracles.automata import compile_dfa, dfa_of
from oracles.operations import language_equivalent

from repro.automata import Alphabet
from repro.automata.prefix_free import is_prefix_free_table, prefix_free_table
from repro.regex.build import compile_table


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestIsPrefixFree:
    def test_abstar_c_is_prefix_free(self, abc):
        assert is_prefix_free_table(compile_table("(a.b)*.c", abc))

    def test_a_bstar_is_not_prefix_free(self, abc):
        # The paper's example: a and a.b* are equivalent; a.b* is not prefix-free.
        assert not is_prefix_free_table(compile_table("a.b*", abc))

    def test_a_plus_ab_is_not_prefix_free(self, abc):
        assert not is_prefix_free_table(compile_table("a+a.b", abc))

    def test_single_symbol_is_prefix_free(self, abc):
        assert is_prefix_free_table(compile_table("a", abc))

    def test_astar_is_not_prefix_free(self, abc):
        # eps is a prefix of a.
        assert not is_prefix_free_table(compile_table("a*", abc))


class TestPrefixFreeTransformation:
    def test_a_bstar_reduces_to_a(self, abc):
        reduced = prefix_free_table(compile_table("a.b*", abc))
        assert language_equivalent(dfa_of(reduced), compile_dfa("a", abc))

    def test_prefix_free_query_is_unchanged(self, abc):
        query = compile_table("(a.b)*.c", abc)
        assert language_equivalent(dfa_of(prefix_free_table(query)), dfa_of(query))

    def test_result_is_always_prefix_free(self, abc):
        for expression in ["a.b*", "a+a.b", "a*", "(a+b)*.c", "a.(b+c)*"]:
            assert is_prefix_free_table(prefix_free_table(compile_table(expression, abc)))

    def test_astar_reduces_to_epsilon(self, abc):
        reduced = prefix_free_table(compile_table("a*", abc))
        assert reduced.accepts(())
        assert not reduced.accepts(("a",))

    def test_language_is_minimal_words_of_original(self, abc):
        # For a + a.b, only 'a' survives (a is a prefix of ab).
        reduced = prefix_free_table(compile_table("a+a.b", abc))
        assert reduced.accepts(("a",))
        assert not reduced.accepts(("a", "b"))
