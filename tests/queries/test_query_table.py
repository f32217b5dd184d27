"""A query is its canonical table: what ``PathQuery`` / ``BinaryPathQuery``
store, what they hash, and that nothing reaches back into it.

Counts are taken with ``TableDFA.canonical`` wrapped (the ``conversions``
fixture), never by clock.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from oracles.automata import NFA, compile_dfa, dfa_of, table_of
from oracles.minimize import reference_canonical_dfa
from oracles.prefix_free import reference_is_prefix_free, reference_prefix_free
from oracles.regex import regex_to_nfa, regexes

from repro.automata import Alphabet
from repro.errors import QueryError
from repro.queries import BinaryPathQuery, PathQuery

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])


class TestHashFollowsEquality:
    """``__hash__`` reads what ``__eq__`` compares, and nothing alphabet-bound."""

    def test_monadic_equivalents_hash_equal(self):
        # Equal under the monadic semantics (Section 2), so one set member.
        short, long = PathQuery.parse("a", AB), PathQuery.parse("a.b*", AB)
        assert short == long and hash(short) == hash(long)
        assert len({short, long}) == 1

    @pytest.mark.parametrize("query_class", [PathQuery, BinaryPathQuery])
    def test_one_language_over_two_alphabets_hashes_equal(self, query_class):
        narrow = query_class.parse("a", Alphabet(["a"]))
        wide = query_class.parse("a", AB)
        assert narrow == wide and hash(narrow) == hash(wide)
        assert len({narrow, wide}) == 1

    def test_symbol_order_does_not_reach_the_hash(self):
        sorted_order = PathQuery.parse("(a+b).c", ABC)
        reverse_order = PathQuery.parse("(a+b).c", Alphabet(["c", "b", "a"], sort=False))
        assert sorted_order == reverse_order and hash(sorted_order) == hash(reverse_order)

    def test_binary_semantics_still_tells_prefixes_apart(self):
        assert BinaryPathQuery.parse("a", AB) != BinaryPathQuery.parse("a.b*", AB)
        assert PathQuery.parse("a", AB) != PathQuery.parse("b", AB)


class TestQueriesAreImmutable:
    def test_a_parse_cache_hit_shares_the_table_and_not_the_view(self):
        first, second = PathQuery.parse("a.b*.c", ABC), PathQuery.parse("a.b*.c", ABC)
        assert first.table is second.table and first is not second

    def test_a_word_outside_the_alphabet_is_just_not_accepted(self):
        assert not PathQuery.parse("a", AB).accepts_word(["a", "z"])


class TestOneCanonicalisationPerConstructor:
    def test_each_constructor_canonicalises_once_and_converts_nothing(self, conversions):
        table = table_of(NFA.from_words(ABC, [("a", "b"), ("c",)]))
        for build in (
            lambda: PathQuery.from_words(ABC, [("a", "b"), ("c",)]),
            lambda: PathQuery.from_automaton(table),
            lambda: PathQuery(table),
            lambda: BinaryPathQuery(table),
            lambda: BinaryPathQuery.from_automaton(table),
        ):
            before = len(conversions["canonical"])
            build()
            assert len(conversions["canonical"]) == before + 1

    def test_the_prefix_free_form_is_computed_once_per_query(self, conversions):
        query = PathQuery.parse("a.b*", ABC)
        other = PathQuery.parse("a", ABC)
        start = len(conversions["canonical"])
        assert query.prefix_free_form() == other and query == other
        assert hash(query) == hash(other) and query.prefix_free_form().is_prefix_free()
        # ``a.b*`` is stripped once; ``a`` is prefix-free as it stands.
        assert len(conversions["canonical"]) == start + 1

    @pytest.mark.parametrize("query_class", [PathQuery, BinaryPathQuery])
    def test_an_object_automaton_is_a_query_error(self, query_class, conversions):
        dfa = compile_dfa("(a.b)*.c", ABC)
        compiled = len(conversions["canonical"])
        for automaton in (dfa, dfa.to_nfa()):
            with pytest.raises(QueryError, match="TableDFA"):
                query_class(automaton)
            with pytest.raises(QueryError, match="TableDFA"):
                query_class.from_automaton(automaton)
        assert len(conversions["canonical"]) == compiled


class TestRoundTrips:
    """The grid ships queries to worker processes and over the wire."""

    @pytest.mark.parametrize("query_class", [PathQuery, BinaryPathQuery])
    def test_pickle_and_dict_round_trips_keep_the_table(self, query_class):
        parsed = query_class.parse("(a.b)*.c", ABC)
        built = query_class(table_of(NFA.from_words(ABC, [("a", "b"), ("c",)])))
        for query in (parsed, built):
            query.expression  # a rendered (cached) expression must travel too
            for copy in (
                pickle.loads(pickle.dumps(query)),
                query_class.from_dict(query.to_dict()),
            ):
                assert copy.table.fingerprint() == query.table.fingerprint()
                assert copy == query and hash(copy) == hash(query)
                assert copy.expression == query.expression


@settings(max_examples=60, deadline=None)
@given(regex=regexes())
def test_the_stored_table_is_the_canonical_dfa(regex):
    nfa = regex_to_nfa(regex, ABC)
    dfa = reference_canonical_dfa(nfa)
    for source in (table_of(nfa), table_of(dfa)):
        query = PathQuery(source)
        assert dfa_of(query.table).structurally_equal(dfa)
        assert (query.size, query.alphabet) == (len(dfa), dfa.alphabet)
        assert query.shortest_word() == dfa.shortest_accepted_word()
        assert query.is_empty() == dfa.is_empty()


@settings(max_examples=60, deadline=None)
@given(regex=regexes())
def test_table_prefix_freeness_agrees_with_the_object_level_oracle(regex):
    nfa = regex_to_nfa(regex, ABC)
    query = PathQuery(table_of(nfa))
    assert reference_is_prefix_free(nfa) == query.is_prefix_free()
    expected = reference_prefix_free(nfa)
    assert dfa_of(query.prefix_free_form().table).structurally_equal(expected)
