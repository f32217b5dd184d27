"""Unit tests for monadic path queries."""

import pytest
from oracles.automata import NFA, table_of

from repro.errors import QueryError, RegexSyntaxError
from repro.queries import PathQuery


class TestConstruction:
    def test_parse_and_size(self, abc_alphabet):
        query = PathQuery.parse("(a.b)*.c", abc_alphabet)
        assert query.size == 3
        assert query.expression == "(a.b)*.c"

    def test_parse_with_symbols_outside_alphabet_raises(self, abc_alphabet):
        with pytest.raises(RegexSyntaxError):
            PathQuery.parse("a.z", abc_alphabet)

    def test_from_automaton(self, abc_alphabet):
        nfa = NFA.from_words(abc_alphabet, [("a", "b"), ("c",)])
        query = PathQuery.from_automaton(table_of(nfa))
        assert query.accepts_word(("a", "b"))
        assert query.accepts_word(("c",))
        assert not query.accepts_word(("a",))

    def test_from_words(self, abc_alphabet):
        query = PathQuery.from_words(abc_alphabet, [("a", "b", "c"), ("c",)])
        assert query.accepts_word(("c",))
        assert not query.accepts_word(("a", "b"))

    def test_from_words_requires_at_least_one(self, abc_alphabet):
        with pytest.raises(QueryError):
            PathQuery.from_words(abc_alphabet, [])

    def test_repr_mentions_expression(self, abc_alphabet):
        assert "(a.b)*.c" in repr(PathQuery.parse("(a.b)*.c", abc_alphabet))


class TestLanguageLevel:
    def test_equality_is_language_equivalence(self, abc_alphabet):
        assert PathQuery.parse("(a.b)*.c", abc_alphabet) == PathQuery.parse(
            "c+a.b.(a.b)*.c", abc_alphabet
        )
        assert PathQuery.parse("a", abc_alphabet) != PathQuery.parse("b", abc_alphabet)

    def test_monadic_equivalence_ignores_suffixes(self, abc_alphabet):
        # Section 2: a and a.b* are equivalent queries.
        assert PathQuery.parse("a", abc_alphabet) == PathQuery.parse("a.b*", abc_alphabet)

    def test_prefix_free_form(self, abc_alphabet):
        query = PathQuery.parse("a.b*", abc_alphabet)
        assert not query.is_prefix_free()
        reduced = query.prefix_free_form()
        assert reduced.is_prefix_free()
        assert reduced == PathQuery.parse("a", abc_alphabet)

    def test_shortest_word(self, abc_alphabet):
        assert PathQuery.parse("(a.b)*.c", abc_alphabet).shortest_word() == ("c",)

    def test_hash_consistent_with_parsing_twice(self, abc_alphabet):
        assert hash(PathQuery.parse("a.b", abc_alphabet)) == hash(
            PathQuery.parse("a.b", abc_alphabet)
        )


class TestEvaluation:
    def test_evaluate_and_selects(self, g0, engine):
        query = PathQuery.parse("(a.b)*.c", g0.alphabet)
        assert query.evaluate(g0, engine=engine) == {"v1", "v3"}
        assert query.selects(g0, "v1", engine=engine)
        assert not query.selects(g0, "v2", engine=engine)

    def test_selectivity(self, g0, engine):
        query = PathQuery.parse("(a.b)*.c", g0.alphabet)
        assert query.selectivity(g0, engine=engine) == pytest.approx(2 / 7)

    def test_selectivity_of_empty_graph_raises(self, abc_alphabet, engine):
        from repro.graphdb import GraphDB

        with pytest.raises(QueryError):
            PathQuery.parse("a", abc_alphabet).selectivity(GraphDB(abc_alphabet), engine=engine)

    def test_equivalent_on_graph(self, prefix_equivalent_case, engine):
        graph, _ = prefix_equivalent_case
        goal = PathQuery.parse("(a.b)*.c", graph.alphabet)
        simple = PathQuery.parse("a", graph.alphabet)
        assert goal.equivalent_on(simple, graph, engine=engine)
        assert goal != simple

    def test_is_consistent_with(self, g0, engine):
        query = PathQuery.parse("(a.b)*.c", g0.alphabet)
        assert query.is_consistent_with(g0, {"v1", "v3"}, {"v2", "v7"}, engine=engine)
        assert not query.is_consistent_with(g0, {"v2"}, set(), engine=engine)
        assert not query.is_consistent_with(g0, {"v1"}, {"v3"}, engine=engine)
