"""Unit tests for regex compilation and table -> regex conversion.

Compilation is the Glushkov construction (``compile_table``); its class
keeps the name of the Thompson construction it replaced, which is now the
oracle (``oracles.regex``) both are checked against.
"""

import pytest
from oracles.regex import regex_to_nfa

from repro.automata import Alphabet
from repro.automata.kernel import TableDFA
from repro.errors import RegexSyntaxError
from repro.regex import compile_query, dfa_to_regex, parse
from repro.regex.ast import EmptySet
from repro.regex.build import compile_table


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestThompsonConstruction:
    @pytest.mark.parametrize(
        "expression, accepted, rejected",
        [
            ("a", [("a",)], [(), ("b",), ("a", "a")]),
            ("eps", [()], [("a",)]),
            ("a.b", [("a", "b")], [("a",), ("b",), ("a", "b", "c")]),
            ("a+b", [("a",), ("b",)], [("c",), ("a", "b")]),
            ("a*", [(), ("a",), ("a", "a", "a")], [("b",), ("a", "b")]),
            (
                "(a.b)*.c",
                [("c",), ("a", "b", "c"), ("a", "b", "a", "b", "c")],
                [(), ("a", "b"), ("a", "c"), ("c", "c")],
            ),
            (
                "(a+b)*.c",
                [("c",), ("a", "c"), ("b", "a", "c")],
                [("c", "a"), ("a",)],
            ),
        ],
    )
    def test_language_of_compiled_expression(self, abc, expression, accepted, rejected):
        nfa = regex_to_nfa(parse(expression), abc)
        table = compile_table(parse(expression), abc)
        for word in accepted:
            assert nfa.accepts(word)
            assert table.accepts(word)
        for word in rejected:
            assert not nfa.accepts(word)
            assert not table.accepts(word)

    def test_compile_query_accepts_string_and_ast(self, abc):
        from_string = compile_query("(a.b)*.c", abc)
        from_ast = compile_query(parse("(a.b)*.c"), abc)
        assert from_string.structurally_equal(from_ast)

    def test_compile_query_with_iterable_alphabet(self):
        dfa = compile_query("a.b", ["a", "b", "c"])
        assert dfa.accepts(("a", "b"))

    def test_compile_query_rejects_symbols_outside_alphabet(self, abc):
        with pytest.raises(RegexSyntaxError):
            compile_query("a.z", abc)

    def test_alphabet_is_inferred_when_missing(self):
        dfa = compile_query("tram.bus")
        assert dfa.accepts(("tram", "bus"))


class TestStateElimination:
    @pytest.mark.parametrize(
        "expression",
        ["a", "a.b", "a+b", "a*", "(a.b)*.c", "(a+b)*.c", "a.(b+c)*", "a.b.c+b"],
    )
    def test_roundtrip_preserves_language(self, abc, expression):
        # Equal languages over one alphabet have identical canonical tables.
        table = compile_table(expression, abc)
        recovered = dfa_to_regex(table)
        assert compile_table(recovered, abc).fingerprint() == table.fingerprint()

    def test_empty_language_gives_empty_set(self, abc):
        assert dfa_to_regex(TableDFA.blank(abc, 1)) == EmptySet()

    def test_roundtrip_of_canonical_dfa(self, abc):
        # A table with a dead state renders like its canonical form.
        original = compile_table("(a.b)*.c", abc)
        padded = TableDFA(
            abc,
            n=original.n + 1,
            trans=original.trans + TableDFA.blank(abc, 1).trans,
            finals=original.finals,
        )
        recovered = compile_table(dfa_to_regex(padded), abc)
        assert recovered.fingerprint() == original.fingerprint()
