"""Unit tests for the regular expression parser."""

import pytest

from repro.errors import RegexSyntaxError
from repro.queries import PathQuery
from repro.regex import parse
from repro.regex.build import compile_table
from repro.regex.ast import Concat, Epsilon, Star, Symbol, Union


class TestAtoms:
    def test_single_symbol(self):
        assert parse("a") == Symbol("a")

    def test_multicharacter_symbol(self):
        assert parse("ProteinPurification") == Symbol("ProteinPurification")

    def test_epsilon_keywords(self):
        assert parse("eps") == Epsilon()
        assert parse("epsilon") == Epsilon()
        assert parse("ε") == Epsilon()

    def test_parenthesized_atom(self):
        assert parse("(a)") == Symbol("a")


class TestOperators:
    def test_concatenation_with_dot(self):
        assert parse("a.b") == Concat(Symbol("a"), Symbol("b"))

    def test_concatenation_with_middle_dot(self):
        assert parse("a·b") == Concat(Symbol("a"), Symbol("b"))

    def test_implicit_concatenation_with_whitespace(self):
        assert parse("a b") == Concat(Symbol("a"), Symbol("b"))

    def test_union(self):
        assert parse("a+b") == Union(Symbol("a"), Symbol("b"))

    def test_star(self):
        assert parse("a*") == Star(Symbol("a"))

    def test_star_binds_tighter_than_concatenation(self):
        assert parse("a.b*") == Concat(Symbol("a"), Star(Symbol("b")))

    def test_concatenation_binds_tighter_than_union(self):
        assert parse("a.b+c") == Union(Concat(Symbol("a"), Symbol("b")), Symbol("c"))

    def test_parentheses_override_precedence(self):
        assert parse("(a+b).c") == Concat(Union(Symbol("a"), Symbol("b")), Symbol("c"))

    def test_double_star_collapses(self):
        assert parse("a**") == Star(Symbol("a"))


class TestPaperQueries:
    def test_running_example(self):
        regex = parse("(tram+bus)*.cinema")
        assert isinstance(regex, Concat)
        assert isinstance(regex.left, Star)

    def test_workflow_example(self):
        regex = parse("ProteinPurification.ProteinSeparation*.MassSpectrometry")
        assert regex.alphabet_symbols() == {
            "ProteinPurification",
            "ProteinSeparation",
            "MassSpectrometry",
        }

    def test_abstar_c(self):
        regex = parse("(a.b)*.c")
        assert str(regex) == "(a.b)*.c"


class TestErrors:
    def test_empty_expression_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("")
        with pytest.raises(RegexSyntaxError):
            parse("   ")

    def test_unbalanced_parenthesis_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("(a+b")

    def test_trailing_operator_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("a+")

    def test_leading_star_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("*a")

    def test_unexpected_character_raises(self):
        with pytest.raises(RegexSyntaxError) as excinfo:
            parse("a ? b")
        assert excinfo.value.position is not None

    def test_dangling_close_paren_raises(self):
        with pytest.raises(RegexSyntaxError):
            parse("a)b")

    def test_too_deep_a_nesting_is_a_syntax_error_not_a_recursion_error(self):
        with pytest.raises(RegexSyntaxError, match="nested too deeply"):
            parse("(" * 300 + "a" + ")" * 300)
        # A long chain parses (the parser loops over operands), but the AST
        # it builds is as deep as the chain: compiling it is the same error.
        chain = "a" + ".a" * 1000
        with pytest.raises(RegexSyntaxError, match="nested too deeply"):
            compile_table(chain, ["a"])
        with pytest.raises(RegexSyntaxError, match="nested too deeply"):
            compile_table(parse(chain))
        with pytest.raises(RegexSyntaxError, match="nested too deeply"):
            PathQuery.parse(chain, ["a"])
        assert PathQuery.parse("a" + ".a" * 100, ["a"]).table.n == 102
