"""Unit tests for the object-level Boolean operations (``oracles.operations``).

They are the oracle the kernel's inclusion walk is checked against, so they
are pinned here on the paper's small expressions.
"""

import pytest
from oracles.operations import (
    complement,
    intersect,
    intersection_empty,
    language_equivalent,
    language_included,
    union,
)

from repro.automata import Alphabet
from repro.automata.nfa import NFA
from repro.regex import compile_query
from repro.regex.ast import EmptySet
from repro.regex.build import compile_table


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestIntersection:
    def test_intersection_of_overlapping_languages(self, abc):
        left = compile_query("(a+b)*", abc)
        right = compile_query("a.b*", abc)
        product = intersect(left, right)
        assert product.accepts(("a",))
        assert product.accepts(("a", "b", "b"))
        assert not product.accepts(("b",))

    def test_intersection_empty_detects_disjoint_languages(self, abc):
        assert intersection_empty(compile_query("a.a*", abc), compile_query("b.b*", abc))
        assert not intersection_empty(compile_query("a*", abc), compile_query("a.a", abc))

    def test_intersection_across_different_alphabets(self):
        left = compile_query("a", Alphabet(["a", "b"]))
        right = compile_query("a", Alphabet(["a", "c"]))
        assert not intersection_empty(left, right)


class TestUnionAndComplement:
    def test_union_accepts_both_sides(self, abc):
        combined = union(compile_query("a", abc), compile_query("b.c", abc))
        assert combined.accepts(("a",))
        assert combined.accepts(("b", "c"))
        assert not combined.accepts(("b",))

    def test_complement(self, abc):
        comp = complement(compile_query("a*", abc))
        assert not comp.accepts(("a", "a"))
        assert comp.accepts(("b",))
        assert not comp.accepts(())


class TestEmptinessInclusionEquivalence:
    def test_is_empty(self, abc):
        assert NFA(abc, initial=[0]).is_empty()
        assert compile_table("a.b", abc).is_empty_language() is False
        assert compile_table(EmptySet(), abc).is_empty_language()

    def test_language_included(self, abc):
        assert language_included(compile_query("a.b", abc), compile_query("a.b*", abc))
        assert not language_included(compile_query("a.b*", abc), compile_query("a.b", abc))

    def test_language_equivalent(self, abc):
        assert language_equivalent(
            compile_query("(a.b)*.c", abc), compile_query("c+a.b.(a.b)*.c", abc)
        )
        assert not language_equivalent(compile_query("a", abc), compile_query("a.b", abc))
