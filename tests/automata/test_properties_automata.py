"""Property-based tests (hypothesis) on the automata substrate.

The generators build random regular expressions and random word samples over
a small alphabet, and check the algebraic invariants that the learner's
correctness rests on: determinization and minimization preserve the
language, the canonical DFA is a unique normal form, boolean operations
behave like set operations, and the prefix-free transformation produces the
minimal-words language.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.automata import compile_dfa, dfa_of, table_of
from oracles.operations import complement, intersect, language_equivalent, union
from oracles.regex import regex_to_nfa, regexes

from repro.automata import Alphabet
from repro.automata.kernel import pta_table
from repro.automata.prefix_free import is_prefix_free_table, prefix_free_table
from repro.regex.build import compile_table

ALPHABET = Alphabet(["a", "b", "c"])
SYMBOLS = list(ALPHABET.symbols)

words = st.lists(st.sampled_from(SYMBOLS), max_size=5).map(tuple)
word_sets = st.lists(words, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(regex=regexes(), word=words)
def test_determinization_preserves_language(regex, word):
    nfa = regex_to_nfa(regex, ALPHABET)
    assert table_of(nfa).accepts(word) == nfa.accepts(word)


@settings(max_examples=60, deadline=None)
@given(regex=regexes(), word=words)
def test_canonical_dfa_preserves_language(regex, word):
    nfa = regex_to_nfa(regex, ALPHABET)
    canonical = table_of(nfa).canonical()
    assert canonical.accepts(word) == nfa.accepts(word)


@settings(max_examples=40, deadline=None)
@given(regex=regexes())
def test_canonical_dfa_is_a_normal_form(regex):
    # Canonicalizing twice yields a structurally identical automaton.
    first = table_of(regex_to_nfa(regex, ALPHABET)).canonical()
    second = first.canonical()
    assert first.fingerprint() == second.fingerprint()


@settings(max_examples=50, deadline=None)
@given(left=regexes(), right=regexes(), word=words)
def test_intersection_behaves_like_set_intersection(left, right, word):
    left_dfa = compile_dfa(left, ALPHABET)
    right_dfa = compile_dfa(right, ALPHABET)
    product = intersect(left_dfa, right_dfa)
    assert product.accepts(word) == (left_dfa.accepts(word) and right_dfa.accepts(word))


@settings(max_examples=50, deadline=None)
@given(left=regexes(), right=regexes(), word=words)
def test_union_behaves_like_set_union(left, right, word):
    left_dfa = compile_dfa(left, ALPHABET)
    right_dfa = compile_dfa(right, ALPHABET)
    combined = union(left_dfa, right_dfa)
    assert combined.accepts(word) == (left_dfa.accepts(word) or right_dfa.accepts(word))


@settings(max_examples=50, deadline=None)
@given(regex=regexes(), word=words)
def test_complement_flips_membership(regex, word):
    dfa = compile_dfa(regex, ALPHABET)
    assert complement(dfa).accepts(word) == (not dfa.accepts(word))


@settings(max_examples=40, deadline=None)
@given(sample=word_sets)
def test_pta_accepts_exactly_the_sample(sample):
    pta = pta_table(ALPHABET, sample)
    for word in sample:
        assert pta.accepts(word)
    # Any word that is not in the sample is rejected.
    for word in [("a", "a", "a", "a", "a", "a"), ("c", "b", "a", "c")]:
        assert pta.accepts(word) == (word in set(sample))


@settings(max_examples=40, deadline=None)
@given(regex=regexes())
def test_prefix_free_form_is_prefix_free(regex):
    table = compile_table(regex, ALPHABET)
    if table.is_empty_language():
        pytest.skip("empty language has no prefix-free representative of interest")
    assert is_prefix_free_table(prefix_free_table(table))


@settings(max_examples=40, deadline=None)
@given(regex=regexes(), word=words)
def test_prefix_free_accepts_only_minimal_words(regex, word):
    dfa = compile_table(regex, ALPHABET)
    reduced = prefix_free_table(dfa)
    has_proper_prefix_in_language = any(
        dfa.accepts(word[:cut]) for cut in range(len(word))
    )
    expected = dfa.accepts(word) and not has_proper_prefix_in_language
    assert reduced.accepts(word) == expected


@settings(max_examples=40, deadline=None)
@given(regex=regexes())
def test_language_equivalence_is_reflexive(regex):
    dfa = compile_dfa(regex, ALPHABET)
    assert language_equivalent(dfa, dfa_of(table_of(dfa).canonical()))
