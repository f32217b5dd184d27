"""Parity tests for the int-coded automata kernel.

Every kernel-native algorithm is pinned against the legacy object-level
implementation it replaced (kept as ``reference_*`` in
``tests/oracles``): round-trips, subset determinization, Hopcroft vs Moore
minimization, the canonical DFA normal form, products, batched membership
and the union-find RPNI fold.  The generators are randomized (random
regular expressions and word samples over a small alphabet), so this suite
is the safety net the one-kernel refactor rests on.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st
from oracles.determinize import reference_determinize
from oracles.generalize import prefix_tree_acceptor, reference_generalize_pta
from oracles.merging import reference_deterministic_merge
from oracles.minimize import reference_canonical_dfa, reference_minimize
from oracles.operations import intersection_empty, language_equivalent, language_included
from oracles.regex import regex_to_nfa, regexes

from repro.automata import Alphabet
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.kernel import (
    MergeFold,
    TableDFA,
    fold_generalize,
    language_included_tables,
    pta_table,
)
from repro.automata.minimize import canonical_dfa, minimize
from repro.errors import LearningError
from repro.learning.generalize import generalize_pta
from repro.learning.rpni import rpni
from repro.regex import compile_query, parse

ALPHABET = Alphabet(["a", "b", "c"])
SYMBOLS = list(ALPHABET.symbols)

words = st.lists(st.sampled_from(SYMBOLS), max_size=5).map(tuple)
word_sets = st.lists(words, min_size=1, max_size=8)


def assert_same_dfa(left: DFA, right: DFA) -> None:
    """Byte-level structural identity: states, finals and transitions."""
    assert left.alphabet == right.alphabet
    assert left.initial == right.initial
    assert left.states == right.states
    assert left.final_states == right.final_states
    assert set(left.transitions()) == set(right.transitions())


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(regex=regexes())
    def test_dfa_table_round_trip_is_exact(self, regex):
        dfa = compile_query(regex, ALPHABET)
        table, order = TableDFA.from_dfa(dfa)
        assert_same_dfa(table.to_dfa(states=order), dfa)

    @settings(max_examples=50, deadline=None)
    @given(regex=regexes(), word=words)
    def test_table_membership_matches_dfa(self, regex, word):
        dfa = compile_query(regex, ALPHABET)
        table, _ = TableDFA.from_dfa(dfa)
        assert table.accepts(word) == dfa.accepts(word)

    @settings(max_examples=30, deadline=None)
    @given(regex=regexes(), sample=word_sets)
    def test_batched_membership_matches_per_word(self, regex, sample):
        dfa = compile_query(regex, ALPHABET)
        table, _ = TableDFA.from_dfa(dfa)
        assert table.accepts_many(sample) == [dfa.accepts(word) for word in sample]

    @settings(max_examples=30, deadline=None)
    @given(regex=regexes())
    def test_emptiness_and_shortest_word_match(self, regex):
        dfa = compile_query(regex, ALPHABET)
        table, _ = TableDFA.from_dfa(dfa)
        assert table.is_empty_language() == dfa.is_empty()
        assert table.shortest_word() == dfa.shortest_accepted_word()


WIDE_ALPHABET = Alphabet(["a", "b", "c", "d", "e"])


@st.composite
def raw_nfas(draw) -> NFA:
    """Small NFAs the Thompson construction never produces: several (or no)
    initials, epsilon cycles, unused alphabet symbols, possibly no finals."""
    states = list(range(draw(st.integers(min_value=1, max_value=6))))
    state = st.sampled_from(states)
    used = draw(st.lists(st.sampled_from(WIDE_ALPHABET.symbols), max_size=3, unique=True))
    nfa = NFA(
        WIDE_ALPHABET,
        states=states,
        initial=draw(st.lists(state, max_size=3)),
        finals=draw(st.lists(state, max_size=3)),
    )
    if used:
        for source, symbol, target in draw(
            st.lists(st.tuples(state, st.sampled_from(used), state), max_size=12)
        ):
            nfa.add_transition(source, symbol, target)
    for source, target in draw(st.lists(st.tuples(state, state), max_size=6)):
        nfa.add_epsilon_transition(source, target)
    return nfa


def reference_table(nfa: NFA) -> tuple[array, int, list[frozenset]]:
    """The table ``from_nfa`` must return, read off the reference subset DFA:
    subsets numbered breadth first, symbols in alphabet order."""
    dfa = reference_determinize(nfa)
    symbols = nfa.alphabet.symbols
    subsets = [dfa.initial]
    ids = {dfa.initial: 0}
    for subset in subsets:  # grows while iterated: a BFS queue
        for symbol in symbols:
            target = dfa.delta(subset, symbol)
            if target is not None and target not in ids:
                ids[target] = len(subsets)
                subsets.append(target)
    trans = array(
        "i", (ids.get(dfa.delta(subset, symbol), -1) for subset in subsets for symbol in symbols)
    )
    finals = sum(1 << ids[subset] for subset in dfa.final_states)
    return trans, finals, subsets


class TestDeterminizeParity:
    @settings(max_examples=50, deadline=None)
    @given(regex=regexes())
    def test_subset_construction_matches_reference(self, regex):
        nfa = regex_to_nfa(regex, ALPHABET)
        table, subsets = TableDFA.from_nfa(nfa)
        assert_same_dfa(table.to_dfa(states=subsets), reference_determinize(nfa))

    @settings(max_examples=200, deadline=None)
    @given(nfa=raw_nfas())
    def test_table_and_subsets_match_reference_on_raw_nfas(self, nfa):
        table, subsets = TableDFA.from_nfa(nfa)
        trans, finals, expected_subsets = reference_table(nfa)
        assert subsets == expected_subsets
        assert (table.n, table.initial, table.finals) == (len(subsets), 0, finals)
        assert table.trans.tobytes() == trans.tobytes()

    def test_compiled_expression_stream_matches_reference_pipeline(self):
        # The serving workloads' shapes on their 20-label alphabet; every
        # class mentions 1-3 labels, so most symbols are unused by any one NFA.
        labels = [f"l{index:02d}" for index in range(20)]
        alphabet = Alphabet(labels)
        rng = random.Random(13)

        def label_class() -> str:
            return "(" + "+".join(rng.sample(labels, rng.randint(1, 3))) + ")"

        shapes = (
            lambda: f"{label_class()}.{label_class()}*.{label_class()}",
            lambda: f"{label_class()}.{label_class()}+{label_class()}*.{label_class()}",
            lambda: f"(({label_class()}*.{label_class()})*.{label_class()})*",
        )
        for index in range(150):
            text = shapes[index % len(shapes)]()
            compiled, _ = TableDFA.from_dfa(compile_query(text, alphabet))
            reference, _ = TableDFA.from_dfa(
                reference_canonical_dfa(regex_to_nfa(parse(text), alphabet))
            )
            assert compiled.fingerprint() == reference.fingerprint(), text


class TestMinimizeParity:
    @settings(max_examples=50, deadline=None)
    @given(regex=regexes())
    def test_hopcroft_agrees_with_moore(self, regex):
        dfa = compile_query(regex, ALPHABET)
        hopcroft = minimize(dfa)
        moore = reference_minimize(dfa)
        assert len(hopcroft) == len(moore)
        assert language_equivalent(hopcroft, moore)

    @settings(max_examples=50, deadline=None)
    @given(regex=regexes())
    def test_canonical_dfa_matches_prerefactor_pipeline(self, regex):
        nfa = regex_to_nfa(regex, ALPHABET)
        assert_same_dfa(canonical_dfa(nfa), reference_canonical_dfa(nfa))


class TestProducts:
    @settings(max_examples=40, deadline=None)
    @given(left=regexes(), right=regexes())
    def test_intersection_emptiness_matches_product(self, left, right):
        # The kernel's own product table and early-exit emptiness test are
        # gone (test-only since PR 21).  The product walk it keeps is the
        # inclusion one: L & R is empty iff L is inside R's complement.
        left_dfa = compile_query(left, ALPHABET)
        right_dfa = compile_query(right, ALPHABET)
        left_table, _ = TableDFA.from_dfa(left_dfa)
        outside_right, _ = TableDFA.from_dfa(right_dfa.complement())
        assert intersection_empty(left_dfa, right_dfa) == language_included_tables(
            left_table, outside_right
        )

    @settings(max_examples=40, deadline=None)
    @given(left=regexes(), right=regexes())
    def test_inclusion_matches_complement_route(self, left, right):
        left_dfa = compile_query(left, ALPHABET)
        right_dfa = compile_query(right, ALPHABET)
        left_table, _ = TableDFA.from_dfa(left_dfa)
        right_table, _ = TableDFA.from_dfa(right_dfa)
        via_kernel = language_included_tables(left_table, right_table)
        # Classic exponential route: L(left) & complement(L(right)) empty.
        via_complement = intersection_empty(left_dfa, right_dfa.complement())
        assert via_kernel == via_complement
        assert language_included(left_dfa, right_dfa) == via_kernel


class TestMergeFold:
    def _random_pta(self, rng: random.Random):
        sample = [
            tuple(rng.choice(SYMBOLS) for _ in range(rng.randrange(0, 5)))
            for _ in range(rng.randrange(1, 7))
        ]
        return prefix_tree_acceptor(ALPHABET, sample), sample

    @pytest.mark.parametrize("seed", range(25))
    def test_fold_matches_reference_merge(self, seed):
        rng = random.Random(seed)
        pta, _ = self._random_pta(rng)
        states = sorted(pta.states, key=ALPHABET.word_key)
        keep, remove = rng.sample(states, 2) if len(states) > 1 else (states[0], states[0])
        table, labels = TableDFA.from_dfa(pta)
        fold = MergeFold(table)
        fold.merge(labels.index(keep), labels.index(remove))
        merged = fold.to_table().to_dfa()
        reference = reference_deterministic_merge(pta, keep, remove)
        # The merged partition is unique; representatives may differ, so
        # compare class count and language, then the canonical normal form.
        assert len(merged) == len(reference)
        assert language_equivalent(merged, reference)
        assert_same_dfa(canonical_dfa(merged), canonical_dfa(reference))

    @pytest.mark.parametrize("seed", range(15))
    def test_rollback_restores_the_fold_exactly(self, seed):
        rng = random.Random(seed)
        pta, _ = self._random_pta(rng)
        table, _ = TableDFA.from_dfa(pta)
        fold = MergeFold(table)
        before = fold.to_table().fingerprint()
        states = fold.roots()
        mark = fold.mark()
        if len(states) > 1:
            keep, remove = rng.sample(states, 2)
            fold.merge(keep, remove)
        fold.rollback(mark)
        assert fold.to_table().fingerprint() == before

    def test_speculative_merge_then_commit(self):
        pta = prefix_tree_acceptor(ALPHABET, [("a", "b", "c"), ("c",)])
        table, labels = TableDFA.from_dfa(pta)
        ids = {label: index for index, label in enumerate(labels)}
        fold = MergeFold(table)
        # Section 3.2's worked merge: eps with ab gives (a.b)*.c.
        fold.merge(ids[()], ids[("a", "b")])
        fold.commit()
        assert fold.accepts(("c",))
        assert fold.accepts(("a", "b", "a", "b", "c"))
        assert not fold.accepts(("b", "c"))


def oracle_generalize(pta: DFA, alphabet: Alphabet, violates) -> DFA:
    """Independent slow oracle: canonical red-blue loop on dicts and sets.

    Classes are tracked in a plain union-find keyed by the canonical index
    of the PTA's prefix states, with the smallest member as representative
    (the access-word order classical RPNI prescribes); every candidate
    merge builds a fresh quotient DFA for the guard.  None of the kernel's
    machinery is used, so agreement with :func:`fold_generalize` pins the
    whole in-place merge/undo path.

    (The *legacy* loop is not a usable oracle here: its
    ``deterministic_merge`` picked class representatives in Python set
    iteration order, so on adversarial samples its merge order -- and hence
    its result -- silently depended on the hash seed.)
    """
    order = sorted(pta.states, key=alphabet.word_key)
    ids = {state: index for index, state in enumerate(order)}

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def fold(parent, left, right):
        parent = dict(parent)
        pending = [(left, right)]
        while pending:
            x, y = pending.pop()
            rx, ry = find(parent, x), find(parent, y)
            if rx == ry:
                continue
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            targets: dict[str, int] = {}
            for index in range(len(order)):
                if find(parent, index) != rx:
                    continue
                for symbol, target in pta.outgoing(order[index]):
                    target_root = find(parent, ids[target])
                    previous = targets.get(symbol)
                    if previous is None:
                        targets[symbol] = target_root
                    elif find(parent, previous) != target_root:
                        pending.append((previous, target_root))
        return parent

    def quotient(parent):
        representative = {
            state: order[find(parent, ids[state])] for state in pta.states
        }
        dfa = DFA(
            pta.alphabet,
            initial=representative[pta.initial],
            states=set(representative.values()),
            finals={representative[s] for s in pta.final_states},
        )
        for source, symbol, target in pta.transitions():
            if dfa.delta(representative[source], symbol) is None:
                dfa.add_transition(
                    representative[source], symbol, representative[target]
                )
        return dfa

    parent = {index: index for index in range(len(order))}
    red = {0}
    while True:
        quotient_dfa = quotient(parent)
        red_roots = sorted({find(parent, r) for r in red})
        blue = sorted(
            {ids[t] for r in red_roots for _, t in quotient_dfa.outgoing(order[r])}
            - set(red_roots)
        )
        if not blue:
            return quotient_dfa
        candidate = blue[0]
        merged = False
        for red_root in red_roots:
            merged_parent = fold(parent, red_root, candidate)
            if violates(quotient(merged_parent)):
                continue
            parent = merged_parent
            red = {find(parent, r) for r in red_roots}
            merged = True
            break
        if not merged:
            red = set(red_roots) | {candidate}


def _random_word_sample(rng: random.Random):
    positives = [
        tuple(rng.choice(SYMBOLS) for _ in range(rng.randrange(0, 5)))
        for _ in range(rng.randrange(1, 6))
    ]
    positive_set = set(positives)
    negatives = [
        word
        for word in (
            tuple(rng.choice(SYMBOLS) for _ in range(rng.randrange(0, 5)))
            for _ in range(rng.randrange(0, 8))
        )
        if word not in positive_set
    ]
    return positives, negatives


class TestGeneralizationParity:
    @pytest.mark.parametrize("seed", range(30))
    def test_fold_generalize_matches_canonical_oracle(self, seed):
        rng = random.Random(seed)
        positives, negatives = _random_word_sample(rng)

        def word_guard(candidate):
            return any(candidate.accepts(word) for word in negatives)

        pta = prefix_tree_acceptor(ALPHABET, positives)
        kernel_result = generalize_pta(pta, word_guard)
        oracle_result = oracle_generalize(pta, ALPHABET, word_guard)
        assert_same_dfa(canonical_dfa(kernel_result), canonical_dfa(oracle_result))

    @pytest.mark.parametrize("seed", range(20))
    def test_generalization_results_are_sample_consistent(self, seed):
        # The legacy loop is kept as reference_generalize_pta; both it and
        # the kernel loop must produce sample-consistent hypotheses (their
        # merge orders may differ -- see the oracle's docstring).
        rng = random.Random(500 + seed)
        positives, negatives = _random_word_sample(rng)

        def word_guard(candidate):
            return any(candidate.accepts(word) for word in negatives)

        pta = prefix_tree_acceptor(ALPHABET, positives)
        for result in (
            generalize_pta(pta, word_guard),
            reference_generalize_pta(pta, word_guard, alphabet=ALPHABET),
        ):
            for word in positives:
                assert result.accepts(word)
            for word in negatives:
                assert not result.accepts(word)

    @pytest.mark.parametrize("seed", range(20))
    def test_rpni_matches_canonical_oracle_pipeline(self, seed):
        rng = random.Random(1000 + seed)
        positives, negatives = _random_word_sample(rng)

        def word_guard(candidate):
            return any(candidate.accepts(word) for word in negatives)

        learned = rpni(ALPHABET, positives, negatives)
        pta = prefix_tree_acceptor(ALPHABET, positives)
        oracle = canonical_dfa(oracle_generalize(pta, ALPHABET, word_guard))
        assert_same_dfa(learned, oracle)

    def test_fold_generalize_guard_violation_raises(self):
        table = pta_table(ALPHABET, [("a",)])
        with pytest.raises(LearningError):
            fold_generalize(table, lambda fold: True)

    def test_fold_generalize_max_merges_cap(self):
        table = pta_table(ALPHABET, [("a", "a", "a", "a")])
        capped = fold_generalize(table, lambda fold: False, max_merges=0)
        uncapped = fold_generalize(table, lambda fold: False)
        assert len(capped.roots()) == table.n > len(uncapped.roots())


class TestPtaTable:
    def test_states_numbered_in_canonical_order(self):
        table, prefixes = pta_table(
            ALPHABET, [("a", "b", "c"), ("c",)], with_prefixes=True
        )
        assert prefixes == [(), ("a",), ("c",), ("a", "b"), ("a", "b", "c")]
        assert table.n == 5
        assert sorted(table.iter_finals()) == [2, 4]

    def test_table_pta_equals_wrapper_pta(self):
        # Against a trie built move by move over DFA objects.
        sample = [("a", "b"), ("a",), ("c", "c")]
        table, prefixes = pta_table(ALPHABET, sample, with_prefixes=True)
        trie = DFA(ALPHABET, initial=())
        for word in sample:
            for cut in range(len(word)):
                trie.add_transition(word[:cut], word[cut], word[: cut + 1])
            trie.add_final(word)
        assert_same_dfa(table.to_dfa(states=prefixes), trie)
