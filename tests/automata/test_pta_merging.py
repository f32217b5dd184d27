"""Unit tests for the prefix tree acceptor and the merge-and-fold.

Both run on the kernel: the PTA is :func:`pta_table` viewed with its prefix
words as state names, a merge is one :meth:`MergeFold.merge`.
"""

import pytest
from oracles.generalize import prefix_tree_acceptor

from repro.automata import Alphabet
from repro.automata.dfa import DFA
from repro.automata.kernel import MergeFold, pta_table


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


def merged(alphabet: Alphabet, words, keep, remove) -> DFA:
    """The PTA of ``words`` after merging prefix ``remove`` into ``keep``."""
    table, prefixes = pta_table(alphabet, words, with_prefixes=True)
    fold = MergeFold(table)
    fold.merge(prefixes.index(keep), prefixes.index(remove))
    return fold.to_table().to_dfa()


class TestPrefixTreeAcceptor:
    def test_pta_of_paper_example(self, abc):
        # Figure 6(a): PTA of {abc, c} has states eps, a, ab, abc, c.
        pta = prefix_tree_acceptor(abc, [("a", "b", "c"), ("c",)])
        assert set(pta.states) == {(), ("a",), ("a", "b"), ("a", "b", "c"), ("c",)}
        assert pta.final_states == {("a", "b", "c"), ("c",)}

    def test_pta_accepts_exactly_the_words(self, abc):
        words = [("a", "b"), ("a",), ("c", "c")]
        pta = prefix_tree_acceptor(abc, words)
        for word in words:
            assert pta.accepts(word)
        assert not pta.accepts(("b",))
        assert not pta.accepts(("a", "b", "c"))

    def test_pta_of_empty_word(self, abc):
        pta = prefix_tree_acceptor(abc, [()])
        assert pta.accepts(())
        assert len(pta) == 1

    def test_pta_states_in_canonical_order(self, abc):
        # The table numbers states in canonical prefix order: the merge order
        # of Algorithm 1 is plain int order on state ids.
        _, prefixes = pta_table(abc, [("a", "b", "c"), ("c",)], with_prefixes=True)
        assert prefixes == [(), ("a",), ("c",), ("a", "b"), ("a", "b", "c")]
        assert prefixes == sorted(prefixes, key=abc.word_key)

    def test_pta_shares_prefixes(self, abc):
        pta = prefix_tree_acceptor(abc, [("a", "b"), ("a", "c")])
        # eps, a, ab, ac -> 4 states, not 5.
        assert len(pta) == 4


class TestDeterministicMerge:
    def test_paper_merge_eps_ab_yields_abstar_c(self, abc):
        # Section 3.2: merging eps and ab in the PTA of {abc, c} gives (a.b)*.c.
        result = merged(abc, [("a", "b", "c"), ("c",)], (), ("a", "b"))
        assert result.accepts(("c",))
        assert result.accepts(("a", "b", "c"))
        assert result.accepts(("a", "b", "a", "b", "c"))
        assert not result.accepts(("b", "c"))
        assert not result.accepts(())

    def test_merge_result_is_deterministic(self, abc):
        # A DFA refuses a second move on one symbol, so building it is the check.
        result = merged(abc, [("a", "b", "c"), ("c",), ("a", "c")], (), ("a",))
        seen = {}
        for source, symbol, _ in result.transitions():
            assert (source, symbol) not in seen
            seen[(source, symbol)] = True

    def test_merge_language_includes_original(self, abc):
        result = merged(abc, [("a", "b"), ("b",)], (), ("a",))
        for word in [("a", "b"), ("b",)]:
            assert result.accepts(word)

    def test_merge_same_state_is_identity(self, abc):
        result = merged(abc, [("a",)], (), ())
        assert result.accepts(("a",))
        assert len(result) == len(prefix_tree_acceptor(abc, [("a",)]))
