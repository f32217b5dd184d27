"""Characteristic samples and characteristic graphs (Theorem 3.5).

Theorem 3.5 proves that the class of path queries of bounded canonical-DFA
size is learnable with abstain: for every query ``q`` one can build a graph
and a polynomially-sized *characteristic sample* on it such that the
learner, given any consistent extension of that sample, returns ``q``.

The construction has two stages, both implemented here:

1. :func:`characteristic_word_sample` -- the characteristic *word* sample
   ``(P+, P-)`` that the word-level learner (RPNI) needs to identify
   ``L(q)``.  We follow the standard construction over the minimal complete
   DFA (the query's table, completed and minimized): short prefixes reach
   every state, kernel words exercise every transition, and distinguishing
   suffixes separate every pair of states.
2. :func:`characteristic_graph` -- the graph of Figure 7: one positive node
   per word of ``P+`` whose smallest consistent path is exactly that word,
   and one negative node covering every word of ``P-`` together with every
   word canonically smaller than the longest positive word that is not
   prefixed by a word of ``L(q)`` (so that SCP selection cannot pick
   anything smaller than the intended word).
"""

from __future__ import annotations

from collections import deque

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import TableDFA
from repro.errors import LearningError
from repro.graphdb.graph import GraphDB
from repro.learning.sample import Sample
from repro.queries.path_query import PathQuery


def _smallest_words(table: TableDFA, source: int) -> dict[int, Word]:
    """The canonically smallest word leading from ``source`` to each state it
    reaches, in canonical order of those words (a breadth-first search)."""
    symbols, m, trans = table.alphabet.symbols, table.m, table.trans
    words: dict[int, Word] = {source: ()}
    queue = deque([source])
    while queue:
        state = queue.popleft()
        for position in range(m):
            target = trans[state * m + position]
            if target >= 0 and target not in words:
                words[target] = words[state] + (symbols[position],)
                queue.append(target)
    return words


def _distinguishing_suffix(table: TableDFA, left: int, right: int) -> Word | None:
    """A canonically small word accepted from exactly one of the two states
    of a *complete* table."""
    final, symbols, m, trans = table.is_final, table.alphabet.symbols, table.m, table.trans
    if final(left) != final(right):
        return ()
    queue: deque[tuple[int, int, Word]] = deque([(left, right, ())])
    seen = {(left, right)}
    while queue:
        l_state, r_state, word = queue.popleft()
        for position in range(m):
            pair = (trans[l_state * m + position], trans[r_state * m + position])
            extended = word + (symbols[position],)
            if final(pair[0]) != final(pair[1]):
                return extended
            if pair not in seen:
                seen.add(pair)
                queue.append((*pair, extended))
    return None


def characteristic_word_sample(query: PathQuery) -> tuple[set[Word], set[Word]]:
    """The characteristic word sample ``(P+, P-)`` for RPNI to identify ``L(q)``.

    For the paper's running example ``(a.b)*.c`` this yields
    ``P+ = {c, abc}`` and a ``P-`` containing (at least) ``eps, a, ab, ac, bc``.
    """
    if query.is_empty():
        raise LearningError("cannot build a characteristic sample for the empty query")
    complete = query.table.minimized()  # minimal complete DFA (may include a sink)
    access = _smallest_words(complete, complete.initial)
    symbols = complete.alphabet.symbols

    def state_of(word: Word) -> int:
        return complete.run_ids(complete.encode(word))

    positives: set[Word] = set()
    negatives: set[Word] = set()

    # Kernel words: the access word of every state, extended by every symbol.
    kernel: set[Word] = {()}
    for word in access.values():
        kernel.update(word + (symbol,) for symbol in symbols)

    # (1) every kernel word, completed by the shortest accepting tail, is positive.
    for word in kernel:
        tails = _smallest_words(complete, state_of(word)).items()
        tail = next((tail for state, tail in tails if complete.is_final(state)), None)
        if tail is not None:
            positives.add(word + tail)

    # (2) distinguishing suffixes between every short prefix and kernel word
    # that land on different states.
    short_prefixes = set(access.values())
    for left_word in sorted(short_prefixes):
        for right_word in sorted(kernel):
            left_state, right_state = state_of(left_word), state_of(right_word)
            if left_state == right_state:
                continue
            suffix = _distinguishing_suffix(complete, left_state, right_state)
            if suffix is None:
                continue
            left_full, right_full = left_word + suffix, right_word + suffix
            if complete.accepts(left_full):
                positives.add(left_full)
                negatives.add(right_full)
            else:
                negatives.add(left_full)
                positives.add(right_full)
    return positives, negatives


def theoretical_k(query: PathQuery) -> int:
    """The path-length bound ``k = 2n + 1`` of Theorem 3.5 for this query."""
    return 2 * query.size + 1


def characteristic_graph(
    query: PathQuery,
    *,
    alphabet: Alphabet | None = None,
) -> tuple[GraphDB, Sample]:
    """Build the characteristic graph and sample of Theorem 3.5 for ``query``.

    Returns ``(graph, sample)`` such that running the learner on any sample
    that extends ``sample`` consistently with ``query`` (with ``k`` at least
    :func:`theoretical_k`) returns a query equivalent to ``query``.
    """
    prefix_free_query = query.prefix_free_form()
    target_alphabet = alphabet if alphabet is not None else prefix_free_query.alphabet
    positives_words, negatives_words = characteristic_word_sample(prefix_free_query)
    if not positives_words:
        raise LearningError("the query has an empty characteristic positive set")

    graph = GraphDB(target_alphabet)
    sample_positives: set[str] = set()

    # (i) one positive node per positive word; a simple chain realizes the
    # word, and (the query being prefix-free) that word is necessarily the
    # smallest consistent path of the node.
    for index, word in enumerate(sorted(positives_words, key=target_alphabet.word_key)):
        head = f"pos{index}"
        current = head
        for position, symbol in enumerate(word, start=1):
            nxt = f"pos{index}_{position}"
            graph.add_edge(current, symbol, nxt)
            current = nxt
        graph.add_node(head)
        sample_positives.add(head)

    # (ii)+(iii) one negative node covering P- and every word canonically
    # smaller than the largest positive word that is not prefixed by a word
    # of L(q) (such words would otherwise be picked as spuriously small SCPs).
    largest_positive = max(positives_words, key=target_alphabet.word_key)
    blocked: set[Word] = set()
    for word in negatives_words:
        if not _has_prefix_in_language(prefix_free_query, word):
            blocked.add(word)
    for word in target_alphabet.words_up_to(len(largest_positive)):
        if target_alphabet.word_key(word) >= target_alphabet.word_key(largest_positive):
            continue
        if not _has_prefix_in_language(prefix_free_query, word):
            blocked.add(word)

    negative_head = "neg"
    graph.add_node(negative_head)
    trie_nodes: dict[Word, str] = {(): negative_head}
    for word in sorted(blocked, key=target_alphabet.word_key):
        for cut in range(1, len(word) + 1):
            prefix = word[:cut]
            if prefix in trie_nodes:
                continue
            parent = trie_nodes[word[: cut - 1]]
            node_name = f"neg_{len(trie_nodes)}"
            graph.add_edge(parent, word[cut - 1], node_name)
            trie_nodes[prefix] = node_name

    sample = Sample(positives=sample_positives, negatives={negative_head})
    return graph, sample


def _has_prefix_in_language(query: PathQuery, word: Word) -> bool:
    """Whether some prefix of ``word`` (including itself) belongs to ``L(q)``."""
    for cut in range(len(word) + 1):
        if query.accepts_word(word[:cut]):
            return True
    return False
