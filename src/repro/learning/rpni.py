"""The classical RPNI algorithm on words (Oncina & Garcia 1992).

RPNI learns a regular language from positive and negative *word* examples:
build the prefix tree acceptor of the positives, then merge states in
canonical order as long as no negative word is accepted.  The paper's graph
learner is built on the same generalization engine
(:func:`repro.automata.kernel.fold_generalize`); RPNI is provided here
both as the reference word-level learner that the characteristic-sample
construction of Theorem 3.5 leans on, and for direct use and testing.

The whole run stays on the int-coded kernel: the PTA is a
:class:`~repro.automata.kernel.TableDFA`, the negative words are interned
to symbol-id tuples once, and the merge guard is batched membership on the
in-place :class:`~repro.automata.kernel.MergeFold`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import MergeFold, TableDFA, fold_generalize, pta_table
from repro.errors import LearningError


def rpni(
    alphabet: Alphabet,
    positive_words: Iterable[Sequence[str]],
    negative_words: Iterable[Sequence[str]],
) -> TableDFA:
    """Learn a DFA consistent with the given word examples.

    Returns the canonical table of the inferred language.  Raises
    :class:`LearningError` if the word sample itself is contradictory (a
    word labeled both positive and negative).
    """
    positives: list[Word] = [alphabet.check_word(w) for w in positive_words]
    negatives: list[Word] = [alphabet.check_word(w) for w in negative_words]
    negative_set = set(negatives)
    conflict = [w for w in positives if w in negative_set]
    if conflict:
        raise LearningError(f"words labeled both positive and negative: {conflict[:3]!r}")
    if not positives:
        # The empty language is consistent with any purely negative sample.
        return TableDFA.blank(alphabet, 1)

    pta = pta_table(alphabet, positives)
    interned_negatives = [pta.encode(word) for word in negative_set]

    def violates(candidate: MergeFold) -> bool:
        return any(candidate.accepts_ids(word) for word in interned_negatives)

    fold = fold_generalize(pta, violates)
    return fold.to_table().canonical()
