"""Selection of the smallest consistent paths (SCPs), and the negatives' memo.

For a positive node ``nu``, its smallest consistent path is the canonically
smallest word of ``paths_G(nu) \\ paths_G(S-)`` -- the smallest path of
``nu`` that no negative node covers (Algorithm 1, lines 1-2).  Because
``paths_G(nu)`` can be infinite, the search is bounded by the learner's
parameter ``k``; a positive node with no consistent path of length at most
``k`` simply contributes no SCP (the generalization step may still make the
learned query select it, which line 6 of the algorithm verifies).

Algorithm 1 asks the graph two questions, and both are about the one fixed
language ``paths_G(S-)``: "is this word covered by a negative?" (SCP
selection) and "does this candidate select a negative?" (the merge guard,
lines 4-5).  :class:`NegativeCoverage` is the single home of what a
learning episode knows about that language, so each question reaches the
graph once:

* *covered words* -- the multi-source frontier of every candidate word is
  computed once on the CSR index's int node ids and shared across all
  positive nodes, all ``k`` attempts and all rounds through a prefix-closed
  cache; :meth:`NegativeCoverage.smallest_uncovered_path` enumerates a
  node's paths on the same index against it;
* *witness words* -- when the guard's walk finds that a candidate selects a
  negative, the walk hands back the word it got there by, and
  :meth:`NegativeCoverage.violates` remembers it.  A remembered word is in
  ``paths_G(S-)``, so **any** candidate that accepts it selects a negative:
  later candidates are first run on the remembered words (pure automaton
  work) and the graph is walked only when none is accepted.  The guard's
  verdict, hence every learned query, is unchanged; classical RPNI keeps
  its negatives as words for the same reason.

Lifetime: one episode.  A coverage is built by whoever starts the episode
(:func:`~repro.learning.learner.learn_with_dynamic_k`, the interactive
:class:`~repro.interactive.state.SessionState`), passed to every attempt,
and dropped with it; it is stale as soon as the graph's index or the
negative set moves (:meth:`NegativeCoverage.is_current`).  Because
``paths_G(S-)`` only grows with ``S-``, :meth:`NegativeCoverage.extended`
carries the remembered words over to a larger negative set on the same
index.

The object-level :func:`repro.graphdb.paths.enumerate_paths` /
:func:`~repro.graphdb.paths.covered_by` walks remain behind the single-node
:func:`smallest_consistent_path`, the independent reference the tests
compare the index-side enumeration against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.alphabet import Alphabet, Word
from repro.errors import LearningError
from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import covered_by, enumerate_paths
from repro.learning.sample import Sample


class NegativeCoverage:
    """What one learning episode knows about ``paths_G(nodes)``, on the CSR index.

    ``covers(word)`` is True iff some node of the set has ``word`` in its
    ``paths_G``.  Frontiers (as sets of int node ids) are cached per word
    prefix, so checking the canonical enumeration of candidate paths for
    many positive nodes expands every distinct prefix exactly once over the
    index's per-label CSR slices.

    ``violates(candidate, ...)`` is the merge guard against the node set,
    answered from the remembered witness ``words`` when one of them is
    accepted and by one early-exit product walk otherwise (see the module
    docstring for the soundness argument).  ``guard_calls`` and
    ``guard_memo_hits`` count both outcomes.
    """

    __slots__ = (
        "_index",
        "_frontiers",
        "nodes",
        "_starts",
        "words",
        "_encoded",
        "guard_calls",
        "guard_memo_hits",
    )

    def __init__(self, index, nodes: Iterable[Node]) -> None:
        self._index = index
        #: The covering node set this cache was built for (validated when a
        #: caller hands a prebuilt cache to the batch selection).
        self.nodes = frozenset(nodes)
        node_ids = index.node_ids
        # The guard's start nodes in index order, not set order: which
        # witness a walk meets first must not depend on the hash seed.
        self._starts = sorted(self.nodes, key=node_ids.__getitem__)
        start = frozenset(node_ids[node] for node in self._starts)
        self._frontiers: dict[Word, frozenset[int]] = {(): start}
        #: Remembered witnesses: words of ``paths_G(nodes)``, in the order
        #: the guard's walks found them.
        self.words: list[Word] = []
        # ``words`` int-coded for the alphabet of the last candidate.
        self._encoded: tuple[Alphabet | None, list] = (None, [])
        self.guard_calls = 0
        self.guard_memo_hits = 0

    @property
    def guard_walks(self) -> int:
        """Guard calls that reached the graph (no remembered word applied)."""
        return self.guard_calls - self.guard_memo_hits

    def is_current(self, graph: GraphDB, nodes: Iterable[Node]) -> bool:
        """Whether this cache still matches the graph snapshot and node set.

        The interactive session keeps one cache alive across rounds and
        revalidates it here: a new negative label or a graph mutation makes
        it stale, a new positive label does not.
        """
        return self.nodes == frozenset(nodes) and self._index.is_current(graph)

    def extended(self, index, nodes: Iterable[Node]) -> "NegativeCoverage":
        """A fresh coverage of ``nodes`` that keeps what is still true.

        ``paths_G`` of a node set only grows with the set, so on the same
        index snapshot a superset inherits the remembered words (they still
        reject whatever accepts them); the frontiers, which do depend on the
        exact set, and the counters start over.
        """
        fresh = NegativeCoverage(index, nodes)
        if index is self._index and self.nodes <= fresh.nodes:
            fresh.words = list(self.words)
        return fresh

    # -- covered words --------------------------------------------------------

    def frontier(self, word: Word) -> frozenset[int]:
        """The int ids reachable from the node set along ``word``."""
        cached = self._frontiers.get(word)
        if cached is not None:
            return cached
        previous = self.frontier(word[:-1])
        index = self._index
        label_id = index.label_ids.get(word[-1])
        if label_id is None or not previous:
            result: frozenset[int] = frozenset()
        else:
            offsets = index.fwd_offsets[label_id]
            targets = index.fwd_targets[label_id]
            moved: set[int] = set()
            for node in previous:
                moved.update(targets[offsets[node] : offsets[node + 1]])
            result = frozenset(moved)
        self._frontiers[word] = result
        return result

    def covers(self, word: Sequence[str]) -> bool:
        """Whether some node of the set covers ``word``."""
        return bool(self.frontier(tuple(word)))

    def smallest_uncovered_path(self, node: Node, k: int, alphabet: Alphabet) -> Word | None:
        """The canonically smallest path of ``node`` (length <= k) not covered.

        ``None`` when every path of the node within the bound is covered.
        The enumeration runs level by level on the index: a level holds the
        node's *covered* paths of one length with their int frontiers, in
        lexicographic order, and is extended label by label in ``alphabet``
        order -- so the first uncovered extension met is the answer, with no
        heap and no sort key.  (An uncovered word is never extended: it
        would have been returned.)  Labels the graph never carries extend
        nothing.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        if not self._frontiers[()]:
            return ()  # no covering node: the empty path is already uncovered
        index = self._index
        label_ids = index.label_ids
        labels = [(symbol, label_ids[symbol]) for symbol in alphabet if symbol in label_ids]
        fwd_offsets, fwd_targets = index.fwd_offsets, index.fwd_targets
        level: list[tuple[Word, set[int]]] = [((), {index.node_ids[node]})]
        for _length in range(k):
            next_level: list[tuple[Word, set[int]]] = []
            for word, reached in level:
                for symbol, label_id in labels:
                    offsets, targets = fwd_offsets[label_id], fwd_targets[label_id]
                    moved: set[int] = set()
                    for origin in reached:
                        moved.update(targets[offsets[origin] : offsets[origin + 1]])
                    if not moved:
                        continue
                    extended = word + (symbol,)
                    if not self.frontier(extended):
                        return extended
                    next_level.append((extended, moved))
            level = next_level
        return None

    # -- witness words --------------------------------------------------------

    def violates(self, candidate, *, graph: GraphDB, engine) -> bool:
        """The merge guard: whether ``candidate`` selects a node of the set.

        ``candidate`` is a kernel automaton (``TableDFA`` / ``MergeFold``).
        Identical in verdict to ``engine.any_selects(graph, candidate,
        nodes, ephemeral=True)``; the walk, when one is needed, still enters
        through that method, with ``witness=True``.
        """
        if not self._starts:
            return False
        self.guard_calls += 1
        accepts = candidate.accepts_ids
        for word_ids in self._encoded_words(candidate.alphabet):
            if word_ids is not None and accepts(word_ids):
                self.guard_memo_hits += 1
                return True
        word = engine.any_selects(graph, candidate, self._starts, ephemeral=True, witness=True)
        if word is None:
            return False
        self.words.append(word)
        return True

    def _encoded_words(self, alphabet: Alphabet) -> list[tuple[int, ...] | None]:
        """``words`` as symbol positions of ``alphabet``, encoded once each.

        A word using a symbol outside the alphabet is ``None``: no automaton
        over that alphabet accepts it.
        """
        known, encoded = self._encoded
        if known is not alphabet:
            encoded = []
            self._encoded = (alphabet, encoded)
        for word in self.words[len(encoded) :]:
            foreign = any(symbol not in alphabet for symbol in word)
            encoded.append(None if foreign else tuple(map(alphabet.index, word)))
        return encoded


def smallest_consistent_path(
    graph: GraphDB,
    node: Node,
    negatives: Iterable[Node],
    *,
    k: int,
) -> Word | None:
    """The smallest path of ``node`` (length <= k) not covered by the negatives.

    Returns None when no such path exists within the bound.  This is the
    object-level reference (dict adjacency, one ``covered_by`` walk per
    candidate); the learner's hot path is
    :meth:`NegativeCoverage.smallest_uncovered_path`.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    negative_set = frozenset(negatives)
    for path in enumerate_paths(graph, node, max_length=k):  # the reference walk
        if not covered_by(graph, path, negative_set):
            return path
    return None


def select_smallest_consistent_paths(
    graph: GraphDB,
    sample: Sample,
    *,
    k: int,
    engine,
    coverage: NegativeCoverage | None = None,
) -> dict[Node, Word]:
    """The SCP of every positive node that has one (length <= k).

    The returned mapping may omit positive nodes (when their consistent
    paths are all longer than ``k``); Algorithm 1 tolerates this and checks
    at the end that the generalized query still selects them.

    ``engine`` supplies the CSR index the shared negative-coverage cache
    runs on.  ``coverage`` lets a caller that learns repeatedly against the
    *same* negative set (the dynamic-``k`` procedure, the interactive
    session) reuse one cache across calls; a stale or mismatched cache
    raises :class:`~repro.errors.LearningError`.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    sample.check_against(graph)
    if coverage is None:
        coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    elif not coverage.is_current(graph, sample.negatives):
        raise LearningError(
            "the prebuilt NegativeCoverage does not match the sample's negatives "
            "(or the graph changed); rebuild it"
        )
    alphabet = graph.alphabet
    scps: dict[Node, Word] = {}
    for node in sample.positives:
        path = coverage.smallest_uncovered_path(node, k, alphabet)
        if path is not None:
            scps[node] = path
    return scps
