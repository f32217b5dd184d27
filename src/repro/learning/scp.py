"""Selection of the smallest consistent paths (SCPs).

For a positive node ``nu``, its smallest consistent path is the canonically
smallest word of ``paths_G(nu) \\ paths_G(S-)`` -- the smallest path of
``nu`` that no negative node covers (Algorithm 1, lines 1-2).  Because
``paths_G(nu)`` can be infinite, the search is bounded by the learner's
parameter ``k``; a positive node with no consistent path of length at most
``k`` simply contributes no SCP (the generalization step may still make the
learned query select it, which line 6 of the algorithm verifies).

The batch selection runs on the engine's CSR index: the negative example
set is fixed for a whole selection, so the multi-source frontier of every
candidate word is computed once on int node ids and shared across *all*
positive nodes via a prefix-closed cache (:class:`NegativeCoverage`).  The
object-level :func:`repro.graphdb.paths.covered_by` walk remains behind the
single-node :func:`smallest_consistent_path` API.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.alphabet import Word
from repro.errors import LearningError
from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import covered_by, enumerate_paths
from repro.learning.sample import Sample


class NegativeCoverage:
    """Memoized ``covered_by`` against a fixed node set on the CSR index.

    ``covers(word)`` is True iff some node of the set has ``word`` in its
    ``paths_G``.  Frontiers (as sets of int node ids) are cached per word
    prefix, so checking the canonical enumeration of candidate paths for
    many positive nodes expands every distinct prefix exactly once over the
    index's per-label CSR slices -- the dict-adjacency walk this replaces
    re-ran the full frontier from scratch for every (positive, candidate)
    pair.
    """

    __slots__ = ("_index", "_frontiers", "nodes")

    def __init__(self, index, nodes: Iterable[Node]) -> None:
        self._index = index
        #: The covering node set this cache was built for (validated when a
        #: caller hands a prebuilt cache to the batch selection).
        self.nodes = frozenset(nodes)
        node_ids = index.node_ids
        start = frozenset(node_ids[node] for node in self.nodes)
        self._frontiers: dict[Word, frozenset[int]] = {(): start}

    def is_current(self, graph: GraphDB, nodes: Iterable[Node]) -> bool:
        """Whether this cache still matches the graph snapshot and node set.

        The interactive session keeps one cache alive across rounds and
        revalidates it here: a new negative label or a graph mutation makes
        it stale, a new positive label does not.
        """
        return self.nodes == frozenset(nodes) and self._index.is_current(graph)

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


def smallest_consistent_path(
    graph: GraphDB,
    node: Node,
    negatives: Iterable[Node],
    *,
    k: int,
) -> Word | None:
    """The smallest path of ``node`` (length <= k) not covered by the negatives.

    Returns None when no such path exists within the bound.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    negative_set = frozenset(negatives)
    for path in enumerate_paths(graph, node, max_length=k):
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
    *same* negative set (the interactive session) reuse one prefix cache
    across calls; a stale or mismatched cache raises
    :class:`~repro.errors.LearningError`.
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
    scps: dict[Node, Word] = {}
    for node in sample.positives:
        for path in enumerate_paths(graph, node, max_length=k):
            if not coverage.covers(path):
                scps[node] = path
                break
    return scps
