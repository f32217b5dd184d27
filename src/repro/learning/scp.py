"""Selection of the smallest consistent paths (SCPs), and the negatives' automaton.

For a positive node ``nu``, its smallest consistent path is the canonically
smallest word of ``paths_G(nu) \\ paths_G(S-)`` -- the smallest path of
``nu`` that no negative node covers (Algorithm 1, lines 1-2).  Because
``paths_G(nu)`` can be infinite, the search is bounded by the learner's
parameter ``k``; a positive node with no consistent path of length at most
``k`` simply contributes no SCP (the generalization step may still make the
learned query select it, which line 6 of the algorithm verifies).

Algorithm 1's SCP selection (Lemma 3.1), its merge guard (lines 4-5) and
Section 4.2's k-informativeness (Lemma 4.1) all ask about the one fixed
language ``paths_G(S-)``.  :class:`NegativeCoverage` is the single home of
what a learning episode knows about that language, so each question reaches
the graph once:

* *the frontier automaton* -- ``paths_G(S-)`` determinised on demand over
  the CSR index's int node ids: a state is a distinct non-empty frontier,
  the absorbing :data:`DEAD` state is the empty one ("uncovered"), and
  :meth:`NegativeCoverage.step` computes each (frontier, label) move once.
  Every consumer runs on it: :meth:`~NegativeCoverage.covers` (one word),
  :meth:`~NegativeCoverage.uncovered_paths` (a node's uncovered paths in
  canonical order: the SCP is the first, the ``kS`` count its capped
  length) and :meth:`~NegativeCoverage.table` (the automaton cut at depth
  ``k`` as a :class:`~repro.automata.kernel.TableDFA`, which the engine's
  batched and per-candidate k-informativeness walks consume);
* *the merge guard* -- :meth:`NegativeCoverage.merge_guard`: one
  ``fold_generalize`` run's :class:`~repro.engine.executor.FoldReach` of the
  negatives' int ids, asked through ``engine.any_selects``.

Lifetime: one episode.  A coverage is built by whoever starts the episode
(:func:`~repro.learning.learner.learn_with_dynamic_k`, the interactive
:class:`~repro.interactive.state.SessionState`), passed to every attempt,
and dropped with it; it is stale as soon as the graph's index or the
negative set moves (:meth:`NegativeCoverage.is_current`), and a grown
negative set gets a fresh coverage.  A guard's reachable set lives for its
one fold run.

The object-level :func:`repro.graphdb.paths.enumerate_paths` /
:func:`~repro.graphdb.paths.covered_by` walks remain behind the single-node
:func:`smallest_consistent_path`, the independent reference the tests
compare the index-side enumeration against.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import NO_STATE, MergeFold, TableDFA
from repro.engine.executor import FoldReach
from repro.errors import LearningError
from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import covered_by, enumerate_paths
from repro.learning.sample import Sample

#: The frontier automaton's absorbing state: the empty frontier, reached by
#: exactly the words no node of the set covers.
DEAD = -1


class NegativeCoverage:
    """What one learning episode knows about ``paths_G(nodes)``, on the CSR index.

    The language is held as its frontier automaton (see the module
    docstring): states ``0, 1, ...`` are the distinct non-empty frontiers
    (sets of int node ids) met so far, interned in the order met, and
    :data:`DEAD` is the empty one.  ``step`` is memoised, so the canonical
    enumerations of many positive nodes, every ``k`` attempt, every round
    and every ``table`` cut expand a distinct (frontier, label) pair exactly
    once over the index's per-label CSR slices.

    :meth:`merge_guard` is the merge guard against the node set, one per
    fold run; ``guard_calls`` counts its calls over the episode.
    """

    __slots__ = (
        "_index",
        "nodes",
        "_start_ids",
        "initial",
        "_frontiers",
        "_states",
        "_steps",
        "_table",
        "guard_calls",
    )

    def __init__(self, index, nodes: Iterable[Node]) -> None:
        self._index = index
        #: The covering node set this cache was built for (validated when a
        #: caller hands a prebuilt cache to the batch selection).
        self.nodes = frozenset(nodes)
        node_ids = index.node_ids
        # In index order, not set order: the guard's walk order (hence its
        # kernel work) must not depend on the hash seed.
        self._start_ids = sorted(node_ids[node] for node in self.nodes)
        self._frontiers: list[frozenset[int]] = []
        self._states: dict[frozenset[int], int] = {}
        self._steps: dict[tuple[int, int], int] = {}
        #: The automaton's initial state: the node set itself (``DEAD`` when
        #: the set is empty -- then every word is uncovered).
        self.initial = self._intern(self._start_ids)
        # The last ``table`` cut, keyed by its ``(k, alphabet)``.
        self._table: tuple[tuple[int, Alphabet], TableDFA] | None = None
        self.guard_calls = 0

    def is_current(self, graph: GraphDB, nodes: Iterable[Node]) -> bool:
        """Whether this cache still matches the graph snapshot and node set.

        The interactive session keeps one cache alive across rounds and
        revalidates it here: a new negative label or a graph mutation makes
        it stale, a new positive label does not.
        """
        return self.nodes == frozenset(nodes) and self._index.is_current(graph)

    # -- the frontier automaton -----------------------------------------------

    def _intern(self, frontier: Iterable[int]) -> int:
        """The state standing for ``frontier`` (``DEAD`` for the empty one)."""
        frontier = frozenset(frontier)
        if not frontier:
            return DEAD
        state = self._states.get(frontier)
        if state is None:
            state = self._states[frontier] = len(self._frontiers)
            self._frontiers.append(frontier)
        return state

    def _successors(self, frontier: Iterable[int], label_id: int) -> set[int]:
        """One multi-source step over the label's forward CSR slices."""
        offsets = self._index.fwd_offsets[label_id]
        targets = self._index.fwd_targets[label_id]
        moved: set[int] = set()
        for node in frontier:
            start, stop = offsets[node], offsets[node + 1]
            if start != stop:  # most nodes carry no edge of a given label
                moved.update(targets[start:stop])
        return moved

    def step(self, state: int, label_id: int) -> int:
        """The automaton's move on one of the index's label ids, computed once."""
        if state == DEAD:
            return DEAD  # emptiness is absorbing
        target = self._steps.get((state, label_id))
        if target is None:
            target = self._intern(self._successors(self._frontiers[state], label_id))
            self._steps[state, label_id] = target
        return target

    def covers(self, word: Sequence[str]) -> bool:
        """Whether some node of the set covers ``word``."""
        state, label_ids = self.initial, self._index.label_ids
        for symbol in word:
            label_id = label_ids.get(symbol)
            state = DEAD if label_id is None else self.step(state, label_id)
        return state != DEAD

    def uncovered_paths(self, node: Node, k: int, alphabet: Alphabet) -> Iterator[Word]:
        """``node``'s paths of length <= k that the set does not cover.

        In canonical order, lazily.  The enumeration runs level by level on
        the index: a level holds the node's paths of one length with their
        int frontiers and automaton states, in lexicographic order, and is
        extended label by label in ``alphabet`` order -- so the words come
        out canonically with no heap and no sort key, and a caller that
        wants only the first (or the first ``cap``) pays for no more.
        Labels the graph never carries extend nothing.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        if self.initial == DEAD:
            yield ()  # no covering node: the empty path is already uncovered
        index, step = self._index, self.step
        label_ids = index.label_ids
        labels = [(symbol, label_ids[symbol]) for symbol in alphabet if symbol in label_ids]
        level: list[tuple[Word, set[int], int]] = [((), {index.node_ids[node]}, self.initial)]
        for _length in range(k):
            next_level: list[tuple[Word, set[int], int]] = []
            for word, reached, state in level:
                for symbol, label_id in labels:
                    moved = self._successors(reached, label_id)
                    if not moved:
                        continue  # the word is not a path of the node
                    extended = word + (symbol,)
                    target = step(state, label_id)
                    if target == DEAD:
                        yield extended
                    next_level.append((extended, moved, target))
            level = next_level

    def smallest_uncovered_path(self, node: Node, k: int, alphabet: Alphabet) -> Word | None:
        """The canonically smallest path of ``node`` (length <= k) not covered.

        ``None`` when every path of the node within the bound is covered.
        """
        return next(self.uncovered_paths(node, k, alphabet), None)

    def table(self, k: int, alphabet: Alphabet) -> TableDFA:
        """The uncovered words of length <= k, as a :class:`TableDFA`.

        The frontier automaton cut at depth ``k``: its states reachable
        within ``k`` steps, renumbered breadth first (so the table does not
        depend on what was asked of the automaton before), plus ``DEAD`` as
        the one accepting, absorbing state.  A word of length <= k is
        accepted iff no node of the set covers it -- the exact batched form
        of :func:`repro.graphdb.paths.covered_by`.  States first reached at
        depth ``k`` are left unexpanded (their rows stay
        :data:`~repro.automata.kernel.NO_STATE`): the walks that consume the
        table are themselves bounded to ``k`` symbols and never read them.
        The last cut is kept, so asking again is free until ``k`` moves.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        if self.initial == DEAD:
            raise LearningError(
                "the uncovered-words table needs a non-empty node set; with no "
                "negatives every word is uncovered"
            )
        if self._table is not None and self._table[0] == (k, alphabet):
            return self._table[1]
        label_ids = self._index.label_ids
        label_of = [label_ids.get(symbol) for symbol in alphabet]
        number = {self.initial: 0}  # automaton state -> table state, in BFS order
        rows: list[list[int]] = []  # rows[i]: the automaton row of table state i
        level = [self.initial]
        for _depth in range(k):
            next_level: list[int] = []
            for state in level:
                row = [DEAD if label is None else self.step(state, label) for label in label_of]
                for target in row:
                    if target != DEAD and target not in number:
                        number[target] = len(number)
                        next_level.append(target)
                rows.append(row)
            level = next_level
        dead, m = len(number), len(alphabet)
        trans = array("i")
        for row in rows:
            trans.extend(dead if target == DEAD else number[target] for target in row)
        trans.extend([NO_STATE] * ((dead - len(rows)) * m))
        trans.extend([dead] * m)  # emptiness is absorbing
        table = TableDFA(alphabet, n=dead + 1, trans=trans, finals=1 << dead, initial=0)
        self._table = ((k, alphabet), table)
        return table

    # -- the merge guard ------------------------------------------------------

    def merge_guard(self, *, graph: GraphDB, engine) -> Callable[[MergeFold], bool]:
        """One ``fold_generalize`` run's guard: ``guard(fold)`` is the verdict
        of ``engine.any_selects(graph, fold, nodes, ephemeral=True)``, asked
        through that method with a :class:`~repro.engine.executor.FoldReach`
        that lives for the run."""
        reach = FoldReach(self._index, self._start_ids)

        def guard(candidate: MergeFold) -> bool:
            self.guard_calls += 1
            return engine.any_selects(graph, candidate, reach, ephemeral=True)

        return guard


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
