"""Selection of the smallest consistent paths (SCPs), and the negatives' automaton.

For a positive node ``nu``, its smallest consistent path is the canonically
smallest word of ``paths_G(nu) \\ paths_G(S-)`` -- the smallest path of
``nu`` that no negative node covers (Algorithm 1, lines 1-2).  Because
``paths_G(nu)`` can be infinite, the search is bounded by the learner's
parameter ``k``; a positive node with no consistent path of length at most
``k`` simply contributes no SCP (the generalization step may still make the
learned query select it, which line 6 of the algorithm verifies -- for
those positives only: one with an SCP is selected by construction).

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
  canonical order: the SCP is the first), ``uncovered_count`` (their number
  up to a cap, building no word: the ``kS`` count, at cap 1 a pooled
  verdict), :meth:`~NegativeCoverage.includes` (a node's whole path
  language, unbounded),
  :meth:`~NegativeCoverage.smallest_uncovered_pair_path` (Algorithm 2's
  binary SCP: one frontier state per negative pair's origin, beside the
  positive's) and :meth:`~NegativeCoverage.table` (the automaton
  cut at depth ``k`` as a :class:`~repro.automata.kernel.TableDFA`, which
  the engine's batched k-informativeness walk over every node consumes);
* *the merge guard* -- :meth:`NegativeCoverage.merge_guard`: one
  ``fold_generalize`` run's :class:`~repro.engine.executor.FoldReach` of the
  negatives' int ids, asked through ``engine.any_selects``.

Lifetime: one episode.  A coverage is built by whoever starts the episode
(:func:`~repro.learning.learner.learn_with_dynamic_k`, the interactive
:class:`~repro.interactive.state.SessionState`), passed to every attempt,
and dropped with it; it is stale as soon as the graph's index or the
negative set moves (:meth:`NegativeCoverage.is_current`).  A grown
negative set gets a new coverage built ``memo_from`` the old one: the
interned frontiers, step memo and per-state label masks depend on the index
alone and live as long as it; the initial state, table cut and SCP memo do
not (a new negative may cover an old SCP).  The SCP memo lives as long as
the coverage: each positive's SCP is searched once per episode.
A guard's reachable set lives for its one fold run.

The exact, unbounded checks of Lemmas 3.1 and 4.1
(:mod:`repro.learning.consistency`, :mod:`repro.interactive.informativeness`)
are :meth:`NegativeCoverage.includes` queries on the same automaton.  The
object-level walks over dict adjacency that the tests compare all of this
against, the binary ones included, live in ``tests/oracles/``.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from operator import or_

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import NO_STATE, MergeFold, TableDFA
from repro.engine.executor import FoldReach
from repro.errors import GraphError, LearningError
from repro.graphdb.graph import GraphDB, Node
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
    fold run; ``guard_calls`` counts its walks over the episode (a merge the
    fold's ``rejecting`` mask refuses asks no guard).
    """

    __slots__ = (
        "_index",
        "nodes",
        "_start_ids",
        "initial",
        "_frontiers",
        "_states",
        "_steps",
        "_covered",
        "_table",
        "_labels",
        "_scps",
        "guard_calls",
    )

    def __init__(self, index, nodes: Iterable[Node], *, memo_from=None) -> None:
        self._index = index
        #: The covering node set this cache was built for (validated when a
        #: caller hands a prebuilt cache to the batch selection).
        self.nodes = frozenset(nodes)
        node_ids = index.node_ids
        # In index order, not set order: the guard's walk order (hence its
        # kernel work) must not depend on the hash seed.
        self._start_ids = sorted(node_ids[node] for node in self.nodes)
        # A frontier's moves depend on the frontier and the index, not on the
        # start set: on the same index, share (and grow) ``memo_from``'s memo
        # (and the labels each state's frontier carries: none for ``DEAD``).
        if memo_from is not None and memo_from._index is index:
            memo = memo_from._frontiers, memo_from._states, memo_from._steps, memo_from._covered
        else:
            memo = [], {}, {}, {DEAD: 0}
        self._frontiers, self._states, self._steps, self._covered = memo
        #: The automaton's initial state: the node set itself (``DEAD`` when
        #: the set is empty -- then every word is uncovered).
        self.initial = self._intern(self._start_ids)
        # The last ``table`` cut, keyed by its ``(k, alphabet)``.
        self._table: tuple[tuple[int, Alphabet], TableDFA] | None = None
        # The last alphabet walked over (``_alphabet_labels``).
        self._labels: tuple[Alphabet | None, list[tuple[str, int]], int] = (None, [], 0)
        # node -> (largest k searched, its SCP or None), for the alphabet kept.
        self._scps: tuple[Alphabet | None, dict[Node, tuple[int, Word | None]]] = (None, {})
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

    def _alphabet_labels(self, alphabet: Alphabet) -> tuple[list[tuple[str, int]], int]:
        """``alphabet``'s ``(symbol, label id)`` pairs that the index carries,
        in alphabet order, and the bit set of those ids; kept for the last
        alphabet asked, which both enumerations read."""
        memo = self._labels
        if memo[0] is not alphabet:
            label_ids = self._index.label_ids
            labels = [(symbol, label_ids[symbol]) for symbol in alphabet if symbol in label_ids]
            mask = reduce(or_, (1 << label_id for _, label_id in labels), 0)
            memo = self._labels = (alphabet, labels, mask)
        return memo[1], memo[2]

    def uncovered_paths(self, node: Node, k: int, alphabet: Alphabet) -> Iterator[Word]:
        """``node``'s paths of length <= k that the set does not cover.

        In canonical order, lazily.  The enumeration runs level by level on
        the index: a level holds the node's paths of one length, each with its
        parent's int frontier, last label id (None at the root) and automaton
        state, in lexicographic order; it is extended label by label in
        ``alphabet`` order, so the words come out canonically with no heap or
        sort key and a caller that wants only the first few pays for no more.
        A word's own frontier is computed when it is extended, by the labels
        it has edges of (``out_label_masks``): neither a caller that stops at
        a length nor a word of length ``k`` pays for one.
        A node not in the graph is a :class:`~repro.errors.GraphError`.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        index, step, successors = self._index, self.step, self._successors
        node_id = index.node_ids.get(node)
        if node_id is None:
            raise GraphError(f"node {node!r} is not in the graph")
        if self.initial == DEAD:
            yield ()  # no covering node: the empty path is already uncovered
        masks, (labels, _) = index.out_label_masks, self._alphabet_labels(alphabet)
        level = [((), {node_id}, None, self.initial)]
        for length in range(1, k + 1):
            next_level = []
            for word, reached, last, state in level:
                if last is not None:
                    reached = successors(reached, last)
                present = reduce(or_, map(masks.__getitem__, reached))
                for symbol, label_id in labels:
                    if not present >> label_id & 1:
                        continue  # the word is not a path of the node
                    extended = word + (symbol,)
                    target = step(state, label_id)
                    if target == DEAD:
                        yield extended
                    if length < k:
                        next_level.append((extended, reached, label_id, target))
            level = next_level

    def uncovered_count(
        self, node: Node, k: int, alphabet: Alphabet, *, cap: int | None = None
    ) -> int:
        """``min(cap, len(list(uncovered_paths(node, k, alphabet))))``, building no word:
        per entry of the same levels, it adds the alphabet's labels its reached
        ids carry and its state's frontier does not (those ``step`` sends to
        :data:`DEAD`), and ``step`` runs only to build the next level."""
        if k < 0 or (cap is not None and cap < 1):
            raise LearningError(f"k must be non-negative and a cap positive, not {k}, {cap}")
        index, step, successors, covered = self._index, self.step, self._successors, self._covered
        node_id = index.node_ids.get(node)
        if node_id is None:
            raise GraphError(f"node {node!r} is not in the graph")
        masks, frontiers = index.out_label_masks, self._frontiers
        allowed, limit = self._alphabet_labels(alphabet)[1], float("inf") if cap is None else cap
        count = int(self.initial == DEAD)  # the empty path
        level = [((node_id,), None, self.initial)]
        for length in range(1, k + 1):
            next_level = []
            for reached, last, state in level:
                if last is not None:
                    reached = successors(reached, last)
                present = reduce(or_, map(masks.__getitem__, reached)) & allowed
                carried = covered.get(state)  # the labels the state's frontier carries
                if carried is None:
                    carried = covered[state] = reduce(or_, map(masks.__getitem__, frontiers[state]))
                count += (present & ~carried).bit_count()
                if count >= limit:
                    return cap
                while length < k and present:
                    label_id = (present & -present).bit_length() - 1
                    next_level.append((reached, label_id, step(state, label_id)))
                    present ^= 1 << label_id
            level = next_level
        return count

    def includes(self, node: Node) -> bool:
        """Whether ``paths_G(node)`` is included in the set's, with no length bound.

        Lemmas 3.1 and 4.1 ask this.  A breadth-first walk over the distinct
        pairs (the node's frontier, this automaton's state), both interned in
        the one memo, steps only labels the node's frontier carries
        (``out_label_masks``): the first move of the set's side to
        :data:`DEAD` is an uncovered path.  A pair whose node frontier is a
        subset of the set's is not expanded: paths grow with the start set.
        An empty set covers not even the empty path.  The pairs are finite
        but may be exponentially many (Lemma 3.2).
        """
        if self.initial == DEAD:
            return False
        masks, frontiers, step = self._index.out_label_masks, self._frontiers, self.step
        start = (self._intern([self._index.node_ids[node]]), self.initial)
        seen = {start}
        queue = [start]
        for own, state in queue:  # the list grows as it is read: breadth first
            if frontiers[own] <= frontiers[state]:
                continue  # the set covers every path from here on
            present = reduce(or_, map(masks.__getitem__, frontiers[own]))
            for label_id in range(present.bit_length()):
                if not present >> label_id & 1:
                    continue
                target = step(state, label_id)
                if target == DEAD:
                    return False
                pair = (step(own, label_id), target)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        return True

    def smallest_uncovered_path(self, node: Node, k: int, alphabet: Alphabet) -> Word | None:
        """The canonically smallest path of ``node`` (length <= k) not covered.

        ``None`` when every path of the node within the bound is covered.
        Memoised: an SCP ``w`` answers every bound (``None`` below ``len(w)``,
        whose words all precede ``w``), ``None`` every bound up to its own.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        if self._scps[0] is not alphabet:
            self._scps = (alphabet, {})
        searched, word = self._scps[1].get(node, (-1, None))
        if word is None and k > searched:
            word = next(self.uncovered_paths(node, k, alphabet), None)
            self._scps[1][node] = (k, word)
        return word if word is not None and len(word) <= k else None

    def smallest_uncovered_pair_path(
        self,
        origin: Node,
        end: Node,
        pairs: Iterable[tuple[Node, Node]],
        k: int,
        alphabet: Alphabet,
    ) -> Word | None:
        """Algorithm 2's SCP: the canonically smallest word (length <= k) of
        ``paths2_G(origin, end)`` that labels a path of no pair in ``pairs``.

        ``None`` when there is none.  A breadth-first walk, level by level in
        canonical order as in :meth:`uncovered_paths`, over distinct tuples of
        states interned in this automaton's memo: ``origin``'s frontier, then
        one frontier per distinct origin of ``pairs``.  A word answers when
        its first frontier holds ``end`` and no pair's origin frontier holds
        that pair's end.  Whether an extension answers depends on the tuple
        alone, and the first word to reach a tuple precedes, suffix for
        suffix, every later one: each tuple is expanded once.  The set's own
        nodes are not read.
        """
        if k < 0:
            raise LearningError("the path-length bound k must be non-negative")
        node_ids, frontiers, step = self._index.node_ids, self._frontiers, self.step
        masks, covered = self._index.out_label_masks, self._covered
        ends_of: dict[int, set[int]] = {}
        for pair_origin, pair_end in pairs:
            ends_of.setdefault(node_ids[pair_origin], set()).add(node_ids[pair_end])
        slots = sorted(ends_of)  # index order: the tuples do not depend on the hash seed
        ends = [ends_of[slot] for slot in slots]
        end_id, (labels, _) = node_ids[end], self._alphabet_labels(alphabet)
        start = tuple(self._intern([node_id]) for node_id in (node_ids[origin], *slots))
        seen, level = {start}, [((), start)]
        for length in range(k + 1):
            next_level = []
            for word, (own, *states) in level:
                if end_id in frontiers[own] and not any(
                    state != DEAD and not frontiers[state].isdisjoint(slot_ends)
                    for state, slot_ends in zip(states, ends)
                ):
                    return word
                if length == k:
                    continue
                carried = covered.get(own)  # the labels the origin's frontier carries
                if carried is None:
                    carried = covered[own] = reduce(or_, map(masks.__getitem__, frontiers[own]))
                for symbol, label_id in labels:
                    if not carried >> label_id & 1:
                        continue  # the word is not a path of the origin
                    moved = (step(own, label_id), *(step(state, label_id) for state in states))
                    if moved not in seen:
                        seen.add(moved)
                        next_level.append((word + (symbol,), moved))
            level = next_level
        return None

    def table(self, k: int, alphabet: Alphabet) -> TableDFA:
        """The uncovered words of length <= k, as a :class:`TableDFA`.

        The frontier automaton cut at depth ``k``: its states reachable
        within ``k`` steps, renumbered breadth first (so the table does not
        depend on what was asked of the automaton before), plus ``DEAD`` as
        the one accepting, absorbing state.  A word of length <= k is
        accepted iff no node of the set covers it -- the exact batched form
        of :meth:`covers`.  States first reached at depth ``k`` are left
        unexpanded (their rows stay
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
    raises :class:`~repro.errors.LearningError`; without one, this call
    checks the sample against the graph (whoever built one checked it).
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    if coverage is None:
        sample.check_against(graph)
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
