"""Kernel-backed incremental state of an interactive session (Section 4.2).

The legacy interactive loop re-derived everything from scratch at every
round: each strategy call re-enumerated candidate paths per node and re-ran
``covered_by`` per (node, path) pair, and each label triggered a full
re-learn.  This module is the engine-native replacement:

* :func:`uncovered_words_table` compiles the current negative set into one
  :class:`~repro.automata.kernel.TableDFA` accepting exactly the words no
  negative covers (the complement of the negatives' prefix language, cut at
  ``k`` by construction) -- built once per round, and only when the negative
  set actually changed;
* batched k-informativeness runs **one** depth-bounded backward CSR product
  walk per round (:func:`repro.engine.executor.evaluate_all` through the
  engine's ephemeral path) and yields the verdict of *every* node at once,
  replacing the per-node ``enumerate_paths`` loop;
* :class:`SessionState` carries the pieces across rounds and invalidates
  only what a new label can change: a positive label leaves the coverage
  automaton, the informative set and the ``NegativeCoverage`` prefix cache
  untouched (certainty is monotone, Lemma 4.1), while a negative label
  invalidates exactly those three (the merge guard's witness words, which
  stay true under a growing negative set, move on to the next
  ``NegativeCoverage``); and when the new positive's smallest
  consistent path is already among the learner's SCPs, the previous
  MergeFold hypothesis is provably identical and is reused without
  re-learning.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable
from dataclasses import replace

from repro.automata.alphabet import Alphabet
from repro.automata.kernel import NO_STATE, TableDFA
from repro.engine.engine import QueryEngine
from repro.engine.index import GraphIndex
from repro.errors import InteractionError
from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import covered_by
from repro.learning.learner import LearnerResult, learn_path_query
from repro.learning.sample import NEGATIVE, Sample
from repro.learning.scp import NegativeCoverage

#: Placeholder for the dead (= "word is uncovered") state while the frontier
#: automaton is under construction; patched to the real id at the end.
_DEAD = -2


def successor_sets(index: GraphIndex) -> list[dict[int, frozenset[int]]]:
    """Per-label ``node id -> frozenset of successor ids`` views of an index.

    One pass over the CSR arrays; the frontier automaton construction then
    takes its multi-source steps as C-level ``frozenset.union`` calls over
    these instead of re-slicing the CSR arrays per (frontier, label) pair.
    A session builds this once per graph snapshot and reuses it every round.
    """
    sets: list[dict[int, frozenset[int]]] = []
    for label_id in range(index.num_labels):
        offsets = index.fwd_offsets[label_id]
        targets = index.fwd_targets[label_id]
        per_node: dict[int, frozenset[int]] = {}
        for node in range(index.num_nodes):
            start, stop = offsets[node], offsets[node + 1]
            if start != stop:
                per_node[node] = frozenset(targets[start:stop])
        sets.append(per_node)
    return sets


def uncovered_words_table(
    index: GraphIndex,
    negative_ids: Iterable[int],
    *,
    k: int,
    alphabet: Alphabet,
    succ_sets: list[dict[int, frozenset[int]]] | None = None,
) -> TableDFA:
    """The uncovered-words automaton of a negative set, as a :class:`TableDFA`.

    States are the distinct multi-source frontiers reachable from the
    negatives within ``k`` edge steps (deduplicated across depths), plus one
    accepting *dead* state standing for the empty frontier.  A word drives
    the automaton into the dead state iff no negative node covers it
    (coverage is prefix-monotone, so emptiness is absorbing), which makes
    this the exact batched form of :func:`repro.graphdb.paths.covered_by`
    against a fixed node set.

    States first reached at depth ``k`` are left unexpanded (their rows stay
    :data:`~repro.automata.kernel.NO_STATE`): the walks that consume this
    table are themselves bounded to ``k`` symbols and never read them.
    """
    if k < 0:
        raise InteractionError("the path-length bound k must be non-negative")
    start = frozenset(negative_ids)
    if not start:
        raise InteractionError(
            "uncovered_words_table needs a non-empty negative set; with no "
            "negatives every word is uncovered"
        )
    m = len(alphabet)
    label_of = [index.label_ids.get(symbol, -1) for symbol in alphabet.symbols]
    if succ_sets is None:
        succ_sets = successor_sets(index)
    empty: frozenset[int] = frozenset()

    frontiers: list[frozenset[int]] = [start]
    ids: dict[frozenset[int], int] = {start: 0}
    rows: dict[int, list[int]] = {}
    level = [0]
    for _depth in range(k):
        next_level: list[int] = []
        for fid in level:
            frontier = frontiers[fid]
            row = [_DEAD] * m
            for position in range(m):
                label_id = label_of[position]
                if label_id < 0:
                    continue  # no such edges anywhere: the step empties the frontier
                per_node = succ_sets[label_id]
                nxt = empty.union(
                    *(per_node[node] for node in frontier if node in per_node)
                )
                if not nxt:
                    continue
                nid = ids.get(nxt)
                if nid is None:
                    nid = len(frontiers)
                    ids[nxt] = nid
                    frontiers.append(nxt)
                    next_level.append(nid)
                row[position] = nid
            rows[fid] = row
        level = next_level

    dead = len(frontiers)
    n = dead + 1
    trans = array("i", [NO_STATE] * (n * m))
    for fid in range(dead):
        row = rows.get(fid)
        if row is None:
            continue  # first reached at depth k; never consulted by bounded walks
        base = fid * m
        for position in range(m):
            target = row[position]
            trans[base + position] = dead if target == _DEAD else target
    dead_base = dead * m
    for position in range(m):
        trans[dead_base + position] = dead  # emptiness is absorbing
    return TableDFA(alphabet, n=n, trans=trans, finals=1 << dead, initial=0)


def count_uncovered_k_paths(
    index: GraphIndex,
    table: TableDFA | None,
    node_id: int,
    *,
    k: int,
    cap: int | None = None,
    succ_sets: list[dict[int, frozenset[int]]] | None = None,
) -> int:
    """The number of paths of one node (length <= k) the negatives don't cover.

    The per-candidate counterpart of the batched verdict: candidate words
    are enumerated level by level over the CSR index (each distinct word is
    one trie edge, so no dedup bookkeeping is needed) while the shared
    ``table`` -- built once per round by :func:`uncovered_words_table` --
    answers coverage in one int lookup per extension, replacing the
    multi-source ``covered_by`` walk the legacy count re-ran per word.
    ``table=None`` means "no negatives": every word counts.  ``cap`` stops
    the count early, like the legacy ``limit``.
    """
    if cap is not None and cap <= 0:
        return 0
    if succ_sets is None:
        succ_sets = successor_sets(index)
    if table is None:
        count = 1  # the empty word is uncovered when there are no negatives
    else:
        count = 1 if table.is_final(table.initial) else 0
    if cap is not None and count >= cap:
        return count

    if table is not None:
        trans, m = table.trans, table.m
        finals = table.finals
        label_of = table.bind_labels(index.label_ids)
    else:
        label_of = list(range(index.num_labels))
        m = index.num_labels
        trans, finals = None, 0

    empty: frozenset[int] = frozenset()
    level: list[tuple[frozenset[int], int]] = [(frozenset((node_id,)), 0)]
    for _depth in range(k):
        next_level: list[tuple[frozenset[int], int]] = []
        for frontier, astate in level:
            abase = astate * m
            for position in range(m):
                label_id = label_of[position]
                if label_id < 0:
                    continue
                per_node = succ_sets[label_id]
                moved = empty.union(
                    *(per_node[node] for node in frontier if node in per_node)
                )
                if not moved:
                    continue  # the word is not realizable from the candidate
                if trans is None:
                    next_state = 0
                    uncovered = True
                else:
                    next_state = trans[abase + position]
                    uncovered = bool((finals >> next_state) & 1)
                if uncovered:
                    count += 1
                    if cap is not None and count >= cap:
                        return count
                next_level.append((moved, next_state))
        level = next_level
    return count


def k_informative_set(
    graph: GraphDB,
    sample: Sample,
    *,
    k: int,
    engine: QueryEngine,
) -> frozenset[Node]:
    """All k-informative nodes of the graph, in one batched product walk.

    Semantically identical to filtering every unlabeled node through
    :func:`repro.interactive.informativeness.is_k_informative` (the parity
    suite pins this), but computed for the whole graph at once: one
    uncovered-words automaton, one backward CSR walk.
    """
    labeled = sample.labeled
    if not sample.negatives:
        # Every unlabeled node has the uncovered empty path.
        return frozenset(node for node in graph.nodes if node not in labeled)
    index = engine.index_for(graph)
    node_ids = index.node_ids
    table = uncovered_words_table(
        index, (node_ids[node] for node in sample.negatives), k=k, alphabet=graph.alphabet
    )
    selected = engine.evaluate(graph, table, ephemeral=True, max_depth=k)
    return selected - labeled


class SessionState:
    """Incremental cross-round state of one interactive learning session.

    Owns the pieces whose recomputation dominated the legacy loop and keeps
    them alive for as long as they stay valid:

    ======================  =======================  =====================
    carried structure        invalidated by           survives
    ======================  =======================  =====================
    uncovered-words table    negative label, k move   positive labels
    k-informative set        negative label, k move   positive labels [#]_
    NegativeCoverage cache   negative label [#]_      positive labels, k moves
    learner result           negative label, new SCP  positives w/ known SCP
    ======================  =======================  =====================

    .. [#] a positive label only removes the labeled node itself from the
       set -- certainty is monotone in the sample (Lemma 4.1), so no other
       node's verdict can change.
    .. [#] its prefix frontiers; the merge guard's remembered witness words
       are carried over to the grown negative set (``paths_G(S-)`` only
       grows with ``S-``).
    """

    def __init__(
        self,
        graph: GraphDB,
        *,
        k: int,
        engine: QueryEngine,
        sample: Sample | None = None,
    ) -> None:
        self.graph = graph
        self.engine = engine
        self.k = k
        self.sample = sample if sample is not None else Sample()
        self.last_result: LearnerResult | None = None
        self._table: TableDFA | None = None
        self._table_index: GraphIndex | None = None
        self._seen_index: GraphIndex | None = None
        self._succ_sets: list[dict[int, frozenset[int]]] | None = None
        self._succ_index: GraphIndex | None = None
        self._informative: frozenset[Node] | None = None
        # Per-node verdict caches.  Monotone certainty (Lemma 4.1) gives the
        # two sets different lifetimes: a node found *non*-informative stays
        # non-informative when negatives are added (the uncovered language
        # only shrinks), so ``_non_informative`` survives negative labels;
        # a node found informative can be killed by a new negative, so
        # ``_informative_nodes`` is dropped then.  Growing ``k`` flips the
        # monotonicity (longer witnesses become legal), so it clears
        # ``_non_informative`` and keeps ``_informative_nodes``.
        self._non_informative: set[Node] = set()
        self._informative_nodes: set[Node] = set()
        self._coverage: NegativeCoverage | None = None
        self._pending_positives: list[Node] = []
        self._pending_negatives: list[Node] = []
        #: Incrementality counters (reported by the simulation driver).
        self.counters = {
            "batched_walks": 0,
            "node_walks": 0,
            "verdict_hits": 0,
            "count_queries": 0,
            "full_learns": 0,
            "reused_learns": 0,
            "guard_memo_hits": 0,
            "guard_walks": 0,
        }
        # Mirror the counters into the engine's metrics registry as computed
        # gauges (one registration per session; a newer session for the same
        # engine takes over the names).
        registry = self.engine.telemetry.registry
        for name in self.counters:
            registry.callback(
                f"interactive_{name}",
                lambda n=name, c=self.counters: c[n],
                help=f"Session incrementality counter '{name}'",
            )

    # -- label propagation ----------------------------------------------------

    def observe(self, node: Node, label: str, sample: Sample) -> None:
        """Propagate one new label; invalidate only what it can change."""
        self.sample = sample
        if label == NEGATIVE:
            # The negative set moved: coverage, its automaton and every
            # *informative* verdict derived from them are stale.  The
            # non-informative verdicts survive: adding a negative can only
            # shrink the uncovered language (monotone certainty, Lemma 4.1).
            self._table = None
            self._table_index = None
            self._informative = None
            self._informative_nodes.clear()
            self._pending_negatives.append(node)
        else:
            # Lemma 4.1 monotonicity: a positive label cannot make any other
            # node informative or uninformative; only the node itself leaves
            # the candidate set.
            if self._informative is not None:
                self._informative = self._informative - {node}
            self._pending_positives.append(node)

    def set_k(self, k: int) -> None:
        """Move the session's path-length bound.

        The monotonicity flips relative to :meth:`observe`: a larger ``k``
        legalizes longer witnesses, so nodes found non-informative may flip
        while nodes found informative stay informative.
        """
        if k == self.k:
            return
        grew = k > self.k
        self.k = k
        self._table = None
        self._table_index = None
        self._informative = None
        if grew:
            self._non_informative.clear()
        else:
            self._informative_nodes.clear()
        # The NegativeCoverage prefix cache is per-word, not per-k: keep it.

    # -- informativeness ------------------------------------------------------

    def _index(self) -> GraphIndex:
        """The engine's current CSR snapshot, with staleness propagation.

        A graph mutation mints a new index (version counter), and with it
        every node-level verdict this state carries may be wrong -- an added
        edge can give a cached non-informative node an uncovered path.  The
        table and coverage caches revalidate against the index identity
        elsewhere; the verdict caches are cleared here, on the same signal.
        """
        index = self.engine.index_for(self.graph)
        if index is not self._seen_index:
            if self._seen_index is not None:
                self._informative = None
                self._informative_nodes.clear()
                self._non_informative.clear()
            self._seen_index = index
        return index

    def _successor_sets(self, index: GraphIndex) -> list[dict[int, frozenset[int]]]:
        if self._succ_sets is None or self._succ_index is not index:
            self._succ_sets = successor_sets(index)
            self._succ_index = index
        return self._succ_sets

    def _uncovered_table(self, index: GraphIndex) -> TableDFA:
        if self._table is None or self._table_index is not index:
            self._table = uncovered_words_table(
                index,
                (index.node_ids[node] for node in self.sample.negatives),
                k=self.k,
                alphabet=self.graph.alphabet,
                succ_sets=self._successor_sets(index),
            )
            self._table_index = index
        return self._table

    def informative_nodes(self) -> frozenset[Node]:
        """The current k-informative (unlabeled) nodes, batched and cached.

        At most one backward CSR product walk per (negative set, ``k``)
        pair; every further call -- and every round that only added positive
        labels -- is a set lookup.  The walk's verdicts also seed the
        per-node caches :meth:`is_informative` reads.
        """
        index = self._index()  # first: drops every cache if the graph moved
        if self._informative is not None:
            return self._informative
        labeled = self.sample.labeled
        if not self.sample.negatives:
            self._informative = frozenset(
                node for node in self.graph.nodes if node not in labeled
            )
            return self._informative
        table = self._uncovered_table(index)
        with self.engine.telemetry.span(
            "interactive.batched_walk", k=self.k, negatives=len(self.sample.negatives)
        ) as span:
            selected = self.engine.evaluate(
                self.graph, table, ephemeral=True, max_depth=self.k
            )
            span.set(selected=len(selected))
        self.counters["batched_walks"] += 1
        self._informative = selected - labeled
        # One walk decided every node: seed the per-node verdict caches.
        self._informative_nodes.update(selected)
        self._non_informative.update(
            node for node in self.graph.nodes if node not in selected
        )
        return self._informative

    def is_informative(self, node: Node) -> bool:
        """Per-candidate k-informativeness against the shared round table.

        A cache hit is O(1); a miss runs one early-exit forward product walk
        (:func:`repro.engine.executor.any_selects`, bounded to ``k``
        symbols) against the uncovered-words automaton, then records the
        verdict with the monotone lifetime rules documented on the class.
        The caller is responsible for excluding labeled nodes (labeled nodes
        are never informative).
        """
        index = self._index()  # first: drops every cache if the graph moved
        if node in self._non_informative:
            self.counters["verdict_hits"] += 1
            return False
        if node in self._informative_nodes:
            self.counters["verdict_hits"] += 1
            return True
        if not self.sample.negatives:
            # Every node's empty path is uncovered.
            self._informative_nodes.add(node)
            return True
        table = self._uncovered_table(index)
        verdict = self.engine.any_selects(
            self.graph, table, (node,), ephemeral=True, max_depth=self.k
        )
        self.counters["node_walks"] += 1
        if verdict:
            self._informative_nodes.add(node)
        else:
            self._non_informative.add(node)
        return verdict

    def uncovered_count(self, node: Node, *, cap: int | None = None) -> int:
        """Uncovered-path count of one candidate against the shared table."""
        index = self._index()
        table = self._uncovered_table(index) if self.sample.negatives else None
        self.counters["count_queries"] += 1
        return count_uncovered_k_paths(
            index,
            table,
            index.node_ids[node],
            k=self.k,
            cap=cap,
            succ_sets=self._successor_sets(index),
        )

    # -- learning -------------------------------------------------------------

    def coverage(self) -> NegativeCoverage:
        """The shared :class:`NegativeCoverage` of the current negative set.

        Rebuilt when the negative set or the graph's index moved; a grown
        negative set on the same index inherits the remembered witness words
        (``paths_G(S-)`` only grows with ``S-``).
        """
        negatives = self.sample.negatives
        stale = self._coverage
        if stale is None:
            self._coverage = NegativeCoverage(self._index(), negatives)
        elif not stale.is_current(self.graph, negatives):
            self._coverage = stale.extended(self._index(), negatives)
        return self._coverage

    def _reusable_result(self, k: int) -> LearnerResult | None:
        """The previous hypothesis, iff the pending labels provably keep it.

        Sound because Algorithm 1 is a deterministic function of (SCP word
        set, negative set, k), and its red-blue loop replays identically
        when none of its decisions can flip:

        * a pending *positive* whose smallest consistent path is already
          among the carried SCP words leaves the PTA (and hence everything
          downstream) unchanged -- and is necessarily selected, since the
          quotient language contains every SCP;
        * a pending *negative* ``v`` that covers no carried SCP word leaves
          every positive's SCP in place (SCPs only grow under new
          negatives, and the carried one is still consistent); and if the
          carried hypothesis does not select ``v``, neither did any
          intermediate hypothesis of the previous merge loop (languages
          grow monotonically along accepted merges), so every
          accept/reject decision -- and the fold -- replays identically.

        Anything outside these two cases falls back to a full re-learn.
        """
        prev = self.last_result
        if (
            prev is None
            or prev.k != k
            or (prev.is_null and prev.positives_without_scp)
        ):
            return None
        if not self.sample.positives:
            # Still the trivial no-positives abstention, whatever was added.
            return prev
        if prev.hypothesis is None:
            return None
        prev_words = set(prev.scps.values())
        if self._pending_negatives:
            if any(
                covered_by(self.graph, word, self._pending_negatives)
                for word in prev_words
            ):
                return None
            if self.engine.any_selects(
                self.graph, prev.hypothesis, self._pending_negatives
            ):
                return None
        fresh: dict[Node, tuple] = {}
        if self._pending_positives:
            coverage = self.coverage()
            alphabet = self.graph.alphabet
            for node in self._pending_positives:
                word = coverage.smallest_uncovered_path(node, k, alphabet)
                if word is None or word not in prev_words:
                    return None
                fresh[node] = word
        if not fresh:
            return prev
        return replace(prev, scps={**prev.scps, **fresh})

    def learn(self, k: int, k_max: int) -> LearnerResult:
        """Re-learn on the current sample, reusing what the labels allow.

        Mirrors the session loop's dynamic procedure: learn at ``k``; while
        the learner abstains because some positive has no SCP within the
        bound, raise the bound up to ``k_max``.
        """
        started = time.perf_counter()
        with self.engine.telemetry.span("interactive.learn", k=k) as span:
            reused = self._reusable_result(k)
            if reused is not None:
                self.counters["reused_learns"] += 1
                result = replace(reused, elapsed=time.perf_counter() - started)
                span.set(reused=True)
            else:
                coverage = self.coverage()
                hits, walks = coverage.guard_memo_hits, coverage.guard_walks
                result = learn_path_query(
                    self.graph, self.sample, k=k, engine=self.engine, coverage=coverage
                )
                self.counters["full_learns"] += 1
                learn_k = k
                while result.is_null and result.positives_without_scp and learn_k < k_max:
                    learn_k += 1
                    result = learn_path_query(
                        self.graph, self.sample, k=learn_k, engine=self.engine, coverage=coverage
                    )
                    self.counters["full_learns"] += 1
                self.counters["guard_memo_hits"] += coverage.guard_memo_hits - hits
                self.counters["guard_walks"] += coverage.guard_walks - walks
                span.set(reused=False, final_k=result.k)
        self.last_result = result
        self._pending_positives.clear()
        self._pending_negatives.clear()
        return result
