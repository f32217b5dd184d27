"""Kernel-backed incremental state of an interactive session (Section 4.2).

SCP selection (Lemma 3.1) and k-informativeness (Lemma 4.1) ask the same
question -- "is this word in ``paths_G(S-)``?" -- so the session answers
both from the one :class:`~repro.learning.scp.NegativeCoverage` of its
current negatives:

* ``coverage.table(k, alphabet)`` is the frontier automaton cut at ``k``:
  one :class:`~repro.automata.kernel.TableDFA` accepting exactly the words
  of length <= ``k`` no negative covers;
* batched k-informativeness runs **one** depth-bounded backward CSR product
  walk of that table per round (:func:`repro.engine.executor.evaluate_all`
  through the engine's ephemeral path) and yields the verdict of *every*
  node at once; a pooled strategy asks per candidate instead, one early-exit
  forward walk each;
* ``coverage.uncovered_paths(node, k, alphabet)`` is the ``kS`` count (its
  capped length) and the learner's SCP (its first element);
* :class:`SessionState` carries the pieces across rounds and invalidates
  only what a new label can change: a positive label leaves the coverage and
  the informative set untouched (certainty is monotone, Lemma 4.1), while a
  negative label replaces the coverage (automaton and table with it) and
  drops the informative set; and when
  the new positive's smallest consistent path is already among the
  learner's SCPs, the previous MergeFold hypothesis is provably identical
  and is reused without re-learning.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import islice

from repro.engine.engine import QueryEngine
from repro.engine.index import GraphIndex
from repro.graphdb.graph import GraphDB, Node
from repro.learning.learner import LearnerResult, learn_path_query
from repro.learning.sample import NEGATIVE, Sample
from repro.learning.scp import NegativeCoverage


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
    uncovered-words table, one backward CSR walk.
    """
    labeled = sample.labeled
    if not sample.negatives:
        # Every unlabeled node has the uncovered empty path.
        return frozenset(node for node in graph.nodes if node not in labeled)
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    table = coverage.table(k, graph.alphabet)
    selected = engine.evaluate(graph, table, ephemeral=True, max_depth=k)
    return selected - labeled


class SessionState:
    """Incremental cross-round state of one interactive learning session.

    Owns the pieces a round would otherwise recompute and keeps them alive
    for as long as they stay valid:

    ======================  =======================  =====================
    carried structure        invalidated by           survives
    ======================  =======================  =====================
    k-informative set        negative label, k move   positive labels [#]_
    NegativeCoverage         negative label [#]_      positive labels, k moves
    learner result           negative label, new SCP  positives w/ known SCP
    ======================  =======================  =====================

    .. [#] a positive label only removes the labeled node itself from the
       set -- certainty is monotone in the sample (Lemma 4.1), so no other
       node's verdict can change.
    .. [#] its frontier automaton, and with it the uncovered-words table
       (a ``k`` move only re-cuts the table from the same automaton).
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
        self._seen_index: GraphIndex | None = None
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
            "guard_calls": 0,
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
            # The negative set moved: the coverage (replaced on its next
            # use) and every *informative* verdict derived from it are
            # stale.  The non-informative verdicts survive: adding a
            # negative can only shrink the uncovered language (monotone
            # certainty, Lemma 4.1).
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
        self._informative = None
        if grew:
            self._non_informative.clear()
        else:
            self._informative_nodes.clear()
        # The coverage's automaton is per-word, not per-k: keep it.

    # -- informativeness ------------------------------------------------------

    def _index(self) -> GraphIndex:
        """The engine's current CSR snapshot, with staleness propagation.

        A graph mutation mints a new index (version counter), and with it
        every node-level verdict this state carries may be wrong -- an added
        edge can give a cached non-informative node an uncovered path.  The
        coverage revalidates against the index in :meth:`coverage`; the
        verdict caches are cleared here, on the same signal.
        """
        index = self.engine.index_for(self.graph)
        if index is not self._seen_index:
            if self._seen_index is not None:
                self._informative = None
                self._informative_nodes.clear()
                self._non_informative.clear()
            self._seen_index = index
        return index

    def informative_nodes(self) -> frozenset[Node]:
        """The current k-informative (unlabeled) nodes, batched and cached.

        At most one backward CSR product walk per (negative set, ``k``)
        pair; every further call -- and every round that only added positive
        labels -- is a set lookup.  The walk's verdicts also seed the
        per-node caches :meth:`is_informative` reads.
        """
        self._index()  # first: drops every cache if the graph moved
        if self._informative is not None:
            return self._informative
        labeled = self.sample.labeled
        if not self.sample.negatives:
            self._informative = frozenset(
                node for node in self.graph.nodes if node not in labeled
            )
            return self._informative
        table = self.coverage().table(self.k, self.graph.alphabet)
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
        self._index()  # first: drops every cache if the graph moved
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
        table = self.coverage().table(self.k, self.graph.alphabet)
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
        """How many paths of one candidate (length <= k) no negative covers.

        ``cap`` stops the count early (``kS`` only compares small counts).
        """
        self.counters["count_queries"] += 1
        paths = self.coverage().uncovered_paths(node, self.k, self.graph.alphabet)
        return sum(1 for _ in islice(paths, cap))

    # -- learning -------------------------------------------------------------

    def coverage(self) -> NegativeCoverage:
        """The shared :class:`NegativeCoverage` of the current negative set.

        Rebuilt when the negative set or the graph's index moved.
        """
        negatives = self.sample.negatives
        if self._coverage is None or not self._coverage.is_current(self.graph, negatives):
            self._coverage = NegativeCoverage(self._index(), negatives)
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
        if self._pending_negatives:
            # The carried SCPs were uncovered before the pending negatives:
            # covered now means covered by one of those.
            if any(map(self.coverage().covers, prev.scps.values())):
                return None
            if self.engine.any_selects(
                self.graph, prev.hypothesis, self._pending_negatives
            ):
                return None
        fresh: dict[Node, tuple] = {}
        if self._pending_positives:
            prev_words = set(prev.scps.values())
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
                calls = coverage.guard_calls
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
                self.counters["guard_calls"] += coverage.guard_calls - calls
                span.set(reused=False, final_k=result.k)
        self.last_result = result
        self._pending_positives.clear()
        self._pending_negatives.clear()
        return result
