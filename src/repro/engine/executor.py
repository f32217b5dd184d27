"""The product walk: reachability in graph x query automaton, on int arrays.

The paper evaluates a path query -- and checks Algorithm 1's merge guard --
with one construction, reachability in the product of the graph and the
query automaton.  In pure python it is written once, as the layered BFS
:func:`_walk`; the entry points seed it and read its visited map:

* :func:`any_selects` -- forward early-exit search from a set of start
  nodes (optionally to one ``end`` node, optionally depth-bounded; on
  request it hands back the witness word instead of ``True``);
* :func:`evaluate_all` -- backward whole-graph closure from the accepting
  pairs (optionally depth-bounded);
* :func:`binary_evaluate` -- one forward closure per source node;
* :func:`bidirectional_pair_selects` -- meet-in-the-middle pair search.

:class:`FoldReach` (that search, kept across a fold's candidates) and the
numpy twins keep loops of their own; each says why.

Every walk reads its transitions through :func:`bind`, and :func:`bind`
reads one format: the kernel's flat transition array, handed over as a
:class:`~repro.automata.kernel.TableDFA` or a mid-merge
:class:`~repro.automata.kernel.MergeFold` (the library's one automaton
form; there is nothing to int-code).  It yields :class:`BoundMoves`:
per-state rows of moves already resolved to the index's CSR label ids.  A
walk looks a popped state's row up once and runs the per-edge loop inline
over it, so its cost scales with the state's out-degree, not with the
alphabet.  Ordering happens here too: an early-exit walk asked for
``rare_first`` gets every row sorted by ascending per-label edge count.

The product pair ``(node v, state s)`` is the single int ``v * span + s``.
All walks take and return *int node ids*; mapping to and from user-facing
node identifiers is the :class:`~repro.engine.engine.QueryEngine`'s job.
The pure-python walks are the parity reference for the numpy twins, and
``tests/oracles/product.py``'s ``reference_*`` functions are the reference
for both; ``tests/engine`` pins them against each other and, in
``test_walk_golden.py``, the python walks' work across commits.
"""

from __future__ import annotations

from array import array
from collections.abc import Container, Iterable
from functools import cache
from itertools import chain, compress
from operator import sub

import numpy as np

from repro.automata.alphabet import Word
from repro.automata.kernel import MergeFold, TableAutomaton
from repro.engine.index import GraphIndex
from repro.errors import QueryError
from repro.telemetry.metrics import Counter, MetricsRegistry

#: Backend names the executor dispatch understands, the one declaration
#: (``EngineConfig.backend`` checks against it).  ``auto`` resolves to
#: ``numpy``; the pure-python walks stay as the parity reference and the
#: planner's pick for sparse all-pairs walks.
BACKENDS = ("auto", "python", "numpy")


def resolve_backend(requested: str) -> str:
    """Resolve a configured backend name to a concrete one (``auto`` is
    ``numpy``); an unknown name is a :class:`QueryError`."""
    if requested not in BACKENDS:
        raise QueryError(
            f"unknown engine backend {requested!r}: expected one of {BACKENDS}"
        )
    return "numpy" if requested == "auto" else requested


class KernelStats:
    """Mutable counters a kernel accumulates into (shared with the engine).

    The two counters are telemetry :class:`~repro.telemetry.metrics.Counter`
    instruments (registered as ``kernel_states_expanded_total`` /
    ``kernel_edges_scanned_total`` when a registry is supplied).  Kernels
    accumulate into locals and flush once per call through :meth:`add`,
    which takes the instruments' locks -- one locked add per kernel call,
    safe under the service layer's concurrent workers.
    """

    __slots__ = ("_states", "_edges", "_lock")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            self._states = Counter("kernel_states_expanded_total")
            self._edges = Counter("kernel_edges_scanned_total")
        else:
            self._states = registry.counter(
                "kernel_states_expanded_total",
                help="Product pairs popped by the BFS kernels",
            )
            self._edges = registry.counter(
                "kernel_edges_scanned_total",
                help="CSR adjacency entries touched by the BFS kernels",
            )
        # Both instruments share one lock so a flush is a single locked
        # add: the service layer's threads must not serialize on two locks
        # per kernel call.
        self._lock = self._states._lock
        self._edges._lock = self._lock

    @property
    def states_expanded(self) -> int:
        return self._states.value

    @property
    def edges_scanned(self) -> int:
        return self._edges.value

    def add(self, states: int, edges: int) -> None:
        """Atomically add one kernel call's work to both counters.

        One lock acquisition covers both instruments (they share a lock),
        so a call flushes in a single locked section.
        """
        with self._lock:
            self._states.value += states
            self._edges.value += edges

    def mark(self) -> tuple[int, int]:
        """The current ``(states_expanded, edges_scanned)`` pair -- take one
        before and after a kernel call to attribute its work to a profile."""
        return self._states.value, self._edges.value


# -- the transition source ----------------------------------------------------


class _LazyRows(dict):
    """Forward rows of a kernel automaton, bound state by state on first touch.

    The learner's merge guard checks thousands of candidates once each and
    walks on from the merged classes only (:class:`FoldReach`), touching a
    handful of states, so binding the whole table up front never pays.  A
    row is built the first time the walk pops its state and memoised for
    the rest of *this call only* -- the fold mutates between calls.  ``find``
    canonicalises a mid-merge fold's stale targets; ``counts`` (per-label
    edge counts, or ``None``) asks for rare-label-first rows.
    """

    __slots__ = ("_trans", "_m", "_find", "_finals", "_labels", "_counts")

    def __init__(self, trans, m, find, finals, labels, counts) -> None:
        self._trans, self._m, self._find, self._finals = trans, m, find, finals
        self._labels, self._counts = labels, counts

    def __missing__(self, state: int) -> list[tuple[int, tuple[int, ...], int]]:
        find, finals, labels = self._find, self._finals, self._labels
        base = state * self._m
        row = []
        for position, target in enumerate(self._trans[base : base + self._m]):
            if target >= 0 and labels[position] >= 0:
                if find is not None:
                    target = find(target)
                row.append((labels[position], (target,), (finals >> target) & 1))
        if self._counts is not None:
            _rare_first(row, self._counts)
        self[state] = row
        return row


def _rare_first(row: list[tuple], counts: list[int]) -> None:
    """Sort one row's moves by ascending per-label edge count, in place.

    Rows are built in alphabet order and the sort is stable, so equally
    frequent labels keep that order.
    """
    row.sort(key=lambda move: counts[move[0]])


class BoundMoves:
    """One query's transitions bound to one graph index.

    ``rows[state]`` lists the state's forward moves as ``(label_id,
    target_states, accepting)``: the CSR label id to follow, the successor
    states, and whether any of them is final (so the early-exit test costs
    one flag read per expanded move, not one lookup per edge).
    ``reverse_rows()`` builds the backward rows ``(label_id, predecessor
    states, 0)`` on first call -- the same shape, never flagged: no backward
    walk halts.  Only the backward closures and the bidirectional search
    need them, the forward early-exit walk never pays.  Moves on
    labels the graph never carries are dropped at bind time: a query label
    the graph does not use simply matches nothing.

    The object lives for one walk; nothing is cached on the (shared,
    thread-crossing) query it was bound from.
    """

    __slots__ = ("span", "initial", "final_mask", "empty", "accepts_empty", "rows", "reverse_rows")

    def __init__(self, span, initial, final_mask, empty, accepts_empty, rows, reverse_rows):
        self.span = span
        self.initial = initial
        self.final_mask = final_mask
        #: No state accepts (walks answer without touching the graph).
        self.empty = empty
        #: The empty word is accepted (every node / every ``(v, v)`` matches).
        self.accepts_empty = accepts_empty
        self.rows = rows
        self.reverse_rows = reverse_rows

    def final_states(self) -> list[int]:
        """The accepting states, ascending."""
        mask = self.final_mask
        return [state for state in range(self.span) if (mask >> state) & 1]


def bind(index: GraphIndex, query: TableAutomaton, *, rare_first: bool = False) -> BoundMoves:
    """Bind ``query``'s transitions to ``index``'s label ids.

    The only place that reads the transition format, and it reads one: the
    flat array of a kernel table or mid-merge fold, bound lazily (see
    :class:`_LazyRows`).  Anything else is a :class:`~repro.errors.QueryError`
    (the engine hands over a query object's ``table``).  With
    ``rare_first`` every row, forward and backward, lists its moves by
    ascending per-label edge count: an early-exit search then grows the
    small frontiers first.  The reachable sets are the same under any move
    order; only the traversal order (and so the work before an exit) moves.
    """
    if not isinstance(query, TableAutomaton):
        raise QueryError(
            f"cannot walk {type(query).__name__!r}: expected a kernel TableDFA/MergeFold"
        )
    trans, m, find, finals, initial = query.kernel_walk()
    labels = query.bind_labels(index.label_ids)
    span = len(trans) // m if m else 1
    counts = index.label_edge_counts() if rare_first else None

    built: list[list] = []  # the backward rows, filled on the first call

    def reverse_rows():
        # Position-major: a state's backward moves list their labels in
        # alphabet order, like its forward row, and each label's
        # predecessors ascending.
        if built:
            return built
        inverted: list[dict[int, list[int]]] = [{} for _ in range(span)]
        for position, label_id in enumerate(labels):
            if label_id < 0:
                continue
            for state, target in enumerate(trans[position::m]):
                if target >= 0:
                    if find is not None:
                        target = find(target)
                    inverted[target].setdefault(label_id, []).append(state)
        for moves in inverted:
            row = [(label_id, states, 0) for label_id, states in moves.items()]
            if counts is not None:
                _rare_first(row, counts)
            built.append(row)
        return built

    rows = _LazyRows(trans, m, find, finals, labels, counts)
    accepts_empty = (finals >> initial) & 1
    return BoundMoves(span, initial, finals, not finals, accepts_empty, rows, reverse_rows)


# -- the python walks ---------------------------------------------------------


def _walk(
    index: GraphIndex,
    moves: BoundMoves,
    visited: dict[int, int],
    stats: KernelStats | None,
    *,
    level: list[int] | None = None,
    backward: bool = False,
    halt: bool = False,
    meet: Container[int] = (),
    max_depth: int | None = None,
    depth_sizes: list[int] | None = None,
) -> tuple[tuple[int, int] | None, list[int]]:
    """The layered product BFS under every python entry point below.

    Expands ``level`` (pairs in ``visited``; default: all of them) one word
    length per layer, at most ``max_depth`` layers, on the forward rows and
    CSR or the ``backward`` ones.  A new pair is stored as ``code -> the pair
    it was reached from``: the BFS tree :func:`_witness_word` reads.
    ``halt`` stops at the first flagged move with an edge, ``meet`` at the
    first new pair it holds (disjoint from ``visited`` until then); both
    return the hit ``(pair, label_id)``.  ``depth_sizes`` gets each
    non-empty layer's size, seeds first.  Returns ``(hit or None, the last
    layer)``; the work goes into ``stats`` in one add.
    """
    if backward:
        rows, offsets_of, targets_of = moves.reverse_rows(), index.bwd_offsets, index.bwd_targets
    else:
        rows, offsets_of, targets_of = moves.rows, index.fwd_offsets, index.fwd_targets
    span, level = moves.span, list(visited) if level is None else level
    expanded = scanned = depth = 0
    try:
        while level:
            if depth_sizes is not None:
                depth_sizes.append(len(level))
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            next_level: list[int] = []
            for code in level:
                node, state = divmod(code, span)
                expanded += 1
                for label_id, next_states, flag in rows[state]:
                    offsets = offsets_of[label_id]
                    start, stop = offsets[node], offsets[node + 1]
                    if start == stop:
                        continue
                    scanned += stop - start
                    if flag and halt:
                        return (code, label_id), level
                    for next_node in targets_of[label_id][start:stop]:
                        base = next_node * span
                        for next_state in next_states:
                            next_code = base + next_state
                            if next_code not in visited:
                                if next_code in meet:
                                    return (code, label_id), level
                                visited[next_code] = code
                                next_level.append(next_code)
            level = next_level
        return None, level
    finally:
        if stats is not None:
            stats.add(expanded, scanned)


def any_selects(
    index: GraphIndex,
    query: TableAutomaton,
    node_ids: Iterable[int],
    stats: KernelStats | None = None,
    *,
    end: int | None = None,
    max_depth: int | None = None,
    witness: bool = False,
    rare_first: bool = False,
) -> bool | Word | None:
    """Whether the query selects at least one of the given nodes.

    Multi-source forward product BFS that exits as soon as an accepting
    pair is reached -- the engine-side version of the
    intersection-emptiness test of Algorithm 1's merge guard.  The seeds
    are the start pairs; without ``end`` the walk halts at the first
    accepting move, with it at the first ``(end, final)`` pair.

    The visited map doubles as the BFS tree: every pair records the pair it
    was first reached from.  With ``witness`` a hit returns, instead of
    ``True``, the label word the walk got there by (a shortest accepted
    word that labels a path from one of the start nodes; the empty tuple
    when the empty word is accepted) and a miss returns ``None``.  The word
    is rebuilt from the parent links on the hit only, so a walk does the
    same work -- and counts the same ``stats`` -- either way.  The map is a
    sparse dict: early exits usually touch a tiny fraction of the product,
    so a dense ``|V| * span`` table would cost more to allocate than the
    search.

    With ``end`` the accepted path must additionally stop at that node (the
    binary semantics' pair test).  ``max_depth`` bounds the accepted word's
    length: the BFS runs in word-length layers (first visit = shortest
    witness, so the pair dedup stays sound) and stops after that many.
    ``rare_first`` walks :func:`bind`'s rare-label-first rows.
    """
    starts = list(node_ids)
    moves = bind(index, query, rare_first=rare_first)
    miss = None if witness else False
    if not starts or moves.empty:
        return miss
    if moves.accepts_empty and (end is None or end in starts):
        return () if witness else True
    span, visited = moves.span, {}
    for node in starts:
        visited.setdefault(node * span + moves.initial, -1)
    meet = () if end is None else {end * span + final for final in moves.final_states()}
    hit, _ = _walk(index, moves, visited, stats, halt=end is None, meet=meet, max_depth=max_depth)
    if hit is None:
        return miss
    return _witness_word(index, moves, visited, *hit) if witness else True


def _witness_word(
    index: GraphIndex, moves: BoundMoves, parents: dict[int, int], code: int, label_id: int
) -> Word:
    """The word of the BFS tree path to pair ``code``, then ``label_id``.

    ``parents`` is :func:`any_selects`' visited map.  Each tree edge's label
    is the first move of the parent's row that reaches the child -- the
    move the walk discovered it by.
    """
    span, rows = moves.span, moves.rows
    fwd_offsets, fwd_targets = index.fwd_offsets, index.fwd_targets
    label_ids = [label_id]
    parent = parents[code]
    while parent >= 0:
        node, state = divmod(code, span)
        origin, origin_state = divmod(parent, span)
        for move_label, targets, _ in rows[origin_state]:
            start, stop = fwd_offsets[move_label][origin : origin + 2]
            if state in targets and node in fwd_targets[move_label][start:stop]:
                label_ids.append(move_label)
                break
        code, parent = parent, parents[parent]
    labels_by_id = index.labels_by_id
    return tuple(labels_by_id[label] for label in reversed(label_ids))


class FoldReach:
    """Algorithm 1's merge guard over one fold: the product pairs it reaches.

    Keeps the pairs ``(node, class root)`` the fold's last committed
    hypothesis reaches from the start nodes (ids of ``index``, the one index
    it answers on).  A merge only adds transitions and a class that absorbed
    nothing keeps its row, so a check walks on from merged roots only
    (Decker's rule).  A miss is *pending* until the fold commits exactly that
    candidate (:meth:`~repro.automata.kernel.MergeFold.commit_id`); anything
    unrecognised -- another fold, an unchecked commit -- restarts.

    Not :func:`_walk`: its per-state node sets, expanded state by state, are
    the guard's measured gain, and its early exits come after other work.
    """

    __slots__ = ("index", "starts", "_fold", "_labels", "_reached", "_reached_id", "_pending")

    def __init__(self, index: GraphIndex, starts: list[int]) -> None:
        self.index, self.starts = index, starts
        self._fold: MergeFold | None = None
        self._labels: list[int] = []  # the fold's symbol ids bound to label ids
        # state -> node ids reached under ``_reached_id``; a check copies what it extends.
        self._reached: dict[int, set[int]] = {}
        self._reached_id: tuple | None = None
        self._pending: tuple | None = None  # (absorbed, extended sets, id) of a miss

    def selects(self, index: GraphIndex, fold: MergeFold, stats: KernelStats | None = None) -> bool:
        """Whether the fold as it stands selects one of the start nodes: the
        absorbed classes' nodes move onto their roots (a reached final root is
        a hit), then the walk goes on from the merged roots' pairs."""
        if index is not self.index or not isinstance(fold, MergeFold):
            raise QueryError("a FoldReach walks a MergeFold on the index it was built on")
        committed = fold.commit_id()
        if fold is not self._fold:
            self._fold, self._reached_id = fold, None
            self._labels = fold.bind_labels(index.label_ids)
        elif self._pending is not None and self._pending[2] == committed:
            absorbed, extended, self._reached_id = self._pending
            for state in absorbed:
                self._reached.pop(state, None)
            self._reached.update(extended)
        self._pending = None
        absorbed, rewritten = fold.changes()
        seeds: dict = {}  # merged root -> the nodes reached at it
        reached: dict[int, set[int]] = {}  # the copies this check extends, by state
        if self._reached_id == committed:
            base, find = self._reached, fold.find
            for state in (*absorbed, *rewritten):
                seeds[find(state)] = base.get(find(state), ())
            for state in absorbed:
                if base.get(state):
                    reached.setdefault(find(state), set(seeds[find(state)])).update(base[state])
            seeds.update((root, list(nodes)) for root, nodes in reached.items())
        else:
            self._reached, self._reached_id = {}, None
            seeds[fold.initial], reached[fold.initial] = self.starts, set(self.starts)
        if self._walk(fold, seeds, reached, stats):
            return True
        self._pending = (absorbed, reached, fold.candidate_id())
        return False

    def _walk(self, fold: MergeFold, seeds: dict, reached: dict[int, set[int]], stats) -> bool:
        """Walk on from the ``seeds`` pairs (root -> kept set or list), copying
        into ``reached`` each kept set it extends; True at the first final pair."""
        finals, base = fold.finals, self._reached
        if any(nodes and (finals >> root) & 1 for root, nodes in seeds.items()):
            return True
        trans, m, find, _, _ = fold.kernel_walk()
        rows = _LazyRows(trans, m, find, finals, self._labels, None)
        fwd_offsets, fwd_targets = self.index.fwd_offsets, self.index.fwd_targets
        level = {root: nodes for root, nodes in seeds.items() if nodes}
        expanded = scanned = 0
        try:
            while level:
                next_level: dict[int, list[int]] = {}
                for state, nodes in level.items():
                    expanded += len(nodes)
                    for label_id, (target,), accepting in rows[state]:
                        offsets, targets = fwd_offsets[label_id], fwd_targets[label_id]
                        known = reached.get(target)
                        if known is None:
                            known = reached[target] = set(base.get(target, ()))
                        for node in nodes:
                            start, stop = offsets[node], offsets[node + 1]
                            if start != stop:
                                scanned += stop - start
                                if accepting:
                                    return True
                                for target_node in targets[start:stop]:
                                    if target_node not in known:
                                        known.add(target_node)
                                        next_level.setdefault(target, []).append(target_node)
                level = next_level
            return False
        finally:
            if stats is not None:
                stats.add(expanded, scanned)


def evaluate_all(
    index: GraphIndex,
    query: TableAutomaton,
    stats: KernelStats | None = None,
    *,
    depth_sizes: list[int] | None = None,
    max_depth: int | None = None,
) -> array:
    """Int ids of all nodes the query selects (monadic semantics): ascending,
    in an array of the index's ``id_typecode``.

    One *backward* BFS over the product from every accepting pair computes
    the co-reachable set; a node is selected iff one of its initial pairs is
    co-reachable.  ``O(|E| * k + |V| * k)`` like the reference, on int codes.

    ``depth_sizes``, when given, receives the number of product pairs
    expanded per BFS layer (layer 0 = the accepting seed pairs) -- the
    per-depth frontier profile telemetry attaches to query results.

    ``max_depth`` bounds the accepted word length (layers run in
    word-length order), which is how the interactive layer's
    one-walk-per-round batched k-informativeness check cuts the product at
    ``k`` symbols.
    """
    moves = bind(index, query)
    n, span, typecode = index.num_nodes, moves.span, index.id_typecode
    if moves.empty:
        return array(typecode)
    if moves.accepts_empty:
        # Every node trivially matches via the empty path.
        return array(typecode, range(n))
    seeds = chain.from_iterable(range(final, n * span, span) for final in moves.final_states())
    visited = dict.fromkeys(seeds, -1)
    _walk(index, moves, visited, stats, backward=True, max_depth=max_depth, depth_sizes=depth_sizes)
    initial_pairs = range(moves.initial, n * span, span)
    return array(typecode, compress(range(n), map(visited.__contains__, initial_pairs)))


def binary_evaluate(
    index: GraphIndex,
    query: TableAutomaton,
    stats: KernelStats | None = None,
) -> frozenset[tuple[int, int]]:
    """All selected ``(source id, end id)`` pairs (binary semantics).

    One forward product BFS per source node, as in the reference: the
    source's pairs are its walk's visited pairs at a final state.  A source
    without an edge on its initial row expands its initial pair and stops;
    those are found from the CSR offsets and counted in one go, so a
    selective first label pays for the sources it lets through.
    """
    moves = bind(index, query)
    if moves.empty:
        return frozenset()
    n, span, initial, finals = index.num_nodes, moves.span, moves.initial, moves.final_mask
    moving: set[int] = set()
    for label_id, _, _ in moves.rows[initial]:
        offsets = index.fwd_offsets[label_id]
        moving.update(compress(range(n), map(sub, offsets[1:], offsets)))
    if stats is not None:
        stats.add(n - len(moving), 0)
    result = set(zip(range(n), range(n))) if moves.accepts_empty else set()
    for source in moving:
        visited = {source * span + initial: -1}
        _walk(index, moves, visited, stats)
        result.update((source, code // span) for code in visited if (finals >> code % span) & 1)
    return frozenset(result)


# -- the numpy backend --------------------------------------------------------
#
# Vectorized twins of the whole-graph walks above.  A layer of the product
# BFS is expanded in one shot: the frontier is a sorted, duplicate-free int64
# array of product codes.  The monadic walk codes a pair state-major, as
# ``state * n + node``, so each state's pairs are one contiguous run of the
# frontier, cut out with one ``searchsorted`` over the ``span + 1`` state
# bounds, and the answer is one slice of the visited mask; the binary walk
# keeps the node-major code and groups a layer by state with one
# ``bincount``.  The CSR gather turns per-node (start, stop) ranges into one
# flat neighbour array via repeat/cumsum arithmetic; dedup masks out the
# visited codes, sorts the rest and keeps each first-of-run -- no hash table
# anywhere.  The CSR arrays are viewed zero-copy through ``np.frombuffer`` --
# the heap ``array`` form and the storage layer's read-only mmap
# ``memoryview`` form both expose the buffer protocol, so a snapshot-backed
# index vectorizes without a copy (and nothing here writes through a view).
# A monadic answer stays a numpy array of the python walk's ids and
# typecode; pairs come back through ``.tolist()`` (true python ints):
# byte-identical to the python oracle's.  They stay beside :func:`_walk`:
# a layer per numpy call is 10-12x the python walk on a serve-sized graph.


def _np_views(offsets: list, targets: list):
    """``views(label_id)``: that label's ``(offsets, targets)`` CSR arrays as
    numpy views, built the first time a row asks and kept for one walk only."""
    return cache(
        lambda label_id: tuple(
            np.frombuffer(arrays[label_id], dtype=f"i{arrays[label_id].itemsize}")
            for arrays in (offsets, targets)
        )
    )


def _np_by_state(layer_states, rows, span):
    """``(moves row, layer mask, count)`` for each state the layer holds,
    ascending; states without moves are skipped."""
    for state, count in enumerate(np.bincount(layer_states, minlength=span).tolist()):
        if count and rows[state]:
            yield rows[state], layer_states == state, count


def _np_gather(offsets, targets, nodes):
    """``(neighbours, counts)``: the CSR neighbours of ``nodes`` (never
    empty), flattened.

    ``counts[i]`` is node i's degree; ``neighbours`` concatenates every node's
    targets slice in order (a duplicate node contributes its slice again, as
    in the scalar loop), so its size is the adjacency entries scanned.
    """
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1])
    if not total:
        return targets[:0], counts
    # positions[j] = j + (starts[i] - first flat slot of node i): the classic
    # vectorized CSR expansion -- one arange, one repeat, no python loop.
    shifts = starts - (ends - counts)
    return targets[np.arange(total, dtype=np.int64) + shifts.repeat(counts)], counts


def _np_fresh(grown, visited):
    """The not-yet-visited codes among a layer's candidate arrays (left
    untouched): sorted, duplicate-free, marked visited.  Visited codes go
    first, so the sort sees only what is left; then the first code stays and
    every code that differs from the one before it."""
    fresh = np.concatenate(grown)
    fresh = fresh[~visited[fresh]]
    fresh.sort()
    fresh = np.concatenate((fresh[:1], fresh[1:][fresh[1:] != fresh[:-1]]))
    visited[fresh] = True
    return fresh


def numpy_evaluate_all(
    index: GraphIndex,
    query: TableAutomaton,
    stats: KernelStats | None = None,
    *,
    depth_sizes: list[int] | None = None,
    max_depth: int | None = None,
):
    """Vectorized :func:`evaluate_all` (identical results, layers, counters).

    A product pair is the state-major code ``state * n + node``, so a sorted
    layer holds each state's nodes as one run, found by one ``searchsorted``
    over the state bounds.  Every pair of a layer counts as expanded, also
    the ones at a state with no backward moves, as in the python walk.
    """
    moves = bind(index, query)
    n, span, typecode = index.num_nodes, moves.span, index.id_typecode
    if moves.empty:
        return np.arange(0, dtype=typecode)
    if moves.accepts_empty:
        return np.arange(n, dtype=typecode)
    rrows = moves.reverse_rows()
    views = _np_views(index.bwd_offsets, index.bwd_targets)

    visited = np.zeros(span * n, dtype=bool)
    nodes = np.arange(n, dtype=np.int64)
    frontier = np.concatenate([nodes + final * n for final in moves.final_states()])
    visited[frontier] = True
    bounds = np.arange(span + 1, dtype=np.int64) * n

    expanded = 0
    scanned = 0
    depth = 0
    if depth_sizes is not None and frontier.size:
        depth_sizes.append(int(frontier.size))
    while frontier.size and (max_depth is None or depth < max_depth):
        depth += 1
        expanded += int(frontier.size)
        cuts = np.searchsorted(frontier, bounds).tolist()
        grown: list = []
        for state, row in enumerate(rrows):
            lo, hi = cuts[state], cuts[state + 1]
            if lo == hi or not row:
                continue
            # The frontier is sorted and duplicate-free, so n codes at one
            # state are every node in order (always true of the seed layer):
            # their gathered predecessors are the label's whole CSR array.
            at_state = None if hi - lo == n else frontier[lo:hi] - state * n
            for label_id, pred_states, _ in row:
                offsets, preds = views(label_id)
                if at_state is not None:
                    preds, _ = _np_gather(offsets, preds, at_state)
                if not preds.size:
                    continue
                scanned += preds.size
                grown += [preds + pred_state * n for pred_state in pred_states]
        frontier = _np_fresh(grown, visited) if grown else nodes[:0]
        if depth_sizes is not None and frontier.size:
            depth_sizes.append(int(frontier.size))
    if stats is not None:
        stats.add(expanded, scanned)

    return np.flatnonzero(visited[moves.initial * n : (moves.initial + 1) * n]).astype(typecode)


def numpy_binary_evaluate(
    index: GraphIndex,
    query: TableAutomaton,
    stats: KernelStats | None = None,
) -> frozenset[tuple[int, int]]:
    """Vectorized :func:`binary_evaluate`: sources in chunks, one BFS each.

    A chunk of sources shares one layered product BFS over codes
    ``(local_source * n + node) * span + state``; the chunk size is bounded
    so the dense visited mask stays around 16 MB however large the graph is.
    """
    moves = bind(index, query)
    if moves.empty:
        return frozenset()
    n, span, rows = index.num_nodes, moves.span, moves.rows
    views = _np_views(index.fwd_offsets, index.fwd_targets)
    is_final = np.zeros(span, dtype=bool)
    is_final[moves.final_states()] = True

    result: set[tuple[int, int]] = set()
    expanded = 0
    scanned = 0
    chunk = max(1, min(1024, (16 << 20) // max(1, n * span)))
    for chunk_lo in range(0, n, chunk):
        sources = np.arange(chunk_lo, min(chunk_lo + chunk, n), dtype=np.int64)
        c = int(sources.size)
        if moves.accepts_empty:
            result.update(zip(sources.tolist(), sources.tolist()))
        visited = np.zeros(c * n * span, dtype=bool)
        frontier = (np.arange(c, dtype=np.int64) * n + sources) * span + moves.initial
        visited[frontier] = True
        while frontier.size:
            expanded += int(frontier.size)
            rest, layer_states = np.divmod(frontier, span)
            layer_locals, layer_nodes = np.divmod(rest, n)
            grown: list = []
            for row, mask, _ in _np_by_state(layer_states, rows, span):
                at_nodes = layer_nodes[mask]
                at_locals = layer_locals[mask]
                for label_id, targets, _ in row:
                    neighbours, counts = _np_gather(*views(label_id), at_nodes)
                    if not neighbours.size:
                        continue
                    scanned += neighbours.size
                    base = (np.repeat(at_locals, counts) * n + neighbours) * span
                    grown += [base + target_state for target_state in targets]
            if not grown:
                break
            frontier = _np_fresh(grown, visited)
            accepting = frontier[is_final[frontier % span]]
            if accepting.size:
                acc_locals, acc_nodes = np.divmod(accepting // span, n)
                result.update(zip(sources[acc_locals].tolist(), acc_nodes.tolist()))
    if stats is not None:
        stats.add(expanded, scanned)
    return frozenset(result)


def whole_graph_walks(backend: str):
    """The ``(evaluate_all, binary_evaluate)`` pair of a resolved backend."""
    if backend == "numpy":
        return numpy_evaluate_all, numpy_binary_evaluate
    return evaluate_all, binary_evaluate


# -- bidirectional pair search ------------------------------------------------


def bidirectional_pair_selects(
    index: GraphIndex,
    query: TableAutomaton,
    origin_id: int,
    end_id: int,
    stats: KernelStats | None = None,
    *,
    rare_first: bool = False,
) -> bool:
    """``any_selects(index, query, (origin,), end=end)`` meeting in the middle.

    Two frontiers -- forward from ``(origin, initial)``, backward from
    ``(end, finals)`` -- expand in alternating layers; each step grows the
    side whose frontier has the smaller summed CSR degree (the per-label
    degree stats again, now per layer).  The query selects the pair iff the
    visited sets ever intersect; either frontier emptying first proves the
    negative, usually touching far fewer product pairs than the one-sided
    search on deep graphs.  ``rare_first`` as in :func:`any_selects`.
    """
    moves = bind(index, query, rare_first=rare_first)
    if moves.empty:
        return False
    if origin_id == end_id and moves.accepts_empty:
        return True
    span, rows, rrows = moves.span, moves.rows, moves.reverse_rows()
    fwd = {origin_id * span + moves.initial: -1}
    # Seeded in set order: the expansion order (and so the work before a
    # meet) that tests/engine/walk_golden.json records.
    bwd = dict.fromkeys({end_id * span + final for final in moves.final_states()}, -1)
    fwd_level, bwd_level = list(fwd), list(bwd)

    def layer_degree(level: list[int], side_rows, offsets_of) -> int:
        return sum(
            offsets_of[label_id][node + 1] - offsets_of[label_id][node]
            for node, state in [divmod(code, span) for code in level]
            for label_id, _, _ in side_rows[state]
        )

    while fwd_level and bwd_level:
        fwd_degree = layer_degree(fwd_level, rows, index.fwd_offsets)
        if fwd_degree <= layer_degree(bwd_level, rrows, index.bwd_offsets):
            hit, fwd_level = _walk(index, moves, fwd, stats, level=fwd_level, meet=bwd, max_depth=1)
        else:
            hit, bwd_level = _walk(
                index, moves, bwd, stats, level=bwd_level, backward=True, meet=fwd, max_depth=1
            )
        if hit is not None:
            return True
    return False
