"""The immutable CSR graph index the engine's kernels run on.

A :class:`GraphIndex` is a read-optimized snapshot of a
:class:`~repro.graphdb.graph.GraphDB`:

* nodes are int-encoded ``0..n-1`` in the graph's *stable node order*
  (insertion order) and labels are int-encoded ``0..m-1`` in stable
  first-use order;
* for every label, the forward and backward adjacency is stored in CSR form
  (compressed sparse rows): an offsets array of length ``n + 1`` and a flat
  targets array, both :mod:`array` module int arrays, so one node's
  neighbours on one label are a contiguous slice with no hashing involved;
* within each node's slice the targets are sorted ascending, which makes
  the arrays *canonical*: two indexes of the same graph are byte-identical
  however they were produced (full build, incremental refresh, snapshot
  load) -- the storage layer's parity guarantee rests on this;
* the snapshot records the graph's ``(uid, version)`` at build time, so
  staleness is a single integer comparison (:meth:`GraphIndex.is_current`).

Building the index costs one pass over the edge set; every evaluation after
that avoids the per-call dict/frozenset churn of the reference product
construction (``tests/oracles/product.py``).  When the graph mutates, the
index can usually be *refreshed* (:meth:`GraphIndex.refresh`) from the
graph's mutation delta log instead of rebuilt: stable node/label numbering
means new nodes and labels are appended and only the labels actually
touched by the delta have their CSR rows re-merged.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from functools import cache
from itertools import accumulate, chain
from operator import sub
from time import perf_counter

from repro.graphdb.graph import GraphDB, Node

#: Delta-to-index size ratio past which :meth:`GraphIndex.refresh` declines
#: and the engine rebuilds (per-row merging stops paying off around there).
REFRESH_RATIO = 0.25


@cache
def load_numpy():
    """The numpy module, or ``False`` when not installed (cached probe)."""
    try:
        import numpy
    except ImportError:
        return False
    return numpy


def repr_rank(nodes: tuple[Node, ...], typecode: str):
    """``rank[node_id]``: the node's position in ``repr`` order, ties by id.

    A numpy array of ``typecode`` when numpy is importable, else a list.
    Sorting by rank is sorting the nodes by ``repr``, without calling
    ``repr`` again.
    """
    reprs = list(map(repr, nodes))
    order = sorted(range(len(nodes)), key=reprs.__getitem__)  # stable: ties by id
    np = load_numpy()
    if np:
        rank = np.empty(len(nodes), dtype=typecode)
        rank[order] = np.arange(len(nodes), dtype=typecode)
        return rank
    rank = [0] * len(nodes)
    for position, node_id in enumerate(order):
        rank[node_id] = position
    return rank


def out_label_masks(bwd_targets, n: int) -> list[int]:
    """Per node, the bit set of its out-edges' labels (plain ints), read off
    the backward CSR targets (each label's edge origins); vectorised when
    numpy is importable and the bits fit an int64."""
    np = load_numpy()
    if np and len(bwd_targets) < 64:
        masks = np.zeros(n, dtype=np.int64)
        for label_id, origins in enumerate(bwd_targets):
            masks[np.asarray(origins)] |= 1 << label_id
        return masks.tolist()
    masks = [0] * n
    for label_id, origins in enumerate(bwd_targets):
        bit = 1 << label_id
        for node_id in origins:
            masks[node_id] |= bit
    return masks


class GraphIndex:
    """An immutable int-encoded, per-label CSR view of a graph database.

    Build one with :meth:`GraphIndex.build` (or, with per-graph caching,
    :meth:`QueryEngine.index_for`).  The index intentionally does not
    reference the source :class:`GraphDB` so that it can outlive it and be
    shared freely.
    """

    __slots__ = (
        "graph_uid",
        "graph_version",
        "num_nodes",
        "num_labels",
        "nodes_by_id",
        "_node_ids",
        "labels_by_id",
        "label_ids",
        "fwd_offsets",
        "fwd_targets",
        "bwd_offsets",
        "bwd_targets",
        "edge_count",
        "build_seconds",
        "_rank",
        "_out_label_masks",
    )

    def __init__(
        self,
        *,
        graph_uid: int,
        graph_version: int,
        nodes_by_id: tuple[Node, ...],
        labels_by_id: tuple[str, ...],
        node_ids: dict[Node, int] | None = None,
        label_ids: dict[str, int] | None = None,
        fwd_offsets: list,
        fwd_targets: list,
        bwd_offsets: list,
        bwd_targets: list,
        edge_count: int,
    ) -> None:
        self.graph_uid = graph_uid
        self.graph_version = graph_version
        self.nodes_by_id = nodes_by_id
        self._node_ids = node_ids
        self.labels_by_id = labels_by_id
        self.label_ids = (
            {label: index for index, label in enumerate(labels_by_id)}
            if label_ids is None
            else label_ids
        )
        self.num_nodes = len(nodes_by_id)
        self.num_labels = len(labels_by_id)
        self.fwd_offsets = fwd_offsets
        self.fwd_targets = fwd_targets
        self.bwd_offsets = bwd_offsets
        self.bwd_targets = bwd_targets
        self.edge_count = edge_count
        #: Wall time (perf_counter) spent producing this index: the full
        #: build or incremental refresh that made it, 0.0 for snapshot
        #: loads and hand-constructed indexes.  Telemetry only -- never
        #: part of the canonical byte form.
        self.build_seconds = 0.0
        self._rank = None
        self._out_label_masks = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, graph: GraphDB) -> "GraphIndex":
        """Snapshot the graph into CSR form (one pass over the edge set)."""
        started = perf_counter()
        nodes_by_id = tuple(graph.node_order)
        node_ids = {node: index for index, node in enumerate(nodes_by_id)}
        labels_by_id = tuple(graph.label_order)
        label_ids = {label: index for index, label in enumerate(labels_by_id)}
        n = len(nodes_by_id)
        m = len(labels_by_id)

        # Bucket the int-encoded edges per label, then sort each bucket so
        # every node's targets slice comes out ascending (canonical form).
        per_label: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for origin, label, end in graph.edges:
            per_label[label_ids[label]].append((node_ids[origin], node_ids[end]))

        fwd_offsets: list[array] = []
        fwd_targets: list[array] = []
        bwd_offsets: list[array] = []
        bwd_targets: list[array] = []
        for edges in per_label:
            fwd_off, fwd_tgt, bwd_off, bwd_tgt = csr_pair(edges, n)
            fwd_offsets.append(fwd_off)
            fwd_targets.append(fwd_tgt)
            bwd_offsets.append(bwd_off)
            bwd_targets.append(bwd_tgt)

        index = cls(
            graph_uid=graph.uid,
            graph_version=graph.version,
            nodes_by_id=nodes_by_id,
            labels_by_id=labels_by_id,
            node_ids=node_ids,
            label_ids=label_ids,
            fwd_offsets=fwd_offsets,
            fwd_targets=fwd_targets,
            bwd_offsets=bwd_offsets,
            bwd_targets=bwd_targets,
            edge_count=graph.edge_count(),
        )
        index.build_seconds = perf_counter() - started
        return index

    # -- incremental maintenance ---------------------------------------------

    def refresh(self, graph: GraphDB, *, max_ratio: float = REFRESH_RATIO) -> "GraphIndex | None":
        """A new index incorporating ``graph``'s mutations since this one.

        Merges the graph's mutation delta log into copies of the CSR arrays:
        new nodes and labels are appended (the stable orders guarantee a
        fresh build would number them identically), and only the labels
        actually touched by the delta have their rows re-merged -- untouched
        labels share their arrays with this index.  The result is
        byte-identical to ``GraphIndex.build(graph)``.

        Returns ``self`` when already current, or ``None`` when incremental
        maintenance is impossible or not worthwhile: a different graph, a
        truncated delta log, or a delta larger than ``max_ratio`` of the
        indexed edge set (at that size a full counting-sort rebuild is
        cheaper than per-row merging).
        """
        if graph.uid != self.graph_uid:
            return None
        if graph.version == self.graph_version:
            return self
        delta_since = getattr(graph, "delta_since", None)
        if delta_since is None:
            return None
        delta = delta_since(self.graph_version)
        if delta is None:
            return None
        if len(delta) > max(16, int(max_ratio * max(1, self.edge_count))):
            return None
        started = perf_counter()

        new_nodes: list[Node] = []
        delta_edges: list[tuple[Node, str, Node]] = []
        for event in delta:
            if event[0] == "node":
                new_nodes.append(event[1])
            else:
                delta_edges.append((event[1], event[2], event[3]))

        old_n, old_m = self.num_nodes, self.num_labels
        nodes_by_id = self.nodes_by_id + tuple(new_nodes)
        node_ids = dict(self.node_ids)
        for offset, node in enumerate(new_nodes, start=old_n):
            node_ids[node] = offset
        n = len(nodes_by_id)

        labels_by_id = list(self.labels_by_id)
        label_ids = dict(self.label_ids)
        delta_by_label: dict[int, list[tuple[int, int]]] = {}
        for origin, label, end in delta_edges:
            label_id = label_ids.get(label)
            if label_id is None:
                label_id = len(labels_by_id)
                label_ids[label] = label_id
                labels_by_id.append(label)
            delta_by_label.setdefault(label_id, []).append((node_ids[origin], node_ids[end]))

        fwd_offsets: list = []
        fwd_targets: list = []
        bwd_offsets: list = []
        bwd_targets: list = []
        for label_id in range(len(labels_by_id)):
            additions = delta_by_label.get(label_id)
            if label_id >= old_m:
                # A label first used by the delta: its rows are all new.
                fwd_off, fwd_tgt, bwd_off, bwd_tgt = csr_pair(additions, n)
            elif additions is None:
                # Untouched label: share the targets; extend the offsets
                # only if nodes were appended (degree 0 for all of them).
                fwd_off = _extend_offsets(self.fwd_offsets[label_id], old_n, n)
                bwd_off = _extend_offsets(self.bwd_offsets[label_id], old_n, n)
                fwd_tgt = self.fwd_targets[label_id]
                bwd_tgt = self.bwd_targets[label_id]
            else:
                fwd_off, fwd_tgt = _merge_csr(
                    self.fwd_offsets[label_id],
                    self.fwd_targets[label_id],
                    old_n,
                    n,
                    sorted(additions),
                )
                bwd_off, bwd_tgt = _merge_csr(
                    self.bwd_offsets[label_id],
                    self.bwd_targets[label_id],
                    old_n,
                    n,
                    sorted((end, origin) for origin, end in additions),
                )
            fwd_offsets.append(fwd_off)
            fwd_targets.append(fwd_tgt)
            bwd_offsets.append(bwd_off)
            bwd_targets.append(bwd_tgt)

        # Always a plain in-memory index, even when refreshing a subclass
        # (e.g. a storage-layer mapped index): the merged arrays are heap
        # arrays, not views into the source file.
        refreshed = GraphIndex(
            graph_uid=graph.uid,
            graph_version=graph.version,
            nodes_by_id=nodes_by_id,
            labels_by_id=tuple(labels_by_id),
            node_ids=node_ids,
            label_ids=label_ids,
            fwd_offsets=fwd_offsets,
            fwd_targets=fwd_targets,
            bwd_offsets=bwd_offsets,
            bwd_targets=bwd_targets,
            edge_count=self.edge_count + len(delta_edges),
        )
        refreshed.build_seconds = perf_counter() - started
        return refreshed

    # -- accessors -----------------------------------------------------------

    def is_current(self, graph: GraphDB) -> bool:
        """Whether this index still reflects the given graph's state."""
        return graph.uid == self.graph_uid and graph.version == self.graph_version

    def node_id(self, node: Node) -> int | None:
        """The int id of ``node``, or None if it is not indexed."""
        return self.node_ids.get(node)

    @property
    def node_ids(self) -> dict[Node, int]:
        """``node -> id``, the inverse of :attr:`nodes_by_id`.

        Built on first use when the constructor was not handed one (a
        snapshot load): a daemon that only answers path queries never
        looks a node up by name, and is spared a dict the size of the node
        table.
        """
        node_ids = self._node_ids
        if node_ids is None:
            node_ids = self._node_ids = {node: i for i, node in enumerate(self.nodes_by_id)}
        return node_ids

    @property
    def rank(self):
        """Each node id's position in ``repr`` order (:func:`repr_rank`).

        Built on first use and kept for the index's lifetime; a refresh
        makes a new index and with it a new rank.  Two threads racing to
        the first use build equal ranks and one of them is kept.
        """
        rank = self._rank
        if rank is None:
            rank = self._rank = repr_rank(self.nodes_by_id, self.id_typecode)
        return rank

    @property
    def out_label_masks(self) -> list[int]:
        """``masks[node_id]``: bit ``l`` is set iff the node has an out-edge
        labelled ``l``.  Built on first use, like :attr:`rank`; only the
        learner's path enumeration reads it."""
        masks = self._out_label_masks
        if masks is None:
            masks = self._out_label_masks = out_label_masks(self.bwd_targets, self.num_nodes)
        return masks

    @property
    def id_typecode(self) -> str:
        """The narrowest :mod:`array` typecode (numpy takes it too) that holds
        every node id: an answer of this index is an array of it."""
        n = self.num_nodes
        return "H" if n <= 1 << 16 else "I" if n <= 1 << 32 else "q"

    def label_edge_counts(self) -> list[int]:
        """Per-label edge counts (CSR degree stats).

        ``counts[label_id]`` is the number of edges carrying that label --
        the selectivity statistic the planner's kernel and pair-search
        choices read instead of walking the graph.
        """
        return [len(targets) for targets in self.fwd_targets]

    def successors_slice(self, label_id: int, node_id: int):
        """The targets of ``node_id``'s outgoing edges on ``label_id``."""
        offsets = self.fwd_offsets[label_id]
        return self.fwd_targets[label_id][offsets[node_id] : offsets[node_id + 1]]

    def predecessors_slice(self, label_id: int, node_id: int):
        """The origins of ``node_id``'s incoming edges on ``label_id``."""
        offsets = self.bwd_offsets[label_id]
        return self.bwd_targets[label_id][offsets[node_id] : offsets[node_id + 1]]

    def __repr__(self) -> str:
        return (
            f"GraphIndex(nodes={self.num_nodes}, labels={self.num_labels}, "
            f"edges={self.edge_count}, version={self.graph_version})"
        )


class Answer:
    """One monadic answer: the selected node ids of one index, ascending, in
    an array of the index's :attr:`~GraphIndex.id_typecode`.

    What a whole-graph walk returns, kept as it came: the result cache
    holds it, the service hands it to the reply, and names are made only
    at the end -- :meth:`in_repr_order` for a reply, :meth:`node_set` for a
    caller that wants the node set.  The set is kept only when it is made
    with the answer (``names=True``, what ``QueryEngine.evaluate`` asks
    for), so ``sys.getsizeof`` of an answer never changes: a cache charges
    it the id array plus that set, and never the shared index.
    """

    __slots__ = ("ids", "index", "_nodes")

    def __init__(self, ids, index: GraphIndex, *, names: bool = False) -> None:
        self.ids = ids
        self.index = index
        self._nodes = None
        if names:
            self._nodes = self.node_set()

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, node: Node) -> bool:
        node_id = self.index.node_ids.get(node)
        if node_id is None:
            return False
        position = bisect_left(self.ids, node_id)
        return position < len(self.ids) and self.ids[position] == node_id

    def __sizeof__(self) -> int:
        # The walks hand over arrays that own their buffer, which
        # ``sys.getsizeof`` counts (a numpy view's would not); the set's
        # names are the index's own objects, so its table is all it adds.
        size = object.__sizeof__(self) + sys.getsizeof(self.ids)
        return size if self._nodes is None else size + sys.getsizeof(self._nodes)

    def node_set(self) -> frozenset[Node]:
        """The selected nodes as a set of names."""
        if self._nodes is not None:
            return self._nodes
        return frozenset(map(self.index.nodes_by_id.__getitem__, self.ids.tolist()))

    def in_repr_order(self) -> list[Node]:
        """The selected nodes sorted by ``repr`` (ties by id), the display and
        wire order: one sort of their ranks and one take over the node table."""
        rank = self.index.rank
        np = load_numpy()
        if np:
            ids = np.asarray(self.ids)
            ordered = ids[np.argsort(rank[ids])].tolist()
        else:
            ordered = sorted(self.ids, key=rank.__getitem__)
        return list(map(self.index.nodes_by_id.__getitem__, ordered))

    def __repr__(self) -> str:
        return f"Answer({len(self.ids)} of {self.index.num_nodes} nodes)"


def csr_pair(
    edges: list[tuple[int, int]], n: int
) -> tuple[array, array, array, array]:
    """One label's canonical forward and backward CSR arrays.

    ``edges`` are int-encoded ``(origin, end)`` pairs in any order.  This is
    the single definition of the canonical form (each slice sorted
    ascending) that full builds, incremental refreshes and the bulk
    ingester must all agree on byte for byte.
    """
    forward = sorted(edges)
    fwd_off, fwd_tgt = _csr(forward, n)
    backward = sorted((end, origin) for origin, end in forward)
    bwd_off, bwd_tgt = _csr(backward, n)
    return fwd_off, fwd_tgt, bwd_off, bwd_tgt


def _csr(pairs: list[tuple[int, int]], n: int) -> tuple[array, array]:
    """CSR arrays for one label from ``(key, value)`` pairs sorted by pair.

    Because the input is sorted, the flat targets array is simply the values
    in order and each key's slice comes out ascending (canonical form).
    """
    offsets = array("l", [0] * (n + 1))
    for key, _ in pairs:
        offsets[key + 1] += 1
    for i in range(1, n + 1):
        offsets[i] += offsets[i - 1]
    targets = array("l", [0] * len(pairs))
    for position, (_, value) in enumerate(pairs):
        targets[position] = value
    return offsets, targets


def _extend_offsets(offsets, old_n: int, n: int):
    """Offsets grown from ``old_n + 1`` to ``n + 1`` entries (0-degree tail)."""
    if n == old_n:
        return offsets
    grown = array("l", offsets)
    grown.extend([offsets[old_n]] * (n - old_n))
    return grown


def _merge_csr(
    old_offsets, old_targets, old_n: int, n: int, additions: list[tuple[int, int]]
) -> tuple[array, array]:
    """One label's CSR with ``additions`` (sorted ``(key, value)`` pairs) merged in.

    Re-derives the offsets from per-key degrees and splices the new values
    into the flat targets array with bulk slice copies between affected
    keys, keeping every slice sorted -- byte-identical to a full rebuild.
    """
    add_by_key: dict[int, list[int]] = {}
    for key, value in additions:
        add_by_key.setdefault(key, []).append(value)

    # Per-key degrees via C-speed iterator pairs (the pure-Python loop here
    # dominated refresh time on 10k+ node graphs).
    high = iter(old_offsets)
    next(high)
    degrees = list(map(sub, high, old_offsets))
    if n > old_n:
        degrees.extend([0] * (n - old_n))
    for key, values in add_by_key.items():
        degrees[key] += len(values)
    offsets = array("l", chain((0,), accumulate(degrees)))

    if not isinstance(old_targets, array):
        old_targets = array("l", old_targets)
    old_len = len(old_targets)
    targets = array("l", bytes(offsets[-1] * offsets.itemsize))
    write = read = 0
    for key in sorted(add_by_key):
        old_start = old_offsets[key] if key < old_n else old_len
        old_stop = old_offsets[key + 1] if key < old_n else old_len
        chunk = old_targets[read:old_start]
        targets[write : write + len(chunk)] = chunk
        write += len(chunk)
        merged = sorted(chain(old_targets[old_start:old_stop], add_by_key[key]))
        targets[write : write + len(merged)] = array("l", merged)
        write += len(merged)
        read = old_stop
    tail = old_targets[read:]
    targets[write : write + len(tail)] = tail
    return offsets, targets
