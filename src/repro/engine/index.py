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

Building the index is a counting sort per label: the edge set is encoded
once into int columns (label, and ``(origin << 32) | end`` codes), and each
label's codes are sorted and counted into its offsets and targets by numpy.
That is O(E log E + m * n) time for ``E`` edges, ``m`` labels and ``n``
nodes, with O(E + n) temporaries.  Every evaluation after that avoids the
per-call dict/frozenset churn of the reference product construction
(``tests/oracles/product.py``).  When the graph mutates, the index can
usually be *refreshed* (:meth:`GraphIndex.refresh`) from the tails of the
graph's node and edge registries instead of rebuilt: stable node/label
numbering means new nodes and labels are appended and only the labels
actually touched by the delta get new CSR arrays.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from time import perf_counter

import numpy as np

from repro.graphdb.graph import GraphDB, Node

#: The low half of a packed ``(origin << 32) | end`` edge code.
_LOW32 = 0xFFFFFFFF
#: The CSR arrays' ``array("l")`` item, as a numpy dtype.
_ITEMSIZE = array("l").itemsize
_DTYPE = f"i{_ITEMSIZE}"


def repr_rank(nodes: tuple[Node, ...], typecode: str):
    """``(rank, by_rank)``: ``rank[node_id]`` is the node's position in
    ``repr`` order, ties by id, and ``by_rank[position]`` the node there.

    Numpy arrays, of ``typecode`` and of objects.  Sorting ids by rank is
    sorting the nodes by ``repr``, without calling ``repr`` again, and a
    sorted run of ranks takes its names from ``by_rank`` in one gather.
    """
    reprs = list(map(repr, nodes))
    order = sorted(range(len(nodes)), key=reprs.__getitem__)  # stable: ties by id
    rank = np.empty(len(nodes), dtype=typecode)
    rank[order] = np.arange(len(nodes), dtype=typecode)
    # fromiter stores each node as one object, where ``np.array`` of a list
    # would spread same-length tuple names over a second axis.
    return rank, np.fromiter(map(nodes.__getitem__, order), dtype=object, count=len(nodes))


def out_label_masks(bwd_targets, n: int) -> list[int]:
    """Per node, the bit set of its out-edges' labels (plain ints), read off
    the backward CSR targets (each label's edge origins); vectorised when
    the bits fit an int64."""
    if len(bwd_targets) < 64:
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
        "_repr_order",
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
        self._repr_order = None
        self._out_label_masks = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, graph: GraphDB) -> "GraphIndex":
        """Snapshot the graph into CSR form (a counting sort per label)."""
        started = perf_counter()
        nodes_by_id = tuple(graph.node_order)
        node_ids = {node: index for index, node in enumerate(nodes_by_id)}
        labels_by_id = tuple(graph.label_order)
        label_ids = {label: index for index, label in enumerate(labels_by_id)}
        n = len(nodes_by_id)
        m = len(labels_by_id)

        # Encode the edges once, as int columns: label, and origin and end
        # packed into one code, ``(origin << 32) | end``.
        edges = tuple(graph.iter_edges())
        labels = map(label_ids.__getitem__, map(itemgetter(1), edges))
        origins = map(node_ids.__getitem__, map(itemgetter(0), edges))
        ends = map(node_ids.__getitem__, map(itemgetter(2), edges))
        # One stable sort by label (a radix sort on the narrowest dtype):
        # each label's codes are then a slice.
        count = len(edges)
        labels = np.fromiter(labels, np.min_scalar_type(m), count)
        codes = np.fromiter(origins, np.int64, count) << 32 | np.fromiter(ends, np.int64, count)
        codes = codes[labels.argsort(kind="stable")]
        bounds = np.bincount(labels, minlength=m).cumsum().tolist()
        per_label = [codes[lo:hi] for lo, hi in zip([0, *bounds], bounds)]

        rows = (csr_pair(label_codes, n) for label_codes in per_label)
        fwd_offsets, fwd_targets, bwd_offsets, bwd_targets = csr_columns(rows)
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

    def refresh(self, graph: GraphDB, *, max_ratio: float = 1.0) -> "GraphIndex | None":
        """A new index incorporating ``graph``'s mutations since this one.

        Merges the graph's new registry tails -- the nodes past
        ``num_nodes`` in its node order and the edges past ``edge_count`` in
        its edge order, which only ever grow -- into copies of the CSR
        arrays: new nodes and labels are appended (the stable orders
        guarantee a fresh build would number them identically), and only the
        labels actually touched by the delta get new arrays, their codes
        plus the delta's sorted afresh, while untouched labels share theirs
        with this index.  The result is byte-identical to
        ``GraphIndex.build(graph)``.

        Returns ``self`` when already current, or ``None`` when incremental
        maintenance is impossible or not worthwhile: a different graph, a
        graph without insertion-ordered registries (not a
        :class:`GraphDB`), or a delta of more than ``max_ratio`` of the
        indexed edge set (``version`` counts one per added node or edge),
        past which a full rebuild is cheaper.  The default is the measured
        break-even on 3k- to 30k-node graphs: a refresh still matched a
        rebuild at a 100 % delta.
        """
        if graph.uid != self.graph_uid:
            return None
        if graph.version == self.graph_version:
            return self
        if not isinstance(graph, GraphDB):
            return None
        if graph.version - self.graph_version > max(16, int(max_ratio * max(1, self.edge_count))):
            return None
        started = perf_counter()

        new_nodes = graph.node_order[self.num_nodes :]
        old_n, old_m = self.num_nodes, self.num_labels
        nodes_by_id = self.nodes_by_id + new_nodes
        node_ids = dict(self.node_ids)
        for offset, node in enumerate(new_nodes, start=old_n):
            node_ids[node] = offset
        n = len(nodes_by_id)

        labels_by_id = list(self.labels_by_id)
        label_ids = dict(self.label_ids)
        delta_by_label: dict[int, list[int]] = {}
        for origin, label, end in islice(graph.iter_edges(), self.edge_count, None):
            label_id = label_ids.get(label)
            if label_id is None:
                label_id = len(labels_by_id)
                label_ids[label] = label_id
                labels_by_id.append(label)
            delta_by_label.setdefault(label_id, []).append(node_ids[origin] << 32 | node_ids[end])

        rows = []
        old_rows = zip(self.fwd_offsets, self.fwd_targets, self.bwd_offsets, self.bwd_targets)
        for label_id, (fwd_off, fwd_tgt, bwd_off, bwd_tgt) in enumerate(old_rows):
            additions = delta_by_label.get(label_id)
            if additions is None:
                # Untouched label: share the targets; extend the offsets
                # only if nodes were appended (degree 0 for all of them).
                fwd_off, bwd_off = _extend_offsets(fwd_off, n), _extend_offsets(bwd_off, n)
                rows.append((fwd_off, fwd_tgt, bwd_off, bwd_tgt))
            else:
                # Re-sort the label, its indexed edges plus the delta's:
                # 1.5-7.5x a rebuild at 0.1-25 %.
                codes = np.concatenate((_np_codes(fwd_off, fwd_tgt), additions))
                rows.append(csr_pair(codes, n))
        # Labels first used by the delta: their rows are all new.
        rows += [csr_pair(delta_by_label[label_id], n) for label_id in range(old_m, len(label_ids))]
        fwd_offsets, fwd_targets, bwd_offsets, bwd_targets = csr_columns(rows)

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
            edge_count=graph.edge_count(),
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
    def repr_order(self):
        """``(rank, by_rank)`` of the node table (:func:`repr_rank`).

        Built on first use and kept for the index's lifetime; a refresh
        makes a new index and with it a new table.  Two threads racing to
        the first use build equal tables and one of them is kept.
        """
        order = self._repr_order
        if order is None:
            order = self._repr_order = repr_rank(self.nodes_by_id, self.id_typecode)
        return order

    @property
    def out_label_masks(self) -> list[int]:
        """``masks[node_id]``: bit ``l`` is set iff the node has an out-edge
        labelled ``l``.  Built on first use, like :attr:`repr_order`; only the
        learner's path walks (``NegativeCoverage``) read it."""
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
        wire order: one sort of their ranks and one take over the index's
        rank-ordered node table."""
        rank, by_rank = self.index.repr_order
        ranks = rank[np.asarray(self.ids)]
        ranks.sort()
        return by_rank[ranks].tolist()

    def complement(self) -> "Answer":
        """The index's nodes this answer does not select, as an answer."""
        n, typecode = self.index.num_nodes, self.index.id_typecode
        ids = np.setdiff1d(np.arange(n, dtype=typecode), self.ids, assume_unique=True)
        return Answer(ids, self.index)

    def overlap(self, other: "Answer") -> int:
        """How many nodes this answer and ``other``, an answer on the same
        graph version, both select."""
        return len(np.intersect1d(self.ids, other.ids, assume_unique=True))

    def __repr__(self) -> str:
        return f"Answer({len(self.ids)} of {self.index.num_nodes} nodes)"


def csr_pair(codes, n: int) -> tuple[array, array, array, array]:
    """One label's canonical forward and backward CSR arrays.

    ``codes`` are the label's edges packed as ``(origin << 32) | end`` ints,
    in any order: a list, an ``array("q")`` or a numpy int64 array.  This is
    the single definition of the canonical form (each slice sorted
    ascending) that full builds, incremental refreshes and the bulk
    ingester must all agree on byte for byte.  Sorting the codes sorts the
    edges by origin, then end; swapping the halves gives the backward
    order.  Time O(E log E + n), temporaries O(E + n).
    """
    forward = np.asarray(codes, dtype=np.int64)
    backward = (forward & _LOW32) << 32 | forward >> 32
    return (*_np_csr(forward, n), *_np_csr(backward, n))


def csr_columns(rows) -> tuple[list, list, list, list]:
    """Per-label :func:`csr_pair` rows as ``(fwd_offsets, fwd_targets,
    bwd_offsets, bwd_targets)``, one list per array kind."""
    columns: tuple[list, list, list, list] = ([], [], [], [])
    for row in rows:
        for column, csr in zip(columns, row):
            column.append(csr)
    return columns


def _np_codes(offsets, targets):
    """The packed codes of one label's forward CSR arrays, ascending: the
    inverse of :func:`csr_pair`'s forward half."""
    offsets = np.asarray(offsets, dtype=np.int64)
    origins = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    return origins << 32 | np.asarray(targets, dtype=np.int64)


def _np_csr(codes, n: int) -> tuple[array, array]:
    """CSR arrays from one direction's packed codes: a counting sort whose
    offsets and targets numpy writes straight into the ``array("l")``s."""
    codes = np.sort(codes)
    offsets = array("l", bytes((n + 1) * _ITEMSIZE))
    targets = array("l", bytes(len(codes) * _ITEMSIZE))
    np.cumsum(np.bincount(codes >> 32, minlength=n), out=np.frombuffer(offsets, _DTYPE)[1:])
    np.bitwise_and(codes, _LOW32, out=np.frombuffer(targets, _DTYPE))
    return offsets, targets


def _extend_offsets(offsets, n: int):
    """Offsets grown to ``n + 1`` entries (a 0-degree tail)."""
    old_n = len(offsets) - 1
    if n == old_n:
        return offsets
    grown = array("l", offsets)
    grown.extend([offsets[old_n]] * (n - old_n))
    return grown

