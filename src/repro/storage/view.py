"""A frozen, graph-shaped view over a prebuilt CSR index.

:class:`GraphView` lets a snapshot (or any ready
:class:`~repro.engine.index.GraphIndex`) be used wherever a
:class:`~repro.graphdb.graph.GraphDB` is expected -- queries, workspaces,
experiment drivers -- without rebuilding adjacency dictionaries.  It
answers the graph's read API (membership, node and label order, edges)
straight from the CSR arrays and advertises the index via
``prebuilt_index``, which :meth:`QueryEngine.index_for
<repro.engine.engine.QueryEngine.index_for>` adopts instead of building.

The view is *frozen*: it shares the index's ``(uid, version)`` identity,
and mutating it raises :class:`~repro.errors.GraphError`.  Call
:meth:`GraphView.thaw` for a fully mutable :class:`GraphDB` copy (a fresh
graph identity with its own registries).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.automata.alphabet import Alphabet
from repro.engine.index import GraphIndex
from repro.errors import GraphError
from repro.graphdb.graph import Edge, GraphDB, Node

_FROZEN = (
    "this graph is a frozen snapshot view; call .thaw() for a mutable GraphDB copy"
)


class GraphView:
    """A read-only graph API over a :class:`GraphIndex` (mapped or built)."""

    def __init__(self, index: GraphIndex) -> None:
        self._index = index
        self._edges: frozenset[Edge] | None = None
        self._alphabet: Alphabet | None = None
        # One set for the view's lifetime: the planner keys every plan by it.
        self._labels = frozenset(index.labels_by_id)

    # -- identity (shared with the index, so the engine adopts it) ----------

    @property
    def prebuilt_index(self) -> GraphIndex:
        """The ready CSR index the query engine consumes unchanged."""
        return self._index

    @property
    def uid(self) -> int:
        return self._index.graph_uid

    @property
    def version(self) -> int:
        return self._index.graph_version

    @property
    def content_uid(self) -> tuple | None:
        """The snapshot's stable (path, checksum) identity, if mapped.

        Heap-built indexes have no content identity and return ``None``;
        the engine then falls back to the process-minted ``uid``.
        """
        return getattr(self._index, "content_uid", None)

    # -- read API ------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self._index.nodes_by_id)

    @property
    def node_order(self) -> tuple[Node, ...]:
        return self._index.nodes_by_id

    @property
    def label_order(self) -> tuple[str, ...]:
        return self._index.labels_by_id

    def labels(self) -> frozenset[str]:
        return self._labels

    def _declared_alphabet(self) -> list[str] | None:
        # Snapshots persist a graph's declared (fixed) alphabet in their
        # meta JSON; honor it so the view parses the same query set.
        meta = getattr(self._index, "meta", None)
        declared = meta.get("alphabet") if isinstance(meta, dict) else None
        if isinstance(declared, list) and all(isinstance(s, str) for s in declared):
            return declared
        return None

    @property
    def has_fixed_alphabet(self) -> bool:
        return self._declared_alphabet() is not None

    @property
    def alphabet(self) -> Alphabet:
        if self._alphabet is None:
            declared = self._declared_alphabet()
            if declared is not None:
                self._alphabet = Alphabet(declared)
            elif self._index.labels_by_id:
                self._alphabet = Alphabet(self._index.labels_by_id)
            else:
                raise GraphError("the graph has no labels and no declared alphabet")
        return self._alphabet

    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges is None:
            self._edges = frozenset(self.iter_edges())
        return self._edges

    def iter_edges(self) -> Iterator[Edge]:
        """Yield every edge by walking the forward CSR (no materialization)."""
        index = self._index
        nodes_by_id = index.nodes_by_id
        for label_id, label in enumerate(index.labels_by_id):
            offsets = index.fwd_offsets[label_id]
            targets = index.fwd_targets[label_id]
            for node_id in range(index.num_nodes):
                origin = nodes_by_id[node_id]
                for target_id in targets[offsets[node_id] : offsets[node_id + 1]]:
                    yield (origin, label, nodes_by_id[target_id])

    def node_count(self) -> int:
        return self._index.num_nodes

    def edge_count(self) -> int:
        return self._index.edge_count

    def __len__(self) -> int:
        return self._index.num_nodes

    def __contains__(self, node: object) -> bool:
        return node in self._index.node_ids

    def __repr__(self) -> str:
        return (
            f"GraphView(nodes={self._index.num_nodes}, edges={self._index.edge_count}, "
            "frozen)"
        )

    def has_edge(self, origin: Node, label: str, end: Node) -> bool:
        index = self._index
        origin_id = index.node_ids.get(origin)
        end_id = index.node_ids.get(end)
        label_id = index.label_ids.get(label)
        if origin_id is None or end_id is None or label_id is None:
            return False
        return end_id in index.successors_slice(label_id, origin_id)

    # -- freezing and thawing --------------------------------------------------

    def thaw(self) -> GraphDB:
        """A fully mutable :class:`GraphDB` with this view's content.

        The copy is a *new* graph identity (fresh uid, version counting
        from its construction), inserted in the view's stable node order so
        derived indexes number nodes identically.  A declared alphabet
        carried by the snapshot stays declared on the copy.
        """
        graph = GraphDB(self._declared_alphabet())
        graph.add_nodes(self.node_order)
        graph.add_edges(self.iter_edges())
        return graph

    def copy(self) -> GraphDB:
        """Alias of :meth:`thaw` (mirrors :meth:`GraphDB.copy`)."""
        return self.thaw()

    # -- refused mutations -----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        raise GraphError(_FROZEN)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        raise GraphError(_FROZEN)

    def add_edge(self, origin: Node, label: str, end: Node) -> Edge:
        raise GraphError(_FROZEN)

    def add_edges(self, edges: Iterable[tuple[Node, str, Node]]) -> None:
        raise GraphError(_FROZEN)
