"""The edge-labeled directed graph database.

Nodes are arbitrary hashable identifiers (strings in all the paper's
examples).  Edges are triples ``(origin, label, end)``; parallel edges with
different labels are allowed, duplicate triples are stored once (the paper's
``E`` is a set).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator

from repro.automata.alphabet import Alphabet
from repro.errors import GraphError

Node = Hashable
Edge = tuple[Node, str, Node]

#: Process-wide source of unique graph identifiers (see :attr:`GraphDB.uid`).
_GRAPH_UIDS = itertools.count()


def mint_graph_uid() -> int:
    """A fresh process-wide graph uid (for graph-like objects that are not
    :class:`GraphDB` instances, e.g. snapshot-backed views)."""
    return next(_GRAPH_UIDS)


class GraphDB:
    """A finite, directed, edge-labeled graph database.

    Parameters
    ----------
    alphabet:
        The edge-label alphabet.  It may be given up front (an
        :class:`Alphabet` or an iterable of labels); if omitted, it grows
        automatically as edges with new labels are added.
    """

    def __init__(self, alphabet: Alphabet | Iterable[str] | None = None) -> None:
        if alphabet is None:
            self._alphabet: Alphabet | None = None
            self._fixed_alphabet = False
        elif isinstance(alphabet, Alphabet):
            self._alphabet = alphabet
            self._fixed_alphabet = True
        else:
            self._alphabet = Alphabet(alphabet)
            self._fixed_alphabet = True
        # Insertion-ordered node registry (dict keys): iteration order is the
        # *stable node order* -- deterministic across processes and hash
        # seeds, unlike set iteration or repr-sorting (a default object repr
        # embeds the memory address).
        self._nodes: dict[Node, None] = {}
        self._node_order: tuple[Node, ...] | None = None  # cache; dropped on insertion
        # Insertion-ordered edge registry (dict keys), like nodes and labels:
        # replaying it (copy) preserves the stable node/label
        # orders, so derived artifacts (CSR indexes, edge-list renderings,
        # snapshots) are hash-seed independent.  Neither registry ever loses
        # an entry, so the mutations since an older version are their tails
        # (see :meth:`repro.engine.index.GraphIndex.refresh`).
        self._edges: dict[Edge, None] = {}
        # Insertion-ordered label registry (dict keys), mirroring the node
        # registry: iteration order is the *stable label order*.
        self._labels: dict[str, None] = {}
        self._uid: int = next(_GRAPH_UIDS)
        self._version: int = 0

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Add a node (idempotent) and return it."""
        if node is None:
            raise GraphError("None is not a valid node identifier")
        if node not in self._nodes:
            self._nodes[node] = None
            self._node_order = None
            self._version += 1
        return node

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add several nodes."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, origin: Node, label: str, end: Node) -> Edge:
        """Add the edge ``origin --label--> end`` (adding missing endpoints)."""
        if not isinstance(label, str) or not label:
            raise GraphError(f"invalid edge label: {label!r}")
        if self._fixed_alphabet and self._alphabet is not None and label not in self._alphabet:
            raise GraphError(f"label {label!r} is not in the graph's alphabet")
        self.add_node(origin)
        self.add_node(end)
        edge = (origin, label, end)
        if edge not in self._edges:
            self._edges[edge] = None
            self._version += 1
            if label not in self._labels:
                self._labels[label] = None
                if not self._fixed_alphabet:
                    self._alphabet = None  # invalidate the cached derived alphabet
        return edge

    def add_edges(self, edges: Iterable[tuple[Node, str, Node]]) -> None:
        """Add several ``(origin, label, end)`` edges."""
        for origin, label, end in edges:
            self.add_edge(origin, label, end)

    # -- accessors -----------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        """The edge-label alphabet (derived from the edges if not fixed)."""
        if self._alphabet is None:
            if not self._labels:
                raise GraphError("the graph has no labels and no declared alphabet")
            self._alphabet = Alphabet(self._labels)
        return self._alphabet

    @property
    def has_fixed_alphabet(self) -> bool:
        """Whether the alphabet was declared up front (vs. derived from edges).

        A fixed alphabet is part of the graph's semantics -- it constrains
        which queries parse -- so durable artifacts (snapshots) persist it.
        """
        return self._fixed_alphabet

    @property
    def uid(self) -> int:
        """A process-wide unique identifier of this graph instance.

        Two distinct :class:`GraphDB` objects never share a uid -- copies,
        deepcopies and unpickled graphs all mint fresh ones (see
        ``__setstate__``) -- so ``(uid, version)`` is a sound cache key for
        derived structures such as the engine's indexes and result caches,
        unlike ``id(graph)``, which can be reused after garbage collection.
        """
        return self._uid

    @property
    def version(self) -> int:
        """A counter incremented by every mutation (node or edge insertion).

        Nothing is ever removed and each mutation adds exactly one node or
        one edge, so it always equals ``node_count() + edge_count()``.  The
        engine layer tags indexes and cached query results with the version
        they were computed at and refreshes or rebuilds them when it changes.
        """
        return self._version

    @property
    def nodes(self) -> frozenset[Node]:
        """The set of nodes."""
        return frozenset(self._nodes)

    @property
    def node_order(self) -> tuple[Node, ...]:
        """The nodes in their stable (insertion) order.

        Deterministic for a fixed construction sequence regardless of the
        process's hash seed, which makes it the canonical tie-breaking order
        for anything user-visible (e.g. the interactive strategies' random
        draws).
        """
        if self._node_order is None:
            self._node_order = tuple(self._nodes)
        return self._node_order

    @property
    def edges(self) -> frozenset[Edge]:
        """The set of ``(origin, label, end)`` edges."""
        return frozenset(self._edges)

    def iter_edges(self) -> Iterator[Edge]:
        """The ``(origin, label, end)`` edges in insertion order (no copy)."""
        return iter(self._edges)

    def node_count(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """The number of edges."""
        return len(self._edges)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The uid must never travel with the state: a deepcopy or unpickle
        # produces a distinct graph object, and letting it inherit the uid
        # would alias the two in every (uid, version)-keyed cache.
        del state["_uid"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._uid = next(_GRAPH_UIDS)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"GraphDB(nodes={len(self._nodes)}, edges={len(self._edges)})"

    def has_edge(self, origin: Node, label: str, end: Node) -> bool:
        """Whether the given edge is present."""
        return (origin, label, end) in self._edges

    def labels(self) -> frozenset[str]:
        """The set of labels actually used by edges."""
        return frozenset(self._labels)

    @property
    def label_order(self) -> tuple[str, ...]:
        """The edge labels in their stable (first-use) order.

        Like :attr:`node_order`, deterministic for a fixed construction
        sequence regardless of the hash seed; it is the canonical label
        numbering of the engine's CSR indexes, chosen so that labels first
        used by later mutations are *appended* -- which is what lets an
        incremental index refresh extend the label tables in place.
        """
        return tuple(self._labels)

    def copy(self) -> "GraphDB":
        """A deep copy of the graph."""
        other = GraphDB(self._alphabet if self._fixed_alphabet else None)
        other.add_nodes(self._nodes)
        other.add_edges(self._edges)
        return other

    # -- conversions ----------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, str, Node]],
        *,
        nodes: Iterable[Node] = (),
        alphabet: Alphabet | Iterable[str] | None = None,
    ) -> "GraphDB":
        """Build a graph from an iterable of edges (plus optional isolated nodes)."""
        graph = cls(alphabet)
        graph.add_nodes(nodes)
        graph.add_edges(edges)
        return graph
