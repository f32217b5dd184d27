"""Synthetic graph generation.

Section 5.1 of the paper describes a generator that "yields graphs of
varying size and similar to real-world graphs", specifically *scale-free*
graphs with a *Zipfian edge-label distribution* (following Koschmieder &
Leser's RPQ evaluation setup), with three times as many edges as nodes.
This module reimplements that generator:

* node degrees follow a preferential-attachment process, so a few hub nodes
  concentrate many edges (scale-free shape);
* edge labels are drawn from a Zipf distribution over the alphabet, so a few
  labels dominate and the tail is rare.

All randomness goes through an explicit :class:`random.Random` seed so that
experiments are reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import accumulate

from repro.errors import GraphError
from repro.graphdb.graph import GraphDB


def default_alphabet(size: int) -> list[str]:
    """The default synthetic alphabet: ``l00``, ``l01``, ... (sorted = index order)."""
    if size < 1:
        raise GraphError("alphabet size must be at least 1")
    width = max(2, len(str(size - 1)))
    return [f"l{i:0{width}d}" for i in range(size)]


def zipfian_label_weights(count: int, exponent: float = 1.0) -> list[float]:
    """Zipf weights ``1/rank^exponent`` for ``count`` labels (unnormalized)."""
    if count < 1:
        raise GraphError("label count must be at least 1")
    if exponent < 0:
        raise GraphError("Zipf exponent must be non-negative")
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def scale_free_graph(
    node_count: int,
    *,
    edge_factor: float = 3.0,
    alphabet: Sequence[str] | None = None,
    alphabet_size: int = 20,
    zipf_exponent: float = 1.0,
    label_weights: Sequence[float] | None = None,
    seed: int | random.Random = 0,
) -> GraphDB:
    """Generate a directed scale-free graph with Zipf-distributed edge labels.

    Parameters
    ----------
    node_count:
        Number of nodes (named ``n0000000`` .. in index order).
    edge_factor:
        Edges per node; the paper uses graphs with "a number of edges three
        times larger" than the number of nodes, i.e. ``edge_factor=3``.
    alphabet / alphabet_size:
        The edge-label alphabet (explicit sequence, or a size for the
        default ``l00..`` alphabet).
    zipf_exponent:
        Skew of the Zipf label distribution (0 = uniform), applied in
        alphabet order.  Ignored when ``label_weights`` is given.
    label_weights:
        Explicit (unnormalized) per-label frequencies, aligned with
        ``alphabet``; used by the AliBaba-like generator to reproduce the
        real dataset's very uneven relation frequencies.
    seed:
        Integer seed or a :class:`random.Random` instance.
    """
    if node_count < 2:
        raise GraphError("node_count must be at least 2")
    if edge_factor <= 0:
        raise GraphError("edge_factor must be positive")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    labels = list(alphabet) if alphabet is not None else default_alphabet(alphabet_size)
    if label_weights is not None:
        if len(label_weights) != len(labels):
            raise GraphError("label_weights must align with the alphabet")
        if any(weight <= 0 for weight in label_weights):
            raise GraphError("label_weights must be positive")
        weights = list(label_weights)
    else:
        weights = zipfian_label_weights(len(labels), zipf_exponent)
    # What ``rng.choices(weights=...)`` accumulates on every call, once: the
    # draws, and so the graph, are the same.
    cum_weights = list(accumulate(weights))

    node_names = [f"n{i:07d}" for i in range(node_count)]
    graph = GraphDB(labels)
    graph.add_nodes(node_names)

    edge_target = int(round(node_count * edge_factor))
    # Preferential attachment: targets are drawn from a repeated-endpoint
    # pool, so nodes that already have edges are more likely to gain more.
    endpoint_pool: list[int] = list(range(node_count))
    added = 0
    attempts = 0
    max_attempts = edge_target * 20
    while added < edge_target and attempts < max_attempts:
        attempts += 1
        origin_index = rng.randrange(node_count)
        # With probability 0.8 pick a preferential target, else a uniform one
        # (keeps the graph from collapsing onto a handful of hubs only).
        if endpoint_pool and rng.random() < 0.8:
            end_index = endpoint_pool[rng.randrange(len(endpoint_pool))]
        else:
            end_index = rng.randrange(node_count)
        if end_index == origin_index:
            continue
        label = rng.choices(labels, cum_weights=cum_weights, k=1)[0]
        origin, end = node_names[origin_index], node_names[end_index]
        if graph.has_edge(origin, label, end):
            continue
        graph.add_edge(origin, label, end)
        endpoint_pool.append(end_index)
        endpoint_pool.append(origin_index)
        added += 1
    return graph
