"""A state-backed proposal is the stateless proposal, draw for draw.

``SessionState`` keeps the unlabeled population (ascending ids, one deleted
per label), the verdict caches and one frontier memo per index, and the
strategies draw their candidates from that population with the RNG calls
``oracles.strategies.stateless_propose`` makes on its fresh node list.  The
property drives arbitrary streams of positive and negative labels, ``set_k``
moves, proposals and graph mutations (each one refreshes the index
mid-stream) and checks that

* ``kR``, ``kS`` and ``random`` backed by the state propose, with equal
  seeds, exactly the nodes ``stateless_propose`` proposes -- at
  ``pool_size`` None, below the graph's size and at or above it;
* after every label the kept population equals
  ``[n for n in graph.node_order if n not in sample.labeled]``.

Tier-1 replays one fixed stream of examples; the nightly job runs this
module under the ``nightly`` Hypothesis profile (``tests/conftest.py``):
5,000 random ones.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from oracles.strategies import stateless_propose

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.interactive import SessionState, make_strategy
from repro.learning import Sample

NIGHTLY = settings.default.max_examples >= 5_000

NODES = 14
#: ``None``, below the graph's size, and at or above it (mutations add nodes).
POOL_SIZES = {"full scan": None, "small": 4, "large": NODES}
KINDS = ["propose"] * 4 + ["label"] * 3 + ["k"] + ["mutate"] * 2
OP = st.tuples(st.sampled_from(KINDS), st.integers(0, 40), st.integers(0, 40))


def population(graph, sample) -> list:
    return [node for node in graph.node_order if node not in sample.labeled]


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 400)
)
@given(
    graph_seed=st.integers(0, 30),
    name=st.sampled_from(["kR", "kS", "random"]),
    pool=st.sampled_from(sorted(POOL_SIZES)),
    seed=st.integers(0, 1_000),
    ops=st.lists(OP, min_size=1, max_size=40),
)
def test_state_backed_proposals_equal_stateless_ones(graph_seed, name, pool, seed, ops):
    graph = scale_free_graph(NODES, edge_factor=1.5, alphabet="abc", seed=graph_seed)
    state = SessionState(graph, k=2, engine=QueryEngine())
    backed = make_strategy(name, seed=seed, pool_size=POOL_SIZES[pool])
    stateless = make_strategy(name, seed=seed, pool_size=POOL_SIZES[pool])
    sample, proposed = Sample(), None
    for kind, a, b in ops:
        if kind == "propose":
            proposed = backed.propose(graph, sample, k=state.k, state=state)
            assert proposed == stateless_propose(stateless, graph, sample, k=state.k)
        elif kind == "label":
            unlabeled = population(graph, sample)
            if not unlabeled:
                continue
            node = proposed if proposed in unlabeled and a % 2 else unlabeled[a % len(unlabeled)]
            label = "+" if b % 3 == 0 else "-"
            sample = sample.with_example(node, label)
            state.observe(node, label, sample)
            assert [*state.nodes_of(state.unlabeled_ids())] == population(graph, sample)
        elif kind == "k":
            state.set_k(a % 4)
        else:  # a new edge, now and then to a new node: the index refreshes
            # Half of them leave a negative: a memoised step of the old index
            # would then be wrong on the new one.
            origins = sorted(sample.negatives) if a % 2 and sample.negatives else graph.node_order
            graph.add_edge(origins[a % len(origins)], "abc"[b % 3], f"x{b % 5}")
    assert backed.rng_state() == stateless.rng_state()
