"""Raw nondeterministic NFAs at the engine's door, against the reference.

The engine int-codes a raw ``NFA`` once (``TableDFA.from_nfa``: subset
construction) and walks the table; the reference product construction in
``tests/oracles/product.py`` walks the NFA itself, nondeterminism and all.
On a seeded population of epsilon-free NFAs that each have a state with two
successors on one symbol, the raw NFA, its determinised table and the
reference must agree on all five entry points, for every planner mode and
backend -- and every witness must be a real, accepted, shortest path.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from oracles.product import (
    reference_any_node_selects,
    reference_binary_evaluate,
    reference_evaluate,
    reference_node_selects,
    reference_pair_selects,
)

from repro.automata.kernel import TableDFA
from repro.automata.nfa import NFA
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine, have_numpy
from repro.graphdb.paths import covered_by

NFA_COUNT = 200
CONFIGS = [
    (planner, backend)
    for planner in ("auto", "off")
    for backend in (("python", "numpy") if have_numpy() else ("python",))
]


@cache
def graph():
    """A 200-node scale-free graph over four Zipf-weighted labels."""
    return scale_free_graph(200, edge_factor=1.5, alphabet_size=4, seed=17)


def random_nfa(rng: random.Random, labels: list[str], alphabet) -> NFA:
    """A seeded epsilon-free NFA that is genuinely nondeterministic."""
    size = rng.randint(3, 5)
    initial = rng.sample(range(size), rng.randint(1, 2))
    # Mostly keep the empty word out, so that answers depend on the graph.
    others = [s for s in range(size) if s not in initial or rng.random() < 0.1]
    nfa = NFA(
        alphabet,
        states=range(size),
        initial=initial,
        finals=rng.sample(others, rng.randint(1, min(2, len(others)))),
    )
    for _ in range(rng.randint(size, 3 * size)):
        nfa.add_transition(rng.randrange(size), rng.choice(labels), rng.randrange(size))
    # The fork that makes it an NFA: one state, one symbol, two targets.
    source, symbol = rng.randrange(size), rng.choice(labels)
    for target in rng.sample(range(size), 2):
        nfa.add_transition(source, symbol, target)
    assert len(nfa.successors(source, symbol)) >= 2 and not nfa.has_epsilon_transitions
    return nfa


def shortest_accepted_length(nfa: NFA, nodes) -> int | None:
    """Length of a shortest accepted word labelling a path from ``nodes``
    (layered BFS over the object-level product; independent of the engine)."""
    finals = nfa.final_states
    level = {(node, state) for node in nodes for state in nfa.initial_states}
    seen = set(level)
    depth = 0
    while level:
        if any(state in finals for _, state in level):
            return depth
        depth += 1
        grown = set()
        for node, state in level:
            for symbol in graph().labels():
                for target_state in nfa.successors(state, symbol):
                    for target_node in graph().successors(node, symbol):
                        pair = (target_node, target_state)
                        if pair not in seen:
                            seen.add(pair)
                            grown.add(pair)
        level = grown
    return None


@pytest.mark.parametrize("planner, backend", CONFIGS)
def test_raw_nfa_table_and_reference_agree(planner, backend):
    db = graph()
    labels = sorted(db.labels())
    nodes = sorted(db.nodes)
    rng = random.Random(2015)
    # One engine per way in, so the second form is never a result-cache hit.
    engines = {form: QueryEngine(planner=planner, backend=backend) for form in ("nfa", "table")}
    for number in range(NFA_COUNT):
        nfa = random_nfa(rng, labels, db.alphabet)
        forms = {"nfa": nfa, "table": TableDFA.from_nfa(nfa)[0]}
        sample = rng.sample(nodes, 4)
        expected_nodes = reference_evaluate(db, nfa)
        expected_pairs = reference_binary_evaluate(db, nfa)
        shortest = shortest_accepted_length(nfa, sample)
        assert (shortest is not None) == reference_any_node_selects(db, nfa, sample)
        for form, query in forms.items():
            engine = engines[form]
            # Early-exit searches first: afterwards the result cache answers.
            for node in sample:
                assert engine.selects(db, query, node) == reference_node_selects(db, nfa, node)
            for origin in sample[:2]:
                for end in sample:
                    assert engine.pair_selects(db, query, origin, end) == reference_pair_selects(
                        db, nfa, origin, end
                    ), (number, form, origin, end)
            word = engine.any_selects(db, query, sample, witness=True)
            if shortest is None:
                assert word is None, (number, form)
            else:
                assert len(word) == shortest, (number, form, word)
                assert nfa.accepts(word) and covered_by(db, word, sample)
            assert engine.evaluate(db, query) == expected_nodes, (number, form)
            assert engine.binary_evaluate(db, query) == expected_pairs, (number, form)
