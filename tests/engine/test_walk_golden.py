"""The python product walks' answers *and work*, pinned from one commit to the next.

The other engine suites compare the python walks with the numpy twins and
one automaton representation with another, at a single commit.  None of
them notices if every walk does more (or less) work after a change, as long
as all of them change alike.  This module replays a fixed population --
seeded random graphs x the parity suite's expressions and a few mid-merge
folds -- through every python entry point of :mod:`repro.engine.executor`
and compares, call by call, with ``walk_golden.json``:

* :func:`~repro.engine.executor.any_selects`: a start sample, with and
  without ``end``, ``max_depth`` in ``None``/0/1/3, ``witness`` and
  ``rare_first`` -- the verdict or witness word and ``KernelStats.mark()``;
* :func:`~repro.engine.executor.evaluate_all` at each ``max_depth``: the
  selected ids, ``depth_sizes`` and the counters;
* :func:`~repro.engine.executor.binary_evaluate`: the pairs and counters;
* :func:`~repro.engine.executor.bidirectional_pair_selects`: a few
  ``(origin, end)`` pairs, plain and ``rare_first`` -- verdict and counters.

An early-exit walk's counters depend on the order it expands pairs and
moves, so this is what "the same walk" means for a refactor.  Regenerate the
file only for an intended change of that work, from the commit whose work is
the reference::

    PYTHONPATH=src:tests python tests/engine/test_walk_golden.py > tests/engine/walk_golden.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest
from test_engine_parity import EXPRESSIONS, random_graph
from test_walk_matrix import mid_merge_fold

from repro.engine import executor
from repro.engine.executor import KernelStats
from repro.engine.index import GraphIndex
from repro.graphdb import GraphDB
from repro.queries.path_query import PathQuery

GOLDEN = Path(__file__).with_name("walk_golden.json")
LABELS = ["a", "b", "c"]
CASES = [*EXPRESSIONS, *(f"fold:{seed}" for seed in range(3))]
SEEDS = range(16)
DEPTHS = (None, 0, 1, 3)


def seeded_graph(seed: int) -> GraphDB:
    """The parity suite's small random graphs, and every fourth seed a wider
    one (up to 40 nodes, 160 edges) so that walks run several layers deep."""
    rng = random.Random(seed)
    if seed % 4:
        return random_graph(rng, LABELS)
    graph = GraphDB(LABELS)
    node_count = rng.randint(24, 40)
    for _ in range(rng.randint(node_count, 4 * node_count)):
        graph.add_edge(rng.randrange(node_count), rng.choice(LABELS), rng.randrange(node_count))
    return graph


def automaton(case: str):
    if case.startswith("fold:"):
        return mid_merge_fold(int(case.removeprefix("fold:")))
    return PathQuery.parse(case, LABELS).table


def record(index: GraphIndex, case: str, rng: random.Random) -> dict[str, list]:
    """Each entry point's calls in a fixed order: ``[answer, mark]`` per call,
    ``[answer, depth_sizes, mark]`` for :func:`evaluate_all`; a binary answer
    lists each source's ends."""
    query = automaton(case)
    n = index.num_nodes
    starts = sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    calls: dict[str, list] = {"starts": starts, "pairs": pairs}

    def run(walk, *args, **options):
        stats = KernelStats()
        answer = walk(index, query, *args, stats, **options)
        calls.setdefault(walk.__name__, []).append([answer, stats.mark()])
        return calls[walk.__name__][-1]

    for end in (None, pairs[0][1]):
        for depth in DEPTHS:
            for witness in (False, True):
                for rare_first in (False, True):
                    run(
                        executor.any_selects,
                        starts,
                        end=end,
                        max_depth=depth,
                        witness=witness,
                        rare_first=rare_first,
                    )
    for depth in DEPTHS:
        depths: list[int] = []
        entry = run(executor.evaluate_all, max_depth=depth, depth_sizes=depths)
        entry[0:1] = [entry[0].tolist(), depths]
    entry = run(executor.binary_evaluate)
    ends: dict[int, list[int]] = {}
    for source, end in sorted(entry[0]):
        ends.setdefault(source, []).append(end)
    entry[0] = sorted(ends.items())
    for origin, end in pairs:
        for rare_first in (False, True):
            run(executor.bidirectional_pair_selects, origin, end, rare_first=rare_first)
    return calls


def population(seed: int) -> dict[str, dict]:
    """One seed's records, keyed ``"seed:case"``, JSON-normalised."""
    index = GraphIndex.build(seeded_graph(seed))
    records = {}
    for case in CASES:
        key = f"{seed}:{case}"
        records[key] = json.loads(json.dumps(record(index, case, random.Random(key))))
    return records


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_the_walks_do_the_recorded_work(golden, seed):
    for key, calls in population(seed).items():
        recorded = golden[key]
        assert calls.keys() == recorded.keys(), key
        for walk, entries in calls.items():
            assert len(entries) == len(recorded[walk]), (key, walk)
            for number, (got, expected) in enumerate(zip(entries, recorded[walk])):
                assert got == expected, (key, walk, number)


def test_the_golden_file_covers_the_population(golden):
    assert sorted(golden) == sorted(f"{seed}:{case}" for seed in SEEDS for case in CASES)


if __name__ == "__main__":
    entries = {key: calls for seed in SEEDS for key, calls in population(seed).items()}
    sys.stdout.write(
        "{\n"
        + ",\n".join(f"{json.dumps(key)}: {json.dumps(calls)}" for key, calls in entries.items())
        + "\n}\n"
    )
