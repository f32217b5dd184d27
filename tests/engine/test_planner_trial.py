"""The planner's trial, pinned by decision: what PR 23 replaced must not move.

Two fixtures were recorded **on the parent** of the PR that deleted
``engine/costs.py`` and the rewriter's fixpoint loop:

* ``dispatch_trial.json`` -- for five scale-free graphs (300 to 30k nodes,
  the benchmark's generator and seeds) and 300 ``A.B*.C`` expressions each:
  the numbers the cost model read (``seeds``, ``scan_work``, first-layer
  ``forward`` / ``backward``, the table's state count) and what
  ``cheapest(...)`` / ``choose_pair_strategy`` answered.  The planner's
  three predicates must reproduce every row.
* ``rewrite_trial.json`` -- digests of ``rewrite_table``'s outcome
  (rewrites, parity, table fingerprint) with ``max_passes=3`` over the
  3,000-input population of :func:`rewrite_population`; on the parent
  ``max_passes`` 1, 2, 3 and 10 gave the same outcome on every input.
"""

from __future__ import annotations

import json
import random
from array import array
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.automata.alphabet import Alphabet
from repro.automata.dfa import DFA
from repro.automata.kernel import NO_STATE, MergeFold, TableDFA, pta_table
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine, planner
from repro.engine.index import GraphIndex
from repro.engine.planner import rewrite_table
from repro.graphdb import GraphDB
from repro.queries import BinaryPathQuery, PathQuery
from repro.telemetry.profile import fingerprint_token

HERE = Path(__file__).parent
POPULATION_LABELS = ["a", "b", "c", "d", "e", "f"]


def random_expression(rng: random.Random, labels: list[str], depth: int = 3) -> str:
    """A seeded regular expression over ``labels`` (union, concatenation, star)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(labels)
    shape = rng.random()
    left = random_expression(rng, labels, depth - 1)
    if shape < 0.25:
        return f"({left})*"
    right = random_expression(rng, labels, depth - 1)
    return f"({left}+{right})" if shape < 0.6 else f"{left}.{right}"


def random_table(rng: random.Random, labels: list[str]) -> TableDFA:
    """A raw table as the engine's door int-codes one: dead and unreachable
    states, equivalent states, nothing trimmed or minimized."""
    n, m = rng.randint(1, 8), len(labels)
    trans = array(
        "i", [rng.randrange(n) if rng.random() < 0.4 else NO_STATE for _ in range(n * m)]
    )
    return TableDFA(Alphabet(labels), n=n, trans=trans, finals=rng.getrandbits(n))


def rewrite_population(count: int = 3000, seed: int = 23):
    """``(table, graph labels, canonical)`` triples: canonical query tables and
    raw tables alternate, each against a random subset of its alphabet."""
    rng = random.Random(seed)
    for position in range(count):
        labels = POPULATION_LABELS[: rng.randint(3, 6)]
        canonical = position % 2 == 0
        if canonical:
            table = PathQuery.parse(random_expression(rng, labels), labels).table
        else:
            table = random_table(rng, labels)
        keep = frozenset(label for label in labels if rng.random() < 0.75)
        yield table, keep, canonical


def outcome_digests(outcomes, chunk: int = 100) -> list[str]:
    """One digest per ``chunk`` outcomes of ``(rewrites, parity, table token)``."""
    digests, current = [], blake2b(digest_size=8)
    for position, outcome in enumerate(outcomes, start=1):
        record = (outcome.applied, outcome.parity, fingerprint_token(outcome.table.fingerprint()))
        current.update(repr(record).encode())
        if position % chunk == 0:
            digests.append(current.hexdigest())
            current = blake2b(digest_size=8)
    return digests


def load(name: str) -> dict:
    return json.loads((HERE / name).read_text())


# -- (1) the recorded dispatches ------------------------------------------------


def expression_stream(rng: random.Random, labels: list[str]):
    """``benchmarks/e2e/e2e_serve.expression_stream``: distinct ``A.B*.C``."""

    def label_class() -> str:
        picked = sorted(rng.sample(labels, rng.randint(1, 3)))
        return picked[0] if len(picked) == 1 else "(" + "+".join(picked) + ")"

    seen: set[str] = set()
    while True:
        expression = f"{label_class()}.{label_class()}*.{label_class()}"
        if expression not in seen:
            seen.add(expression)
            yield expression


CHOICES = {"p": "python", "n": "numpy", "f": "forward", "b": "bidirectional"}


class TestRecordedDispatches:
    def test_the_three_predicates_reproduce_every_row(self):
        graphs = load("dispatch_trial.json")["graphs"]
        assert [entry["nodes"] for entry in graphs] == [300, 1000, 3000, 10000, 30000]
        rows = 0
        for entry in graphs:
            nodes = entry["nodes"]
            for seeds, scan, forward, backward, states, monadic, binary, pair in entry["rows"]:
                assert planner.monadic_kernel(seeds, scan) == CHOICES[monadic]
                assert planner.binary_kernel(nodes, states, scan, forward) == CHOICES[binary]
                assert planner.pair_strategy(forward, backward) == CHOICES[pair]
                rows += 1
        assert rows == 1500

    def test_the_parent_split_is_the_recorded_one(self):
        # Guards the fixture itself: the numbers PR 23's issue quotes.
        graphs = load("dispatch_trial.json")["graphs"]
        numpy_rows = [sum(row[5] == "n" for row in entry["rows"]) for entry in graphs]
        assert numpy_rows == [0, 0, 122, 300, 300]
        for entry in graphs:
            assert 22 <= sum(row[7] == "f" for row in entry["rows"]) <= 25

    @pytest.mark.parametrize("position", [0, 1], ids=["300", "1000"])
    def test_the_inputs_are_read_off_index_and_table_as_recorded(self, position):
        entry = load("dispatch_trial.json")["graphs"][position]
        graph = scale_free_graph(
            entry["nodes"], alphabet_size=20, zipf_exponent=1.0, seed=entry["graph_seed"]
        )
        index = GraphIndex.build(graph)
        stream = expression_stream(random.Random(0), sorted(graph.labels()))
        for row in entry["rows"]:
            table = PathQuery.parse(next(stream), graph.alphabet).table
            forward, backward = planner.first_layer_costs(index, table)
            assert [
                planner.seed_count(index, table),
                planner.scan_work(index, table),
                forward,
                backward,
                table.n,
            ] == row[:5]
            assert planner.whole_graph_kernel(index, table, binary=False) == CHOICES[row[5]]
            assert planner.whole_graph_kernel(index, table, binary=True) == CHOICES[row[6]]
            inputs = planner.decision_inputs(index, table, binary=False)
            assert inputs == {
                "seeds": row[0],
                "scan_work": row[1],
                "first_layer": [forward, backward],
            }


# -- (2) the boundaries, by construction ----------------------------------------


class TestBoundaries:
    def test_monadic_break_even_sits_between_6666_and_6667_units(self):
        assert planner.NUMPY_CALL_WEIGHT / (1 - planner.NUMPY_ITEM_WEIGHT) == 5000 / 0.75
        for seeds, scan in ((6_666, 0), (0, 6_666), (3_333, 3_333)):
            assert planner.monadic_kernel(seeds, scan) == "python"
        for seeds, scan in ((6_667, 0), (0, 6_667), (3_333, 3_334)):
            assert planner.monadic_kernel(seeds, scan) == "numpy"

    def test_pair_rule_is_inclusive(self):
        assert planner.pair_strategy(5, 40) == "forward"  # forward * 8 == backward
        assert planner.pair_strategy(5, 39) == "bidirectional"
        assert planner.pair_strategy(0, 0) == "forward"

    def test_binary_tie_goes_to_python(self):
        # n=1000, k=4: one 1024-source chunk, a 4,096,000-byte mask -> 5,000 +
        # 8,192 fixed units; python costs 1000 + work, numpy 13,192 + work / 4:
        # level at work 16,256, and ``cheapest`` listed python first.
        assert planner.binary_mask(1000, 4) == (1, 1024 * 1000 * 4)
        assert planner.binary_kernel(1000, 4, 16_255, 1) == "python"
        assert planner.binary_kernel(1000, 4, 16_256, 1) == "python"
        assert planner.binary_kernel(1000, 4, 16_257, 1) == "numpy"
        # The work is scan * min(n, forward): a wide first layer is capped at n.
        assert planner.binary_kernel(1000, 4, 17, 5_000) == "numpy"
        assert planner.binary_kernel(1000, 4, 16, 5_000) == "python"


# -- (3) one gated round --------------------------------------------------------


def dead_branch_dfa() -> DFA:
    """``a.b*`` plus a dead branch and an unreachable state, never trimmed."""
    dfa = DFA(Alphabet(["a", "b"]), initial=0)
    dfa.add_transition(0, "a", 1)
    dfa.add_transition(1, "b", 1)
    dfa.add_final(1)
    dfa.add_transition(0, "b", 2)  # 2 leads nowhere
    dfa.add_transition(2, "a", 2)
    dfa.add_transition(3, "a", 1)  # 3 is unreachable
    return dfa


def two_label_graph() -> GraphDB:
    graph = GraphDB(["a", "b"])
    graph.add_edge(0, "a", 1)
    graph.add_edge(1, "b", 2)
    graph.add_edge(2, "b", 1)
    return graph


ZERO = {"trimmed": 0, "minimized": 0}


@pytest.fixture
def passes(monkeypatch):
    """Counts ``TableDFA.trimmed`` / ``minimized`` calls; compiling a query
    makes some, so a test zeroes the counts (``passes.update(ZERO)``) once its
    queries exist."""
    calls = dict(ZERO)
    for name in calls:
        original = getattr(TableDFA, name)

        def counted(self, _name=name, _original=original):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(TableDFA, name, counted)
    return calls


class TestOneGatedRound:
    def test_a_vouched_table_with_every_column_kept_runs_no_pass(self, passes):
        query = PathQuery.parse("a.b*+b.a", ["a", "b"])
        passes.update(ZERO)
        outcome = rewrite_table(query.table, ["a", "b", "c"], canonical=True)
        assert (outcome.parity, outcome.applied) == ("clean", ())
        assert outcome.table is query.table
        assert passes == ZERO
        # Unvouched, the same table gets the round (and comes back clean too).
        assert rewrite_table(query.table, ["a", "b", "c"]).parity == "clean"
        assert passes == {"trimmed": 2, "minimized": 1}

    def test_a_dropped_column_gets_the_round_whoever_vouches(self, passes):
        query = PathQuery.parse("a.b*+b.a", ["a", "b"])
        passes.update(ZERO)
        outcome = rewrite_table(query.table, ["a"], canonical=True)
        assert outcome.applied == ("restrict-alphabet", "prune-dead")
        assert outcome.parity == "verified" and outcome.table.n == 2
        assert passes == {"trimmed": 2, "minimized": 1}

    def test_the_engine_vouches_for_query_tables_only(self, passes):
        graph, labels = two_label_graph(), ["a", "b"]
        paths = [PathQuery.parse(text, labels) for text in ("a.b*", "b.b", "a.b")]
        pairs = [BinaryPathQuery.parse(text, labels) for text in ("a.b.b", "b*")]
        engine = QueryEngine(planner="auto")
        passes.update(ZERO)
        engine.evaluate(graph, paths[0])
        engine.selects(graph, paths[1], 1)
        engine.pair_selects(graph, pairs[0], 0, 2)
        engine.binary_evaluate(graph, pairs[1])
        assert engine.stats.plan_compilations == 4
        assert passes == ZERO
        # The bare table of a query is a raw automaton to the engine: it does
        # not know where it came from.
        engine.evaluate(graph, paths[2].table)
        assert passes == {"trimmed": 2, "minimized": 1}

    def test_a_raw_untrimmed_dfa_is_still_pruned_at_the_door(self):
        graph, dfa = two_label_graph(), dead_branch_dfa()
        engine = QueryEngine(planner="auto")
        assert engine.evaluate(graph, dfa) == {0}
        plan, report = engine._resolve_plan(graph, dfa)
        assert report["rewrites"] == ["prune-dead"]
        assert report["parity"] == "verified"
        assert report["states"] == {"before": 4, "after": 2} and plan.n == 2
        rewrites = {
            name: value
            for name, value in engine.telemetry.registry.snapshot().items()
            if name.startswith("engine_planner_rewrites_total")
        }
        assert rewrites == {'engine_planner_rewrites_total{rewrite="prune-dead"}': 1}
        assert QueryEngine(planner="off").evaluate(graph, dfa) == {0}

    def test_a_materialized_fold_is_not_vouched_for(self, passes):
        fold = MergeFold(pta_table(Alphabet(["a", "b"]), [("a", "b"), ("a",), ("b", "b")]))
        passes.update(ZERO)
        QueryEngine(planner="auto")._resolve_plan(two_label_graph(), fold)
        assert passes["minimized"] == 1

    def test_the_population_gets_the_parent_outcomes(self):
        # 3,000 inputs: the parent's fixpoint loop at max_passes 1, 2, 3 and
        # 10 agreed on every one; the single round must give the same tables.
        recorded = load("rewrite_trial.json")
        population = list(rewrite_population(recorded["count"], recorded["seed"]))
        gated = [
            rewrite_table(table, keep, canonical=canonical) for table, keep, canonical in population
        ]
        assert outcome_digests(gated, recorded["chunk"]) == recorded["digests"]
        ungated = [rewrite_table(table, keep) for table, keep, _ in population]
        assert outcome_digests(ungated, recorded["chunk"]) == recorded["digests"]
