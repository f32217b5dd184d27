"""Unit tests for node-proposal strategies and the simulated-user oracle."""

import subprocess
import sys
import textwrap

import pytest

from repro.errors import InteractionError
from repro.interactive import (
    KInformativeRandomStrategy,
    KInformativeSmallestStrategy,
    QueryOracle,
    RandomStrategy,
    make_strategy,
)
from repro.interactive.informativeness import is_k_informative, uncovered_k_paths
from repro.learning import Sample
from repro.queries import PathQuery


class TestStrategyFactory:
    def test_known_names(self):
        assert make_strategy("kR").name == "kR"
        assert make_strategy("kS").name == "kS"
        assert make_strategy("random").name == "random"

    def test_unknown_name_raises(self):
        with pytest.raises(InteractionError):
            make_strategy("clever")

    def test_invalid_pool_size_raises(self):
        with pytest.raises(InteractionError):
            make_strategy("kR", pool_size=0)


class TestRandomStrategy:
    def test_proposes_unlabeled_node(self, g0, g0_sample):
        node = RandomStrategy(seed=1).propose(g0, g0_sample, k=2)
        assert node in g0.nodes
        assert node not in g0_sample.labeled

    def test_returns_none_when_everything_is_labeled(self, g0):
        sample = Sample(set(list(g0.nodes)[:4]), set(list(g0.nodes)[4:]))
        assert RandomStrategy(seed=1).propose(g0, sample, k=2) is None


class TestKInformativeStrategies:
    def test_kr_only_proposes_k_informative_nodes(self, g0):
        from repro.learning import Sample

        sample = Sample({"v3"}, {"v2"})
        strategy = KInformativeRandomStrategy(seed=3, pool_size=None)
        for _ in range(5):
            node = strategy.propose(g0, sample, k=3)
            assert node is not None
            assert is_k_informative(g0, sample, node, k=3)

    def test_ks_prefers_nodes_with_fewest_uncovered_paths(self, g0):
        from repro.learning import Sample

        sample = Sample({"v3"}, {"v2"})
        strategy = KInformativeSmallestStrategy(seed=0, pool_size=None)
        node = strategy.propose(g0, sample, k=3)
        assert node is not None
        count = uncovered_k_paths(g0, node, sample.negatives, k=3)
        for other in g0.nodes:
            if other in sample.labeled:
                continue
            other_count = uncovered_k_paths(g0, other, sample.negatives, k=3)
            if other_count > 0:
                assert count <= other_count

    def test_returns_none_when_no_informative_node_exists(self, certain_case):
        graph, sample, certain = certain_case
        # Label every node except the certain one; it has no uncovered path
        # beyond those of the positives... it does (path b), so instead label
        # everything: then no unlabeled node remains.
        full = sample
        for node in graph.nodes - sample.labeled:
            full = full.with_positive(node) if node == certain else full.with_negative(node)
        assert KInformativeRandomStrategy(seed=1).propose(graph, full, k=2) is None

    def test_determinism_with_same_seed(self, g0, g0_sample):
        left = KInformativeRandomStrategy(seed=7).propose(g0, g0_sample, k=2)
        right = KInformativeRandomStrategy(seed=7).propose(g0, g0_sample, k=2)
        assert left == right


class TestStableNodeOrder:
    """Regression: proposals depend on the graph's stable node order only.

    The old implementation sorted candidates by ``repr`` before drawing,
    which is unstable for nodes whose default repr embeds ``id()`` and, with
    equal reprs, silently fell back to the hash-seed-driven set iteration
    order.  Proposals must now be a function of (insertion order, seed).
    """

    _PROPOSE_SCRIPT = textwrap.dedent(
        """
        from repro.graphdb import GraphDB
        from repro.interactive import RandomStrategy, make_strategy
        from repro.learning import Sample

        graph = GraphDB()
        # String nodes hash-randomize between interpreter runs.
        for i in range(40):
            graph.add_edge(f"n{i:02d}", "a", f"n{(i + 1) % 40:02d}")
        sample = Sample(negatives={"n00"})
        print(RandomStrategy(seed=7).propose(graph, sample, k=2))
        print(make_strategy("kR", seed=7, pool_size=8).propose(graph, sample, k=2))
        print(make_strategy("kS", seed=7, pool_size=8).propose(graph, sample, k=2))
        """
    )

    def _proposals_under_hash_seed(self, hash_seed: str) -> str:
        import os
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        outcome = subprocess.run(
            [sys.executable, "-c", self._PROPOSE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return outcome.stdout

    def test_proposals_are_hash_seed_independent(self):
        runs = {self._proposals_under_hash_seed(seed) for seed in ("1", "2", "31337")}
        assert len(runs) == 1, runs

    def test_random_strategy_draws_from_insertion_order(self, g0):
        # Two graphs with the same insertion sequence propose identically;
        # repr plays no role (exercised with nodes sharing one repr).
        class Opaque:
            def __init__(self, key):
                self.key = key

            def __repr__(self):  # identical for every instance
                return "<opaque>"

        from repro.graphdb import GraphDB
        from repro.learning import Sample

        def build():
            graph = GraphDB()
            nodes = [Opaque(i) for i in range(12)]
            for left, right in zip(nodes, nodes[1:]):
                graph.add_edge(left, "a", right)
            return graph, nodes

        graph_a, nodes_a = build()
        graph_b, nodes_b = build()
        pick_a = RandomStrategy(seed=5).propose(graph_a, Sample(), k=2)
        pick_b = RandomStrategy(seed=5).propose(graph_b, Sample(), k=2)
        assert nodes_a.index(pick_a) == nodes_b.index(pick_b)


class TestQueryOracle:
    def test_labels_follow_the_goal(self, g0, abstar_c, engine):
        oracle = QueryOracle(abstar_c, engine=engine)
        assert oracle.label(g0, "v1") == "+"
        assert oracle.label(g0, "v2") == "-"

    def test_satisfied_only_when_selection_matches(self, g0, abstar_c, engine):
        oracle = QueryOracle(abstar_c, engine=engine)
        assert oracle.satisfied_with(g0, abstar_c)
        assert not oracle.satisfied_with(g0, PathQuery.parse("a", g0.alphabet))
        assert not oracle.satisfied_with(g0, None)

    def test_threshold_relaxes_satisfaction(self, g0, abstar_c, engine):
        # The query c selects only v3: precision 1, recall 0.5, F1 = 2/3.
        partial = PathQuery.parse("c", g0.alphabet)
        strict = QueryOracle(abstar_c, engine=engine)
        relaxed = QueryOracle(abstar_c, satisfaction_threshold=0.6, engine=engine)
        assert not strict.satisfied_with(g0, partial)
        assert relaxed.satisfied_with(g0, partial)

    def test_invalid_threshold_raises(self, abstar_c, engine):
        with pytest.raises(ValueError):
            QueryOracle(abstar_c, satisfaction_threshold=0.0, engine=engine)
