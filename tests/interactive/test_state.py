"""Parity and lifecycle tests of the kernel-backed interactive session state.

The batched/incremental structures must be *observationally identical* to
the legacy per-node path: same informativeness verdicts, same uncovered-path
counts, same certainty answers, same session transcripts.  Every test here
pins the new code against the retained reference implementations on
randomized small graphs.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from oracles.informativeness import (
    reference_is_certain_negative,
    reference_is_certain_positive,
)
from oracles.session import PerNodeSession

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.errors import InteractionError, LearningError
from repro.evaluation.workloads import synthetic_queries
from repro.interactive import (
    InteractiveCheckpoint,
    InteractiveSession,
    QueryOracle,
    SessionState,
    is_certain,
    is_k_informative,
    k_informative_set,
    make_strategy,
    uncovered_k_paths,
)
from repro.interactive.informativeness import is_certain_negative, is_certain_positive
from repro.learning import Sample
from repro.learning.scp import NegativeCoverage, select_smallest_consistent_paths


def random_graph(seed: int, nodes: int = 120, labels: int = 5):
    return scale_free_graph(nodes, alphabet_size=labels, zipf_exponent=1.0, seed=seed)


def random_sample(rng: random.Random, graph, positives: int = 3, negatives: int = 4) -> Sample:
    nodes = list(graph.node_order)
    pos = rng.sample(nodes, positives)
    neg = rng.sample([n for n in nodes if n not in pos], negatives)
    return Sample(pos, neg)


class TestBatchedInformativeness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batched_set_matches_per_node_verdicts(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed)
        engine = QueryEngine()
        sample = random_sample(rng, graph)
        for k in (0, 1, 2, 3):
            batched = k_informative_set(graph, sample, k=k, engine=engine)
            legacy = frozenset(
                node
                for node in graph.nodes
                if is_k_informative(graph, sample, node, k=k)
            )
            assert batched == legacy

    def test_batched_set_without_negatives_is_all_unlabeled(self, g0, engine):
        sample = Sample(positives={"v1"})
        assert k_informative_set(g0, sample, k=2, engine=engine) == g0.nodes - {"v1"}

    @pytest.mark.parametrize("seed", [4, 5])
    def test_uncovered_counts_match_legacy(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed)
        engine = QueryEngine()
        sample = random_sample(rng, graph)
        coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
        for k in (1, 2, 3):
            for node in rng.sample(list(graph.node_order), 25):
                want = uncovered_k_paths(graph, node, sample.negatives, k=k)
                got = len(list(coverage.uncovered_paths(node, k, graph.alphabet)))
                assert got == want, (node, k)
                # The cap mirrors the legacy limit semantics.
                capped = len(list(islice(coverage.uncovered_paths(node, k, graph.alphabet), 2)))
                assert capped == min(want, 2)

    def test_uncovered_counts_without_negatives(self, g0):
        coverage = NegativeCoverage(QueryEngine().index_for(g0), ())
        for node in g0.nodes:
            want = uncovered_k_paths(g0, node, (), k=2)
            got = len(list(coverage.uncovered_paths(node, 2, g0.alphabet)))
            assert got == want

    def test_uncovered_table_rejects_empty_negatives(self, g0):
        coverage = NegativeCoverage(QueryEngine().index_for(g0), ())
        with pytest.raises(LearningError):
            coverage.table(2, g0.alphabet)


class TestSessionStateVerdicts:
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_per_node_verdicts_track_legacy_through_a_session(self, seed):
        """Drive a label sequence and compare every verdict against legacy."""
        rng = random.Random(seed)
        graph = random_graph(seed, nodes=80)
        engine = QueryEngine()
        state = SessionState(graph, k=2, engine=engine)
        sample = Sample()
        nodes = list(graph.node_order)
        for round_index in range(12):
            node = rng.choice([n for n in nodes if n not in sample.labeled])
            label = "+" if rng.random() < 0.4 else "-"
            sample = sample.with_example(node, label)
            state.observe(node, label, sample)
            if round_index == 6:
                state.set_k(3)  # exercise the k-growth invalidation path
            k = state.k
            for probe in rng.sample([n for n in nodes if n not in sample.labeled], 12):
                assert state.is_informative(probe) == is_k_informative(
                    graph, sample, probe, k=k
                ), (round_index, probe)
            batched = state.informative_nodes()
            legacy = frozenset(
                n for n in nodes if is_k_informative(graph, sample, n, k=k)
            )
            assert batched == legacy

    def test_non_informative_verdicts_survive_negative_labels(self, seed=9):
        rng = random.Random(seed)
        graph = random_graph(seed, nodes=80)
        state = SessionState(graph, k=2, engine=QueryEngine())
        nodes = list(graph.node_order)
        sample = Sample().with_negative(nodes[0])
        state.observe(nodes[0], "-", sample)
        before = state.informative_nodes()
        walks_before = state.counters["node_walks"]
        # A further negative keeps every non-informative verdict (monotone
        # certainty): re-probing those nodes must be pure cache hits.
        sample = sample.with_negative(nodes[1])
        state.observe(nodes[1], "-", sample)
        non_informative = [
            n for n in nodes if n not in before and n not in sample.labeled
        ][:10]
        for node in non_informative:
            assert not state.is_informative(node)
        assert state.counters["node_walks"] == walks_before
        assert state.counters["verdict_hits"] >= len(non_informative)
        # And the informative set only ever shrinks under new negatives.
        after = state.informative_nodes()
        assert after <= before

    def test_graph_mutation_drops_stale_verdicts(self, g0):
        """Regression: an edge added mid-session can make a cached
        non-informative node informative; verdicts must not outlive the
        graph snapshot they were computed on."""
        state = SessionState(g0, k=1, engine=QueryEngine())
        sample = Sample().with_negative("v2")
        state.observe("v2", "-", sample)
        # v4 is a dead end: paths(v4) = {eps}, covered -> non-informative.
        assert not state.is_informative("v4")
        # v2 has no outgoing 'c' edge, so the new path ("c",) is uncovered.
        g0.add_edge("v4", "c", "v1")
        assert state.is_informative("v4")
        assert is_k_informative(g0, sample, "v4", k=1)

    def test_positive_labels_invalidate_nothing(self, seed=10):
        rng = random.Random(seed)
        graph = random_graph(seed, nodes=80)
        state = SessionState(graph, k=2, engine=QueryEngine())
        nodes = list(graph.node_order)
        sample = Sample().with_negative(nodes[0])
        state.observe(nodes[0], "-", sample)
        before = state.informative_nodes()
        positive = next(iter(before))
        sample = sample.with_positive(positive)
        state.observe(positive, "+", sample)
        walks = state.counters["batched_walks"]
        assert state.informative_nodes() == before - {positive}
        assert state.counters["batched_walks"] == walks  # no recomputation


class TestKernelCertainty:
    def test_matches_reference_on_worked_example(self, certain_case):
        graph, sample, certain = certain_case
        assert is_certain_positive(graph, sample, certain)
        assert not is_certain_negative(graph, sample, certain)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_reference_on_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed, nodes=14, labels=3)
        sample = random_sample(rng, graph, positives=2, negatives=3)
        for node in graph.nodes:
            assert is_certain_positive(graph, sample, node) == reference_is_certain_positive(
                graph, sample, node
            ), node
            assert is_certain_negative(graph, sample, node) == reference_is_certain_negative(
                graph, sample, node
            ), node

    def test_is_certain_uses_kernel_checks(self, g0, g0_sample):
        assert is_certain(g0, g0_sample, "v4")  # dead end: certain-negative


class TestSharedCoverage:
    def test_prebuilt_coverage_matches_fresh_selection(self, seed=14):
        rng = random.Random(seed)
        graph = random_graph(seed, nodes=100)
        engine = QueryEngine()
        sample = random_sample(rng, graph)
        coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
        fresh = select_smallest_consistent_paths(graph, sample, k=3, engine=engine)
        shared = select_smallest_consistent_paths(
            graph, sample, k=3, engine=engine, coverage=coverage
        )
        assert fresh == shared

    def test_mismatched_coverage_is_rejected(self, g0, g0_sample):
        engine = QueryEngine()
        stale = NegativeCoverage(engine.index_for(g0), ())
        with pytest.raises(LearningError):
            select_smallest_consistent_paths(
                g0, g0_sample, k=2, engine=engine, coverage=stale
            )


    def test_a_new_negative_gets_a_fresh_coverage_and_relearns_like_a_fresh_session(
        self, seed=6
    ):
        """A negative label replaces the coverage with one of the grown set,
        and the forced re-learn learns what a fresh session learns."""
        graph = random_graph(seed, nodes=150, labels=6)
        engine = QueryEngine()
        goal = synthetic_queries(graph, alphabet_size=6)["syn2"]
        selected = goal.evaluate(graph, engine=engine)
        rng = random.Random(seed)
        sample = Sample(
            rng.sample(sorted(selected), 8), rng.sample(sorted(graph.nodes - selected), 8)
        )
        state = SessionState(graph, k=2, engine=engine, sample=sample)
        first = state.learn(2, 4)
        before = state.coverage()
        calls = state.counters["guard_calls"]
        assert calls > 0

        # A node the hypothesis wrongly selects: labeling it forces a re-learn.
        wrong = min(first.hypothesis.evaluate(graph, engine=engine) - selected - sample.labeled)
        sample = sample.with_negative(wrong)
        state.observe(wrong, "-", sample)
        after = state.coverage()
        assert after is not before and after.nodes == sample.negatives
        assert after.guard_calls == 0
        second = state.learn(2, 4)
        assert state.counters["full_learns"] == 2 and state.counters["reused_learns"] == 0
        assert state.counters["guard_calls"] - calls == after.guard_calls > 0

        fresh = SessionState(graph, k=2, engine=QueryEngine(), sample=sample)
        assert fresh.learn(2, 4).hypothesis == second.hypothesis
        assert fresh.counters["guard_calls"] == after.guard_calls


class TestSessionTranscriptParity:
    """The incremental session must be indistinguishable from the legacy one."""

    @pytest.mark.parametrize("strategy", ["kR", "kS", "random"])
    @pytest.mark.parametrize("seed", [15, 16])
    def test_transcripts_identical(self, strategy, seed):
        graph = random_graph(seed, nodes=150, labels=6)
        queries = synthetic_queries(graph, alphabet_size=6)
        goal = sorted(queries.items())[seed % len(queries)][1]

        def run(session_class):
            engine = QueryEngine()
            session = session_class(
                graph,
                QueryOracle(goal, engine=engine),
                make_strategy(strategy, seed=seed, pool_size=32),
                k_start=2,
                k_max=4,
                max_interactions=20,
                engine=engine,
            )
            result = session.run()
            return (
                [(i.node, i.label, i.k, i.learned_expression) for i in result.interactions],
                result.halted_by,
            )

        assert run(InteractiveSession) == run(PerNodeSession)

    def test_the_per_node_loop_is_not_reachable_through_the_keyword(self, g0, abstar_c):
        engine = QueryEngine()
        with pytest.raises(InteractionError):
            InteractiveSession(
                g0,
                QueryOracle(abstar_c, engine=engine),
                make_strategy("kR"),
                engine=engine,
                incremental=False,
            )


class TestStrategySerialization:
    def test_malformed_strategy_payloads_raise_interaction_error(self):
        from repro.interactive import strategy_from_dict

        with pytest.raises(InteractionError):
            strategy_from_dict({"pool_size": 4})  # missing name
        with pytest.raises(InteractionError):
            strategy_from_dict(None)
        with pytest.raises(InteractionError):
            strategy_from_dict({"name": "kR", "rng_state": [1, "not-ints"]})

    def test_missing_pool_size_falls_back_to_default(self):
        from repro.interactive import strategy_from_dict

        strategy = strategy_from_dict({"name": "kS"})
        assert strategy._pool_size == 512


class TestCheckpointResume:
    def _session(self, graph, goal, engine, budget=None):
        return InteractiveSession(
            graph,
            QueryOracle(goal, engine=engine),
            make_strategy("kR", seed=3, pool_size=32),
            k_start=2,
            k_max=4,
            max_interactions=budget,
            engine=engine,
        )

    def test_checkpoint_roundtrips_through_json(self, g0, abstar_c):
        engine = QueryEngine()
        session = self._session(g0, abstar_c, engine, budget=3)
        session.run()
        checkpoint = session.checkpoint()
        rebuilt = InteractiveCheckpoint.from_dict(checkpoint.to_dict())
        assert rebuilt == checkpoint
        assert rebuilt.interaction_count == len(session.interactions)

    def test_checkpoint_is_a_registered_result_type(self, g0, abstar_c):
        from repro.api.result import result_from_dict, result_from_json, result_to_json

        engine = QueryEngine()
        session = self._session(g0, abstar_c, engine, budget=2)
        session.run()
        checkpoint = session.checkpoint()
        rebuilt = result_from_json(result_to_json(checkpoint))
        assert isinstance(rebuilt, InteractiveCheckpoint)
        assert result_from_dict(checkpoint.to_dict()) == checkpoint
        assert rebuilt.ok
        assert rebuilt.elapsed == checkpoint.elapsed

    @pytest.mark.parametrize("pause_after", [1, 3, 5])
    def test_resumed_session_matches_uninterrupted_run(self, pause_after, seed=17):
        graph = random_graph(seed, nodes=150, labels=6)
        queries = synthetic_queries(graph, alphabet_size=6)
        goal = sorted(queries.items())[0][1]

        def transcript(result):
            return [(i.node, i.label, i.k) for i in result.interactions]

        # One uninterrupted session...
        engine = QueryEngine()
        full = self._session(graph, goal, engine, budget=10).run()

        # ...versus pause via JSON round-trip, then resume to the same budget.
        engine = QueryEngine()
        first = self._session(graph, goal, engine, budget=pause_after)
        first.run()
        payload = first.checkpoint().to_dict()
        checkpoint = InteractiveCheckpoint.from_dict(payload)
        resumed = InteractiveSession.resume(
            checkpoint, graph, QueryOracle(goal, engine=engine), engine=engine
        )
        resumed.max_interactions = 10
        outcome = resumed.run()
        assert transcript(outcome) == transcript(full)
        assert outcome.halted_by == full.halted_by

    def test_workspace_resume_and_checkpoint_files(self, tmp_path, geo):
        import json

        from repro.api import InteractiveConfig, Workspace

        workspace = Workspace(geo)
        config = InteractiveConfig(strategy="kR", seed=1, max_interactions=2, k_max=4)
        checkpoint_path = tmp_path / "session.json"
        partial = workspace.learn_interactive(
            "(tram+bus)*.cinema", config, checkpoint_to=checkpoint_path
        )
        assert checkpoint_path.exists()
        payload = json.loads(checkpoint_path.read_text())
        assert payload["type"] == "InteractiveCheckpoint"
        assert len(payload["interactions"]) == partial.interaction_count
        # Resume from the file and run to the goal.
        resumed = workspace.learn_interactive(
            "(tram+bus)*.cinema",
            config.replace(max_interactions=None),
            resume_from=checkpoint_path,
        )
        assert resumed.halted_by == "goal"
        assert resumed.interaction_count >= partial.interaction_count

    def test_resume_budget_buys_new_interactions(self, tmp_path, geo):
        """Regression: resuming with the *same* config must make progress --
        the per-run budget is on top of the checkpointed interactions."""
        from repro.api import InteractiveConfig, Workspace

        workspace = Workspace(geo)
        config = InteractiveConfig(strategy="kR", seed=1, max_interactions=2, k_max=4)
        checkpoint_path = tmp_path / "session.json"
        first = workspace.learn_interactive(
            "(tram+bus)*.cinema", config, checkpoint_to=checkpoint_path
        )
        assert first.interaction_count == 2
        second = workspace.learn_interactive(
            "(tram+bus)*.cinema",
            config,
            resume_from=checkpoint_path,
            checkpoint_to=checkpoint_path,
        )
        assert (
            second.halted_by == "goal" or second.interaction_count == 4
        ), (second.halted_by, second.interaction_count)
        assert second.interaction_count > first.interaction_count
