"""Planner parity: rewrites never change answers and never add kernel work.

The cost-based planner may only ever make evaluation *cheaper*: every
automaton rewrite is language-inclusion-checked both ways before a plan is
compiled from it, and whole-graph walks over a rewritten (smaller) automaton
can at most match the unrewritten kernel work.  This suite pins both claims
on a randomized population of seeded graphs -- byte-identical selected sets
between ``planner="auto"`` and ``planner="off"`` engines, and work counters
that never exceed the planner-off baseline -- plus the rewriter's unit
behaviors (alphabet restriction, dead-branch pruning, parity rejection
fallback), the rare-label-first row order early-exit searches bind with,
and the planned-plan cache's single-miss economics.
"""

from __future__ import annotations

import random

import pytest

from repro.automata.kernel import TableDFA, language_included_tables
from repro.engine import QueryEngine, executor
from repro.engine.executor import bind
from repro.engine.planner import PLANNER_MODES, restrict_alphabet, rewrite_table
from repro.engine.index import GraphIndex
from repro.errors import QueryError
from repro.graphdb import GraphDB
from repro.queries import PathQuery
from repro.regex import compile_query

LABELS = ["a", "b", "c"]
#: The declared alphabet is wider than any graph's labels: "z" never occurs
#: on an edge, so the restrict-alphabet rewrite has real work to do on every
#: expression that mentions it.
ALPHABET = LABELS + ["z"]

#: Plain walks, stars (empty-word acceptance), an empty language on most
#: graphs, eps-only -- plus branches through "z" that the planner can prune
#: away entirely.
EXPRESSIONS = [
    "a",
    "(a.b)*.c",
    "a*.(c+b.c)",
    "b.b.c.c",
    "eps",
    "a*",
    "(a+b)*.c",
    "c.b*",
    "z",
    "z*.a",
    "a+z.b",
    "(a+z)*.c",
    "z.z.a + b",
]


def random_graph(rng: random.Random) -> GraphDB:
    graph = GraphDB(LABELS)
    node_count = rng.randint(0, 18)
    if node_count and rng.random() < 0.2:
        graph.add_nodes([f"iso{i}" for i in range(rng.randint(1, 3))])
    for _ in range(rng.randint(0, 60)):
        if node_count == 0:
            break
        graph.add_edge(
            rng.randrange(node_count), rng.choice(LABELS), rng.randrange(node_count)
        )
    return graph


GRAPHS = [random_graph(random.Random(seed)) for seed in range(50)]


def table_for(expression: str) -> TableDFA:
    return TableDFA.from_dfa(compile_query(expression, ALPHABET))[0]


def query_for(expression: str) -> PathQuery:
    return PathQuery.parse(expression, ALPHABET)


class TestRewriteTable:
    def test_restricts_symbols_the_graph_never_carries(self):
        outcome = rewrite_table(table_for("a+z.b"), LABELS)
        assert outcome.parity == "verified"
        assert "restrict-alphabet" in outcome.applied
        assert outcome.symbols_after < outcome.symbols_before
        assert set(outcome.table.alphabet.symbols) <= set(LABELS)

    def test_prunes_branches_behind_dropped_symbols(self):
        # After dropping "z" the z.b arm's states lead nowhere: they must go.
        outcome = rewrite_table(table_for("a+z.b"), LABELS)
        assert "prune-dead" in outcome.applied
        assert outcome.states_after < outcome.states_before

    def test_clean_when_nothing_to_rewrite(self):
        table = TableDFA.from_dfa(compile_query("a.b", LABELS))[0]
        outcome = rewrite_table(table, LABELS)
        assert outcome.parity == "clean"
        assert outcome.applied == ()
        assert outcome.table is table

    def test_never_grows_on_population(self):
        for expression in EXPRESSIONS:
            outcome = rewrite_table(table_for(expression), LABELS)
            assert outcome.states_after <= outcome.states_before
            assert outcome.symbols_after <= outcome.symbols_before
            assert outcome.parity in ("clean", "verified")

    def test_rewritten_language_equals_restriction(self):
        # The parity the rewriter claims must be independently reproducible:
        # the rewritten automaton accepts exactly the restricted language.
        for expression in EXPRESSIONS:
            table = table_for(expression)
            outcome = rewrite_table(table, LABELS)
            if outcome.parity != "verified":
                continue
            baseline = restrict_alphabet(table, LABELS)
            assert language_included_tables(baseline, outcome.table)
            assert language_included_tables(outcome.table, baseline)

    def test_one_round_reaches_the_fixpoint(self):
        # There is no pass bound to set: what one round leaves is trim and
        # minimal, so rewriting it again finds nothing.
        for expression in EXPRESSIONS:
            once = rewrite_table(table_for(expression), LABELS).table
            assert rewrite_table(once, LABELS).parity == "clean"
        with pytest.raises(TypeError):
            rewrite_table(table_for("a+z.b"), LABELS, max_passes=0)

    def test_outcome_to_dict_shape(self):
        report = rewrite_table(table_for("z*.a"), LABELS).to_dict()
        assert set(report) == {"rewrites", "parity", "states", "symbols"}
        assert set(report["states"]) == {"before", "after"}

    def test_coerce_table_rejects_non_automata(self):
        # Int-coding moved to the engine's door; the refusal went with it.
        with pytest.raises(QueryError):
            QueryEngine._coerce_automaton("not an automaton")

    def test_planner_modes_frozen(self):
        assert PLANNER_MODES == ("auto", "off")


def skewed_index() -> GraphIndex:
    """Thirty ``a`` edges in a chain and a single ``b`` edge."""
    graph = GraphDB(["a", "b"])
    for i in range(30):
        graph.add_edge(i, "a", i + 1)
    graph.add_edge(0, "b", 31)
    return GraphIndex.build(graph)


def all_rows(moves) -> tuple[list, list]:
    """Every forward and backward row of one binding, by state."""
    return [moves.rows[state] for state in range(moves.span)], moves.reverse_rows()


class TestSelectivityOrdered:
    """``bind(..., rare_first=True)``: the order the plan clone used to carry."""

    def test_moves_sorted_by_label_rarity(self):
        index = skewed_index()
        counts = index.label_edge_counts()
        rare, common = index.label_ids["b"], index.label_ids["a"]
        # "(a+b).a*" leaves its initial state on both labels; "a.(a+b)"
        # enters its final state on both.
        for expression in ("(a+b).a*", "a.(a+b)"):
            table = TableDFA.from_dfa(compile_query(expression, ["a", "b"]))[0]
            forward, backward = all_rows(bind(index, table, rare_first=True))
            for row in (*forward, *backward):
                weights = [counts[move[0]] for move in row]
                assert weights == sorted(weights)
            plain_forward, plain_backward = all_rows(bind(index, table))
            if expression == "(a+b).a*":
                assert [move[0] for move in plain_forward[table.initial]] == [common, rare]
                assert [move[0] for move in forward[table.initial]] == [rare, common]
            else:
                entered_twice = [s for s, row in enumerate(plain_backward) if len(row) == 2]
                assert entered_twice
                for state in entered_twice:
                    assert [move[0] for move in plain_backward[state]] == [common, rare]
                    assert [move[0] for move in backward[state]] == [rare, common]

    def test_ordering_preserves_fingerprint_and_shape(self):
        index = GraphIndex.build(GRAPHS[7])
        table = table_for("(a+b)*.c")
        fingerprint = table.fingerprint()
        plain, ordered = bind(index, table), bind(index, table, rare_first=True)
        assert table.fingerprint() == fingerprint
        assert (ordered.span, ordered.initials, ordered.final_mask) == (
            plain.span,
            plain.initials,
            plain.final_mask,
        )
        for before, after in zip(all_rows(plain), all_rows(ordered)):
            assert [sorted(row) for row in before] == [sorted(row) for row in after]

    def test_only_cached_planned_searches_are_reordered(self, monkeypatch):
        """Rare-first is asked for by the non-ephemeral early-exit searches of
        a ``planner="auto"`` engine and by nothing else: an ephemeral walk, a
        ``planner="off"`` engine and the whole-graph walks bind in alphabet
        order."""
        asked: list[bool] = []

        def spy(index, query, *, rare_first=False):
            asked.append(rare_first)
            return bind(index, query, rare_first=rare_first)

        monkeypatch.setattr(executor, "bind", spy)
        graph = GRAPHS[7]
        nodes = sorted(graph.nodes, key=repr)[:3]
        table = table_for("(a+b)*.c")

        def calls(engine, **options):
            del asked[:]
            engine.any_selects(graph, table, nodes, **options)
            engine.any_selects(graph, table, nodes, witness=True, **options)
            engine.pair_selects(graph, table, nodes[0], nodes[1], **options)
            return asked[:]

        assert calls(QueryEngine(planner="auto")) == [True, True, True]
        assert calls(QueryEngine(planner="auto", backend="python")) == [True, True, True]
        assert calls(QueryEngine(planner="auto"), ephemeral=True) == [False, False, False]
        assert calls(QueryEngine(planner="off")) == [False, False, False]
        del asked[:]
        engine = QueryEngine(planner="auto")
        engine.evaluate(graph, table)
        engine.binary_evaluate(graph, table)
        assert asked == [False, False]


class TestEngineParityRandomized:
    """Planner-on and planner-off engines agree byte for byte."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_evaluate_identical_on_population(self, expression):
        on = QueryEngine(planner="auto")
        off = QueryEngine(planner="off")
        query = query_for(expression)
        for graph in GRAPHS:
            assert on.evaluate(graph, query) == off.evaluate(graph, query)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_binary_evaluate_identical_on_population(self, expression):
        on = QueryEngine(planner="auto")
        off = QueryEngine(planner="off")
        query = query_for(expression)
        for graph in GRAPHS[:25]:
            assert on.binary_evaluate(graph, query) == off.binary_evaluate(graph, query)

    @pytest.mark.parametrize("expression", ["(a+z)*.c", "a+z.b", "c.b*"])
    def test_pair_and_membership_probes_identical(self, expression):
        on = QueryEngine(planner="auto")
        off = QueryEngine(planner="off")
        query = query_for(expression)
        for graph in GRAPHS[:20]:
            nodes = sorted(graph.nodes, key=repr)[:4]
            for node in nodes:
                assert on.selects(graph, query, node) == off.selects(graph, query, node)
            for origin in nodes:
                for end in nodes:
                    assert on.pair_selects(graph, query, origin, end) == off.pair_selects(
                        graph, query, origin, end
                    )

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_planner_never_does_more_whole_graph_work(self, expression):
        # Forced python backend on both sides: the counters then measure the
        # same kernel, so the only difference is the automaton the planner
        # compiled.  A rewritten (quotient) automaton expands at most the
        # original's product pairs and scans at most its edges.
        query = query_for(expression)
        for graph in GRAPHS[:25]:
            on = QueryEngine(planner="auto", backend="python")
            off = QueryEngine(planner="off", backend="python")
            assert on.evaluate(graph, query) == off.evaluate(graph, query)
            on_work = on.stats.states_expanded + on.stats.edges_scanned
            off_work = off.stats.states_expanded + off.stats.edges_scanned
            assert on_work <= off_work


class TestPlannedPlanCache:
    def test_single_miss_then_hits(self):
        engine = QueryEngine(planner="auto")
        graph = GRAPHS[3]
        query = query_for("(a+z)*.c")
        engine.evaluate(graph, query)
        assert engine.plan_cache.misses == 1
        assert engine.stats.plan_compilations == 1
        engine.evaluate(graph, query)
        assert engine.plan_cache.misses == 1
        assert engine.plan_cache.hits >= 1
        assert engine.stats.plan_compilations == 1

    def test_off_mode_compiles_verbatim(self):
        engine = QueryEngine(planner="off")
        graph = GRAPHS[3]
        query = query_for("a+z.b")
        plan, report = engine._resolve_plan(graph, query)
        assert report is None
        assert plan is query.table
        # With the planner on the same query is cached as a smaller table.
        planned, report = QueryEngine(planner="auto")._resolve_plan(graph, query)
        assert report["parity"] == "verified"
        assert planned.n < plan.n and planned.fingerprint() != plan.fingerprint()


class TestEngineExplain:
    def test_explain_reports_rewrites_costs_and_choice(self):
        engine = QueryEngine(planner="auto")
        graph = GRAPHS[5]
        report = engine.explain(graph, query_for("a+z.b"))
        assert set(report) >= {
            "semantics",
            "planner",
            "plan",
            "inputs",
            "chosen",
            "cache",
            "graph",
        }
        assert report["planner"]["mode"] == "auto"
        assert "restrict-alphabet" in report["planner"]["rewrites"]
        assert not {"estimates", "pair_estimates"} & set(report)
        assert set(report["inputs"]) == {"seeds", "scan_work", "first_layer"}
        assert report["chosen"]["strategy"] in ("python", "numpy")
        assert report["chosen"]["pair_strategy"] in ("forward", "bidirectional")
        assert report["graph"]["nodes"] == graph.node_count()

    def test_explain_off_mode(self):
        engine = QueryEngine(planner="off")
        report = engine.explain(GRAPHS[5], query_for("a+z.b"))
        assert report["planner"]["mode"] == "off"
        assert report["planner"]["rewrites"] == []

    def test_explain_runs_no_kernel(self):
        engine = QueryEngine(planner="auto")
        engine.explain(GRAPHS[5], query_for("(a+b)*.c"))
        assert engine.stats.evaluations == 0
        assert engine.stats.states_expanded == 0

    def test_unknown_planner_mode_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine(planner="aggressive")
