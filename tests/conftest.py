"""Shared fixtures: the paper's worked-example graphs and small alphabets."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.automata import Alphabet
from repro.automata.kernel import TableDFA
from repro.datasets import (
    certain_node_graph,
    example_graph_g0,
    geo_graph,
    inconsistent_sample_graph,
    prefix_equivalent_graph,
)
from repro.datasets.figures import g0_characteristic_sample
from repro.engine import QueryEngine
from repro.learning import Sample
from repro.queries import PathQuery
from repro.regex import build as regex_build

#: ``pytest --hypothesis-profile=nightly``: the nightly job's long property runs.
settings.register_profile("nightly", max_examples=5_000)


@pytest.fixture
def abc_alphabet() -> Alphabet:
    """The {a, b, c} alphabet used by most of the paper's examples."""
    return Alphabet(["a", "b", "c"])


@pytest.fixture
def engine() -> QueryEngine:
    """A fresh query engine: every evaluation entry point takes one as ``engine=``."""
    return QueryEngine()


@pytest.fixture
def compilations(monkeypatch) -> list:
    """A live list with one entry (the AST) per expression compiled from here
    on: every compile builds its Glushkov automaton exactly once."""
    calls: list = []
    original = regex_build._glushkov

    def counting(regex, alphabet):
        calls.append(regex)
        return original(regex, alphabet)

    monkeypatch.setattr(regex_build, "_glushkov", counting)
    return calls


@pytest.fixture
def conversions(monkeypatch) -> dict[str, list]:
    """Live call logs of ``TableDFA.from_dfa`` / ``to_dfa`` / ``canonical``.

    One entry per call from here on: the converted object for ``from_dfa``
    and ``canonical``, the *calling frame* for ``to_dfa`` (so a test can say
    who asked for an object-level DFA).
    """
    import sys

    calls: dict[str, list] = {"from_dfa": [], "to_dfa": [], "canonical": []}
    from_dfa = TableDFA.from_dfa.__func__
    to_dfa, canonical = TableDFA.to_dfa, TableDFA.canonical

    def counting_from_dfa(cls, dfa):
        calls["from_dfa"].append(dfa)
        return from_dfa(cls, dfa)

    def counting_to_dfa(self, states=None):
        calls["to_dfa"].append(sys._getframe(1))
        return to_dfa(self, states)

    def counting_canonical(self):
        calls["canonical"].append(self)
        return canonical(self)

    monkeypatch.setattr(TableDFA, "from_dfa", classmethod(counting_from_dfa))
    monkeypatch.setattr(TableDFA, "to_dfa", counting_to_dfa)
    monkeypatch.setattr(TableDFA, "canonical", counting_canonical)
    return calls


@pytest.fixture
def g0():
    """The graph G0 of Figure 3."""
    return example_graph_g0()


@pytest.fixture
def g0_sample() -> Sample:
    """The Section 3.2 sample on G0: S+ = {v1, v3}, S- = {v2, v7}."""
    positives, negatives = g0_characteristic_sample()
    return Sample(positives, negatives)


@pytest.fixture
def abstar_c(g0) -> PathQuery:
    """The running-example query (a.b)*.c over G0's alphabet."""
    return PathQuery.parse("(a.b)*.c", g0.alphabet)


@pytest.fixture
def geo():
    """The geographical graph of Figure 1."""
    return geo_graph()


@pytest.fixture
def geo_goal(geo) -> PathQuery:
    """The running-example query (tram+bus)*.cinema."""
    return PathQuery.parse("(tram+bus)*.cinema", geo.alphabet)


@pytest.fixture
def inconsistent_case():
    """The Figure 5 graph together with its (inconsistent) sample."""
    graph, positives, negatives = inconsistent_sample_graph()
    return graph, Sample(positives, negatives)


@pytest.fixture
def certain_case():
    """The Figure 10 graph: sample plus the node that is certain-positive."""
    graph, positives, negatives, certain = certain_node_graph()
    return graph, Sample(positives, negatives), certain


@pytest.fixture
def prefix_equivalent_case():
    """The Figure 8-style graph where the goal has no characteristic sample."""
    graph, positives, negatives = prefix_equivalent_graph()
    return graph, Sample(positives, negatives)
