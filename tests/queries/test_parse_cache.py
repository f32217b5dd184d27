"""The interned parse: one compile per ``(text, alphabet)`` and process.

Everything here is asserted by *count* (Glushkov constructions, the LRU's
own counters), never by clock.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import Workspace
from repro.api.result import result_from_dict
from repro.automata import Alphabet
from repro.errors import RegexSyntaxError
from repro.queries import BinaryPathQuery, PathQuery
from repro.queries.path_query import PARSE_CACHE, parse_cache_stats
from repro.regex import parse as parse_regex

ABC = Alphabet(["a", "b", "c"])


@pytest.fixture(autouse=True)
def empty_cache():
    PARSE_CACHE.clear()
    yield
    PARSE_CACHE.clear()


def test_second_parse_of_a_text_compiles_nothing(compilations):
    first = PathQuery.parse("a.b*.c", ABC)
    assert len(compilations) == 1
    before = parse_cache_stats()
    second = PathQuery.parse("a.b*.c", ABC)
    binary = BinaryPathQuery.parse("a.b*.c", ABC)  # same key, other semantics
    assert len(compilations) == 1
    after = parse_cache_stats()
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (2, 0)
    assert second == first and second.dfa.structurally_equal(first.dfa)
    assert binary.dfa.structurally_equal(first.dfa)
    assert second.expression == "a.b*.c"


def test_an_iterable_alphabet_hits_the_entry_of_the_equal_alphabet(compilations):
    PathQuery.parse("a.b", ABC)
    PathQuery.from_dict({"expression": "a.b", "alphabet": ["c", "a", "b"]})
    assert len(compilations) == 1


def test_same_text_under_two_alphabets_is_two_entries(compilations):
    narrow = PathQuery.parse("a.b", Alphabet(["a", "b"]))
    wide = PathQuery.parse("a.b", ABC)
    implied = PathQuery.parse("a.b")  # alphabet read off the expression
    assert len(compilations) == 3 and parse_cache_stats()["size"] == 3
    assert (narrow.alphabet, wide.alphabet) == (Alphabet(["a", "b"]), ABC)
    assert implied.alphabet == narrow.alphabet


def test_a_regex_ast_is_compiled_but_not_interned(compilations):
    ast = parse_regex("a.b")
    PathQuery.parse(ast, ABC)
    PathQuery.parse(ast, ABC)
    assert len(compilations) == 2 and parse_cache_stats()["size"] == 0


@pytest.mark.parametrize("text", ["a.z", "a.(b", ""])
def test_a_failing_text_raises_on_every_call_and_is_never_cached(text):
    for _ in range(3):
        with pytest.raises(RegexSyntaxError):
            PathQuery.parse(text, ABC)
    assert parse_cache_stats()["size"] == 0


def test_capacity_is_respected_and_the_oldest_text_goes_first(compilations):
    assert PARSE_CACHE.capacity <= 256
    labels = [f"l{index:03d}" for index in range(PARSE_CACHE.capacity + 40)]
    alphabet = Alphabet(labels)
    for label in labels:
        PathQuery.parse(label, alphabet)
    assert parse_cache_stats()["size"] == PARSE_CACHE.capacity
    compiled = len(compilations)
    PathQuery.parse(labels[-1], alphabet)  # recent: still interned
    assert len(compilations) == compiled
    PathQuery.parse(labels[0], alphabet)  # evicted: compiled again
    assert len(compilations) == compiled + 1


def test_mutating_a_parsed_dfa_does_not_change_a_later_parse():
    first = PathQuery.parse("a.b*.c", ABC)
    pristine = PathQuery.parse("a.b*.c", ABC)
    assert first.dfa is not pristine.dfa
    first.dfa.add_transition(first.dfa.initial, "c", first.dfa.initial)
    first.dfa.set_final(first.dfa.initial, True)
    assert not first.accepts_word(())  # .dfa is a view: the query reads its table
    later = PathQuery.parse("a.b*.c", ABC)
    assert later.dfa.structurally_equal(pristine.dfa)
    assert not later.accepts_word(()) and later.accepts_word(("a", "b", "c"))


def test_eight_threads_parsing_one_text_get_equal_queries():
    texts = ["a.b*.c", "(a+b)*.c", "a"]
    rounds, workers = 40, 8
    barrier = threading.Barrier(workers)
    results: list[list[PathQuery]] = [[] for _ in range(workers)]
    before = parse_cache_stats()

    def work(slot: int) -> None:
        barrier.wait(timeout=10)
        for index in range(rounds):
            results[slot].append(PathQuery.parse(texts[index % len(texts)], ABC))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    after = parse_cache_stats()
    # A lost counter update or a torn LRU would break one of these.
    looked_up = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    assert looked_up == rounds * workers
    assert after["size"] == len(texts)
    for got in results:
        assert len(got) == rounds
        for index, query in enumerate(got):
            assert query.dfa.structurally_equal(results[0][index % len(texts)].dfa)


def test_workspace_surfaces_the_cache_counters_without_instrumenting_calls():
    workspace = Workspace.from_figure("geo")
    before = workspace.stats()["parse_cache"]
    first = workspace.query("(tram+bus)*.cinema")
    workspace.query("(tram+bus)*.cinema")
    after = workspace.stats()["parse_cache"]
    assert set(after) == {"hits", "misses", "size"}
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (1, 1)
    assert after == parse_cache_stats()
    text = workspace.metrics_text()
    assert f"queries_parse_cache_hits_total {after['hits']}" in text
    assert f"queries_parse_cache_misses_total {after['misses']}" in text
    assert result_from_dict(first.to_dict()) == first
