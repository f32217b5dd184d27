"""Compile parity: the Glushkov ``compile_table`` against the Thompson oracle.

The library builds the position automaton of an expression straight into a
kernel table; ``oracles.regex`` keeps the epsilon-NFA route it replaced.
After canonicalisation the two must be byte-identical -- state count,
initial state, finals, transition array and alphabet -- on random ASTs, on
the serve stream's ``A.B*.C`` label-class shape and on the edge cases, with
an explicit alphabet and without one.

Tier-1 replays a fixed set of examples (``derandomize``); the nightly job
draws fresh ones under the ``nightly`` Hypothesis profile
(``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.regex import regexes, thompson_table

from repro.automata import Alphabet
from repro.errors import RegexSyntaxError
from repro.regex import parse
from repro.regex.ast import Concat, EmptySet, Epsilon, Regex, Star, Symbol, Union
from repro.regex.build import compile_table

NIGHTLY = settings.default.max_examples >= 5_000
PARITY = settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)

ABC = Alphabet(["a", "b", "c", "d"])  # one symbol no expression mentions
LABELS = [f"l{index:02d}" for index in range(20)]


def assert_parity(regex: Regex, alphabet: Alphabet | None) -> None:
    compiled, reference = compile_table(regex, alphabet), thompson_table(regex, alphabet)
    assert compiled.alphabet == reference.alphabet
    assert (compiled.n, compiled.initial, compiled.finals) == (
        reference.n,
        reference.initial,
        reference.finals,
    )
    assert compiled.trans.tobytes() == reference.trans.tobytes()


def raw_regexes() -> st.SearchStrategy[Regex]:
    """ASTs built without the smart constructors: the empty set anywhere,
    epsilon and stars nested as drawn."""
    leaves = st.one_of(
        st.sampled_from("abc").map(Symbol), st.just(Epsilon()), st.just(EmptySet())
    )

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        return st.one_of(
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
            st.builds(Star, children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def label_class_expressions(draw) -> str:
    """The serve stream's ``A.B*.C`` shape, each part a class of 1-3 labels."""

    def label_class() -> str:
        chosen = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
        return "(" + "+".join(chosen) + ")"

    return f"{label_class()}.{label_class()}*.{label_class()}"


@PARITY
@given(regex=regexes(), explicit=st.booleans())
def test_parser_strategy_compiles_byte_identical(regex, explicit):
    assert_parity(regex, ABC if explicit else None)


@PARITY
@given(regex=raw_regexes(), explicit=st.booleans())
def test_raw_asts_with_eps_and_the_empty_set_compile_byte_identical(regex, explicit):
    assert_parity(regex, ABC if explicit else None)


@PARITY
@given(text=label_class_expressions(), explicit=st.booleans())
def test_serve_stream_shape_compiles_byte_identical(text, explicit):
    assert_parity(parse(text), Alphabet(LABELS) if explicit else None)


@pytest.mark.parametrize("explicit", [True, False])
@pytest.mark.parametrize(
    "regex",
    [Epsilon(), EmptySet(), Star(Epsilon()), Star(Star(Symbol("a"))), parse("eps*"), parse("a**")],
    ids=["eps", "empty", "eps-star", "a-star-star", "parsed-eps-star", "parsed-a-star-star"],
)
def test_edge_cases_compile_byte_identical(regex, explicit):
    assert_parity(regex, ABC if explicit else None)


def test_an_expression_without_symbols_gets_the_placeholder_alphabet():
    assert compile_table("eps").alphabet == Alphabet(["_unused_"])
    assert compile_table(EmptySet()).is_empty_language()


def test_thousand_deep_nesting_is_a_syntax_error():
    with pytest.raises(RegexSyntaxError):
        compile_table("(" * 1_000 + "a" + ")" * 1_000)
    deep: Regex = Symbol("a")
    for _ in range(5_000):
        deep = Concat(deep, Symbol("b"))
    with pytest.raises(RegexSyntaxError):
        compile_table(deep, ABC)


def test_a_symbol_outside_the_alphabet_raises():
    with pytest.raises(RegexSyntaxError):
        compile_table("a.z", ABC)
    with pytest.raises(RegexSyntaxError):
        compile_table(Symbol("z"), ABC)
