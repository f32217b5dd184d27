"""Canonical table -> regular expression conversion by state elimination.

The learner returns queries as canonical tables; for reporting (examples,
experiment logs, EXPERIMENTS.md) it is far more readable to show the
equivalent regular expression, so this module implements the classical
state-elimination (Brzozowski-McCluskey) algorithm over the regex AST.
The result is not guaranteed to be the syntactically smallest expression,
but it is always language-equivalent to the input automaton.
"""

from __future__ import annotations

from repro.automata.kernel import TableDFA
from repro.regex.ast import (
    Concat,
    EmptySet,
    Epsilon,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    disjunction,
    star,
)


def _add_edge(edges: dict[tuple[object, object], Regex], source: object, target: object, label: Regex) -> None:
    key = (source, target)
    existing = edges.get(key)
    edges[key] = label if existing is None else disjunction(existing, label)


def dfa_to_regex(table: TableDFA) -> Regex:
    """Return a regular expression denoting the language of the table."""
    table = table.trimmed()
    if not table.finals:
        return EmptySet()

    # Generalized NFA with a unique fresh start and accept state.
    start, accept = ("__start__",), ("__accept__",)
    edges: dict[tuple[object, object], Regex] = {}
    _add_edge(edges, start, table.initial, Epsilon())
    for state in table.iter_finals():
        _add_edge(edges, state, accept, Epsilon())
    symbols, m = table.alphabet.symbols, table.m
    for code, target in enumerate(table.trans):
        if target >= 0:
            source, column = divmod(code, m)
            _add_edge(edges, source, target, Symbol(symbols[column]))

    for eliminated in sorted(range(table.n), key=repr):
        self_loop = edges.pop((eliminated, eliminated), None)
        loop_regex: Regex = star(self_loop) if self_loop is not None else Epsilon()
        incoming = [
            (source, label)
            for (source, target), label in edges.items()
            if target == eliminated and source != eliminated
        ]
        outgoing = [
            (target, label)
            for (source, target), label in edges.items()
            if source == eliminated and target != eliminated
        ]
        for source, _ in incoming:
            edges.pop((source, eliminated), None)
        for target, _ in outgoing:
            edges.pop((eliminated, target), None)
        for source, in_label in incoming:
            for target, out_label in outgoing:
                _add_edge(edges, source, target, concat(in_label, loop_regex, out_label))

    result = edges.get((start, accept))
    if result is None:
        return EmptySet()
    return _simplify(result)


def _simplify(regex: Regex) -> Regex:
    """Light syntactic clean-up: drop redundant epsilon in stars and unions."""
    if isinstance(regex, Star):
        return star(_simplify(regex.inner))
    if isinstance(regex, (Epsilon, EmptySet, Symbol)):
        return regex
    # Concat / Union: rebuild through the smart constructors.
    if isinstance(regex, Concat):
        return concat(_simplify(regex.left), _simplify(regex.right))
    if isinstance(regex, Union):
        return disjunction(_simplify(regex.left), _simplify(regex.right))
    return regex
