"""Monadic path queries (the paper's class ``pq``).

A path query is a regular expression ``q``; on a graph ``G`` it selects::

    q(G) = { nu in G | L(q) & paths_G(nu) != {} }

A :class:`PathQuery` *is* the canonical DFA of the expression (the paper's
query representation), stored once, in the form every layer computes on: the
kernel :class:`~repro.automata.kernel.TableDFA` it was compiled or learned
as, shared and never mutated, together with, when available, the source
expression for readable display.  This module alone decides that format: the
engine takes ``query.table``, the learners hand their canonical table
straight in, and nothing converts it to another automaton form.
Instances are immutable value objects: equality is query equivalence, and
hashing uses only what equal queries share.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import TypeVar

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import TableDFA, pta_table
from repro.automata.prefix_free import is_prefix_free_table, prefix_free_table
from repro.engine.cache import LRUCache
from repro.engine.engine import QueryEngine
from repro.errors import QueryError
from repro.graphdb.graph import GraphDB, Node
from repro.regex.ast import Regex
from repro.regex.build import compile_table
from repro.regex.convert import dfa_to_regex
from repro.telemetry.metrics import MetricsRegistry

Q = TypeVar("Q", bound="_RegexQuery")

#: Process-wide LRU of compiled expressions: ``(text, alphabet)`` -> canonical
#: :class:`TableDFA`.  Every text-to-automaton entry point (``parse``, hence
#: ``from_dict``, ``Workspace.query``, the daemon's query op and the client's
#: ``result_from_dict``) goes through it, so a repeated expression compiles
#: once per process.  Only successes are stored; a hit hands the cached table
#: itself to the new query (tables are shared, never mutated).
PARSE_CACHE = LRUCache(256)


def parse_cache_stats() -> dict[str, int]:
    """The parse cache's own ``hits`` / ``misses`` / ``size`` counters."""
    return {"hits": PARSE_CACHE.hits, "misses": PARSE_CACHE.misses, "size": len(PARSE_CACHE)}


def register_parse_cache_metrics(registry: MetricsRegistry) -> None:
    """Expose the parse cache's counters as computed series of ``registry``."""
    registry.callback("queries_parse_cache_hits_total", lambda: PARSE_CACHE.hits)
    registry.callback("queries_parse_cache_misses_total", lambda: PARSE_CACHE.misses)


def _same_language(left: TableDFA, right: TableDFA) -> bool:
    """Whether two *canonical* tables accept the same language.

    Over one alphabet equal languages have identical canonical tables; over
    two, both are re-read over the union alphabet first (``trimmed`` restores
    the breadth-first numbering a different symbol order may have changed).
    """
    if left.alphabet != right.alphabet:
        common = left.alphabet.union(right.alphabet)
        left, right = left.reindexed(common).trimmed(), right.reindexed(common).trimmed()
    return left.fingerprint() == right.fingerprint()


def _language_hash(table: TableDFA) -> int:
    """A hash of a *canonical* table that ignores its alphabet and numbering.

    The state count and how many moves each symbol labels: what the
    canonical tables of one language share whatever alphabets (or symbol
    orders) they were built over, so equal queries hash equal.
    """
    symbols, m = table.alphabet.symbols, table.m
    moves = Counter(symbols[code % m] for code, target in enumerate(table.trans) if target >= 0)
    return hash((table.n, frozenset(moves.items())))


class _RegexQuery:
    """What the monadic and the binary query share: the canonical table, the
    expression it came from, and the text <-> query conversions.

    ``table`` is the canonical DFA of the query in kernel form -- the one
    stored form, which the engine evaluates and the language-level methods
    read; it is shared between queries (and with :data:`PARSE_CACHE`) and
    never mutated.
    """

    def __init__(self, table: TableDFA, *, expression: str | None = None) -> None:
        if not isinstance(table, TableDFA):
            raise QueryError(f"a query is built from a TableDFA, not {type(table).__name__}")
        self.table = table.canonical()
        self._expression = expression

    @classmethod
    def parse(
        cls: type[Q],
        expression: str | Regex,
        alphabet: Alphabet | Iterable[str] | None = None,
    ) -> Q:
        """Build a query from a regular-expression string (or AST).

        Passing the graph's alphabet lets the query be evaluated on graphs
        that use labels not mentioned in the expression.  A string is
        compiled once per ``(text, alphabet)`` and process
        (:data:`PARSE_CACHE`); a syntax error is raised on every call.
        """
        if alphabet is not None and not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        interned = isinstance(expression, str)
        key = (expression, alphabet)
        table = PARSE_CACHE.get(key) if interned else None
        if table is None:
            table = compile_table(expression, alphabet)
            if interned:
                PARSE_CACHE.put(key, table)
        return cls._from_canonical(table, expression if interned else str(expression))

    @classmethod
    def _from_canonical(cls: type[Q], table: TableDFA, expression: str | None = None) -> Q:
        """A query over an already-canonical table (``compile_table``'s or
        ``TableDFA.canonical``'s output), stored as it is: the constructor's
        canonicalisation is skipped and nothing is copied."""
        query = cls.__new__(cls)
        query.table = table
        query._expression = expression
        return query

    @classmethod
    def from_automaton(cls: type[Q], table: TableDFA) -> Q:
        """Build a query from a kernel table (canonicalized on construction)."""
        return cls(table)

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet the query is defined over."""
        return self.table.alphabet

    @property
    def size(self) -> int:
        """The size of the query: number of states of its canonical DFA."""
        return self.table.n

    @cached_property
    def expression(self) -> str:
        """A regular-expression rendering of the query.

        The original expression string if the query was parsed from one,
        otherwise an expression recovered from the table by state elimination.
        """
        if self._expression is not None:
            return self._expression
        return str(dfa_to_regex(self.table))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.expression!r}, size={self.size})"

    def to_dict(self) -> dict:
        """A JSON-safe representation: the expression and its alphabet."""
        return {
            "expression": self.expression,
            "alphabet": list(self.alphabet),
        }

    @classmethod
    def from_dict(cls: type[Q], payload: dict) -> Q:
        """Rebuild a query from :meth:`to_dict` output (language-faithful)."""
        if not isinstance(payload, dict) or "expression" not in payload:
            raise QueryError("a serialized query needs an 'expression' entry")
        return cls.parse(payload["expression"], payload.get("alphabet"))


class PathQuery(_RegexQuery):
    """A monadic regular path query, represented by its canonical DFA."""

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_words(cls, alphabet: Alphabet, words: Iterable[Sequence[str]]) -> "PathQuery":
        """The disjunction-of-words query selecting nodes with one of the given paths."""
        word_list = [tuple(word) for word in words]
        if not word_list:
            raise QueryError("a disjunction-of-words query needs at least one word")
        return cls._from_canonical(pta_table(alphabet, word_list).canonical())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathQuery):
            return NotImplemented
        return self.equivalent_to(other)

    def __hash__(self) -> int:
        return _language_hash(self._prefix_free)

    # -- language-level operations ---------------------------------------------

    def accepts_word(self, word: Sequence[str]) -> bool:
        """Whether the word belongs to the query's language."""
        alphabet = self.table.alphabet
        return all(symbol in alphabet for symbol in word) and self.table.accepts(word)

    def is_empty(self) -> bool:
        """Whether the query language is empty (selects nothing on any graph)."""
        return self.table.is_empty_language()

    def is_prefix_free(self) -> bool:
        """Whether the query is prefix-free (Section 2)."""
        return is_prefix_free_table(self.table)

    @cached_property
    def _prefix_free(self) -> TableDFA:
        """The canonical table of the prefix-free form, computed once."""
        return prefix_free_table(self.table)

    def prefix_free_form(self) -> "PathQuery":
        """The equivalent prefix-free query (the minimal representative)."""
        return PathQuery._from_canonical(self._prefix_free)

    def equivalent_to(self, other: "PathQuery") -> bool:
        """Language equivalence of the two queries.

        Under monadic semantics, two queries select the same nodes on every
        graph iff their *prefix-free forms* have the same language (e.g.
        ``a`` and ``a.b*`` are equivalent queries); that is the notion
        implemented here.
        """
        return _same_language(self._prefix_free, other._prefix_free)

    # -- evaluation on graphs ----------------------------------------------------

    def evaluate(self, graph: GraphDB, *, engine: QueryEngine) -> frozenset[Node]:
        """The set of nodes selected on ``graph`` (monadic semantics).

        Evaluation goes through the caller's query engine: the
        graph is CSR-indexed once per version, the canonical DFA compiles to
        a cached plan, and whole-graph results are cached per graph version.
        """
        return engine.evaluate(graph, self.table)

    def selects(self, graph: GraphDB, node: Node, *, engine: QueryEngine) -> bool:
        """Whether the query selects one given node of ``graph``."""
        return engine.selects(graph, self.table, node)

    def selectivity(self, graph: GraphDB, *, engine: QueryEngine) -> float:
        """The fraction of graph nodes selected by the query (0.0 - 1.0)."""
        if graph.node_count() == 0:
            raise QueryError("selectivity is undefined on an empty graph")
        return len(engine.answer(graph, self)) / graph.node_count()

    def equivalent_on(self, other: "PathQuery", graph: GraphDB, *, engine: QueryEngine) -> bool:
        """Whether the two queries select the same node set on this graph.

        This is the "indistinguishable by the user" notion of Section 3.3:
        weaker than language equivalence, and the halt condition used by the
        interactive experiments.
        """
        return self.evaluate(graph, engine=engine) == other.evaluate(graph, engine=engine)

    def is_consistent_with(
        self,
        graph: GraphDB,
        positives: Iterable[Node],
        negatives: Iterable[Node],
        *,
        engine: QueryEngine,
    ) -> bool:
        """Whether the query selects every positive node and no negative node."""
        return all(self.selects(graph, node, engine=engine) for node in positives) and not any(
            self.selects(graph, node, engine=engine) for node in negatives
        )

    def shortest_word(self) -> Word | None:
        """The canonically smallest word in the query language, if any."""
        return self.table.shortest_word()
