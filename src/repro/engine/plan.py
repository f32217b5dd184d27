"""Compiled query plans: a query automaton flattened into dense int tables.

A :class:`CompiledPlan` int-encodes an automaton's states ``0..k-1`` and its
useful symbols ``0..s-1`` and pre-flattens the transition relation into

* ``delta[symbol_pos]``  -- a dict mapping a state to the tuple of its
  successor states on that symbol, and
* ``rdelta[symbol_pos]`` -- the same shape inverted (predecessors; used by
  the backward product BFS of ``evaluate_all``),

so the executor kernels never touch automaton objects or allocate per-step
frozensets.  The per-symbol tables are sparse (states without a transition
on a symbol are simply absent): compilation is ``O(transitions)``, which
matters because the learner's merge guard compiles thousands of one-shot
candidate automata over wide alphabets.  Plans are independent of any
particular graph; the executor binds a plan's symbol positions to a
:class:`~repro.engine.index.GraphIndex`'s label ids at call time (a cheap
``O(labels)`` pairing).

Plans also carry a structural :attr:`~CompiledPlan.fingerprint` (see
:func:`automaton_fingerprint`): structurally identical automata -- in
particular the canonical DFAs of one language, which are always BFS-renamed
the same way -- share one plan-cache entry.

Kernel automata (:class:`~repro.automata.kernel.TableDFA`) are already int
tables, so compiling one is a cheap re-shaping of its flat transition array
-- no state interning, no sorting -- and its fingerprint is computed
directly from the kernel arrays (``trans.tobytes()`` + the finals bitmask).
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.automata.dfa import DFA
from repro.automata.kernel import MergeFold, TableDFA
from repro.automata.nfa import NFA
from repro.errors import GraphError

Fingerprint = Hashable


class CompiledPlan:
    """An automaton compiled to dense int transition tables."""

    __slots__ = (
        "num_states",
        "initials",
        "finals",
        "is_final",
        "symbols",
        "symbol_positions",
        "delta",
        "state_moves",
        "_rdelta",
        "_rstate_moves",
        "accepts_empty_word",
        "is_empty_language",
        "fingerprint",
    )

    def __init__(
        self,
        *,
        num_states: int,
        initials: tuple[int, ...],
        finals: frozenset[int],
        symbols: tuple[str, ...],
        delta: tuple[dict[int, tuple[int, ...]], ...],
        fingerprint: Fingerprint,
    ) -> None:
        self.num_states = num_states
        self.initials = initials
        self.finals = finals
        self.is_final = tuple(state in finals for state in range(num_states))
        self.symbols = symbols
        self.symbol_positions = {symbol: pos for pos, symbol in enumerate(symbols)}
        self.delta = delta
        self.state_moves = _group_by_state(delta, num_states)
        self._rdelta: tuple[dict[int, tuple[int, ...]], ...] | None = None
        self._rstate_moves: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] | None = None
        self.accepts_empty_word = any(state in finals for state in initials)
        self.is_empty_language = not self._some_final_reachable()
        self.fingerprint = fingerprint

    @property
    def rdelta(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Predecessor tables, built on first use (only ``evaluate_all`` needs
        them; the forward early-exit kernels never pay for the inversion)."""
        if self._rdelta is None:
            self._rdelta = _reverse(self.delta)
        return self._rdelta

    @property
    def rstate_moves(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per-state backward moves ``(symbol_pos, predecessor states)``."""
        if self._rstate_moves is None:
            self._rstate_moves = _group_by_state(self.rdelta, self.num_states)
        return self._rstate_moves

    def _some_final_reachable(self) -> bool:
        if not self.finals:
            return False
        if self.accepts_empty_word:
            return True
        reached = set(self.initials)
        stack = list(self.initials)
        while stack:
            state = stack.pop()
            for by_state in self.delta:
                for target in by_state.get(state, ()):
                    if target in self.finals:
                        return True
                    if target not in reached:
                        reached.add(target)
                        stack.append(target)
        return False

    def bind_symbols(self, label_ids: dict[str, int]) -> tuple[int, ...]:
        """Map each plan symbol position to the index's label id (or -1).

        The kernels walk a state's own moves and use this array to reach the
        right CSR block; symbols absent from the graph map to -1 and are
        skipped, which is what makes evaluation insensitive to alphabet
        mismatches (a query label the graph never uses just matches nothing).
        """
        return tuple(label_ids.get(symbol, -1) for symbol in self.symbols)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(states={self.num_states}, symbols={len(self.symbols)}, "
            f"empty={self.is_empty_language})"
        )


def _group_by_state(
    tables: tuple[dict[int, tuple[int, ...]], ...], num_states: int
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Regroup per-symbol tables into per-state ``(symbol_pos, states)`` moves.

    The kernels' inner loop iterates a popped state's own moves, so its cost
    scales with the state's out-degree instead of the full bound alphabet.
    """
    moves: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(num_states)]
    for symbol_pos, by_state in enumerate(tables):
        for state, targets in by_state.items():
            moves[state].append((symbol_pos, targets))
    return tuple(tuple(m) for m in moves)


def _reverse(
    delta: tuple[dict[int, tuple[int, ...]], ...]
) -> tuple[dict[int, tuple[int, ...]], ...]:
    """Invert ``delta`` into predecessor tables of the same shape."""
    reversed_tables = []
    for by_state in delta:
        preds: dict[int, list[int]] = {}
        for source, targets in by_state.items():
            for target in targets:
                preds.setdefault(target, []).append(source)
        reversed_tables.append({state: tuple(p) for state, p in preds.items()})
    return tuple(reversed_tables)


def automaton_fingerprint(automaton: DFA | NFA | TableDFA | MergeFold) -> Fingerprint:
    """A structural fingerprint of an automaton (raw state names).

    Two automata with identical states, initials, finals and transitions
    fingerprint identically -- which is enough for plan-cache sharing,
    because :func:`repro.automata.minimize.canonical_dfa` already renames
    states ``0..n-1`` in BFS order: equal queries arrive here structurally
    identical.  Isomorphic automata under *different* namings merely miss
    the cache (and compile to an equivalent plan); deliberately no relabeling
    happens here, since fingerprinting sits on the merge-guard hot path where
    most automata are evaluated exactly once.

    Kernel tables fingerprint from their raw arrays (bytes of the flat
    transition table plus the finals bitmask) -- no per-transition hashing.
    """
    if isinstance(automaton, MergeFold):
        automaton = automaton.to_table()
    if isinstance(automaton, TableDFA):
        return automaton.fingerprint()
    transitions = frozenset(automaton.transitions())
    if isinstance(automaton, DFA):
        return (
            "dfa",
            automaton.alphabet.symbols,
            len(automaton),
            automaton.initial,
            automaton.final_states,
            transitions,
        )
    return (
        "nfa",
        automaton.alphabet.symbols,
        len(automaton),
        automaton.initial_states,
        automaton.final_states,
        transitions,
    )


def compile_plan(
    automaton: DFA | NFA | TableDFA | MergeFold, *, fingerprint: Fingerprint | None = None
) -> CompiledPlan:
    """Flatten a query automaton into a :class:`CompiledPlan`.

    Raises :class:`~repro.errors.GraphError` on NFAs with epsilon
    transitions, matching the reference product construction's contract
    (determinize first).  Kernel tables skip the interning pass entirely:
    their states are already ``0..n-1`` and their transitions are read
    straight off the flat array.
    """
    if isinstance(automaton, MergeFold):
        automaton = automaton.to_table()
    if isinstance(automaton, TableDFA):
        return _compile_table(automaton, fingerprint)
    if isinstance(automaton, NFA):
        if automaton.has_epsilon_transitions:
            raise GraphError("query automata must be epsilon-free; determinize first")
        state_list = sorted(automaton.states, key=repr)
        state_ids = {state: index for index, state in enumerate(state_list)}
        initials = tuple(sorted(state_ids[s] for s in automaton.initial_states))
        finals = frozenset(state_ids[s] for s in automaton.final_states)
        transitions = list(automaton.transitions())
    else:
        state_list = sorted(automaton.states, key=repr)
        state_ids = {state: index for index, state in enumerate(state_list)}
        initials = (state_ids[automaton.initial],)
        finals = frozenset(state_ids[s] for s in automaton.final_states)
        transitions = list(automaton.transitions())

    used_symbols = tuple(sorted({symbol for _, symbol, _ in transitions}))
    symbol_positions = {symbol: pos for pos, symbol in enumerate(used_symbols)}
    num_states = len(state_list)
    tables: list[dict[int, set[int]]] = [{} for _ in used_symbols]
    for source, symbol, target in transitions:
        tables[symbol_positions[symbol]].setdefault(state_ids[source], set()).add(
            state_ids[target]
        )
    delta = tuple(
        {state: tuple(sorted(targets)) for state, targets in by_state.items()}
        for by_state in tables
    )
    return CompiledPlan(
        num_states=num_states,
        initials=initials,
        finals=finals,
        symbols=used_symbols,
        delta=delta,
        fingerprint=(
            automaton_fingerprint(automaton) if fingerprint is None else fingerprint
        ),
    )


def _compile_table(table: TableDFA, fingerprint: Fingerprint | None) -> CompiledPlan:
    """Re-shape a kernel :class:`TableDFA` into a plan without interning."""
    trans, m, n = table.trans, table.m, table.n
    symbols = table.alphabet.symbols
    used_positions = sorted(
        {position for position in range(m) if any(trans[s * m + position] >= 0 for s in range(n))}
    )
    tables: list[dict[int, tuple[int, ...]]] = []
    used_symbols: list[str] = []
    for position in used_positions:
        by_state: dict[int, tuple[int, ...]] = {}
        for state in range(n):
            target = trans[state * m + position]
            if target >= 0:
                by_state[state] = (target,)
        tables.append(by_state)
        used_symbols.append(symbols[position])
    return CompiledPlan(
        num_states=n,
        initials=(table.initial,),
        finals=frozenset(table.iter_finals()),
        symbols=tuple(used_symbols),
        delta=tuple(tables),
        fingerprint=table.fingerprint() if fingerprint is None else fingerprint,
    )
