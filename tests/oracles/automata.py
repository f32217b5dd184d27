"""The object automata: the vocabulary the oracles are written in.

:class:`NFA` (Appendix A of the paper: a tuple ``(Q, Sigma, delta, I, F)``,
here with optional epsilon moves) and the partial :class:`DFA` keep states
of any hashable value and transitions in nested dicts.  The library computes
on one form only, the kernel :class:`~repro.automata.kernel.TableDFA`;
:func:`table_of` and :func:`dfa_of` carry an automaton across the two, so a
test can build an input by hand, hand it to the library as a table, and
check what comes back against an object-level oracle.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.automata.alphabet import Alphabet, Word
from repro.automata.kernel import NO_STATE, TableDFA
from repro.errors import AutomatonError
from repro.regex.build import compile_table

State = Hashable


class NFA:
    """A nondeterministic finite word automaton with optional epsilon moves."""

    def __init__(
        self,
        alphabet: Alphabet,
        *,
        states: Iterable[State] = (),
        initial: Iterable[State] = (),
        finals: Iterable[State] = (),
    ) -> None:
        self.alphabet = alphabet
        self._states: set[State] = set(states)
        self._initial: set[State] = set(initial)
        self._finals: set[State] = set(finals)
        self._transitions: dict[State, dict[str, set[State]]] = {}
        self._epsilon: dict[State, set[State]] = {}
        self._states.update(self._initial)
        self._states.update(self._finals)

    # -- construction --------------------------------------------------------

    def add_state(self, state: State) -> State:
        """Add a state (idempotent) and return it."""
        self._states.add(state)
        return state

    def add_initial(self, state: State) -> None:
        """Mark ``state`` as initial, adding it if necessary."""
        self._states.add(state)
        self._initial.add(state)

    def add_final(self, state: State) -> None:
        """Mark ``state`` as final (accepting), adding it if necessary."""
        self._states.add(state)
        self._finals.add(state)

    def add_transition(self, source: State, symbol: str, target: State) -> None:
        """Add the transition ``source --symbol--> target``."""
        if symbol not in self.alphabet:
            raise AutomatonError(f"symbol {symbol!r} is not in the alphabet")
        self._states.add(source)
        self._states.add(target)
        self._transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)

    def add_epsilon_transition(self, source: State, target: State) -> None:
        """Add an epsilon (empty-word) transition ``source --> target``."""
        self._states.add(source)
        self._states.add(target)
        self._epsilon.setdefault(source, set()).add(target)

    # -- accessors -----------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        """The set of states."""
        return frozenset(self._states)

    @property
    def initial_states(self) -> frozenset[State]:
        """The set of initial states."""
        return frozenset(self._initial)

    @property
    def final_states(self) -> frozenset[State]:
        """The set of final (accepting) states."""
        return frozenset(self._finals)

    @property
    def has_epsilon_transitions(self) -> bool:
        """Whether any epsilon transition is present."""
        return any(self._epsilon.values())

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (
            f"NFA(states={len(self._states)}, initial={len(self._initial)}, "
            f"finals={len(self._finals)}, transitions={self.transition_count()})"
        )

    def transition_count(self) -> int:
        """The total number of (non-epsilon) transitions."""
        return sum(
            len(targets)
            for by_symbol in self._transitions.values()
            for targets in by_symbol.values()
        )

    def successors(self, state: State, symbol: str) -> frozenset[State]:
        """The states reachable from ``state`` by one ``symbol`` transition."""
        return frozenset(self._transitions.get(state, {}).get(symbol, ()))

    def epsilon_successors(self, state: State) -> frozenset[State]:
        """The targets of epsilon transitions out of ``state``."""
        return frozenset(self._epsilon.get(state, ()))

    def transitions(self) -> Iterator[tuple[State, str, State]]:
        """Yield all (source, symbol, target) transitions."""
        for source, by_symbol in self._transitions.items():
            for symbol, targets in by_symbol.items():
                for target in targets:
                    yield source, symbol, target

    # -- semantics -----------------------------------------------------------

    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        """The epsilon closure of a set of states."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for target in self._epsilon.get(state, ()):
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[State], symbol: str) -> frozenset[State]:
        """One transition step (including closing under epsilon) on ``symbol``."""
        moved: set[State] = set()
        for state in self.epsilon_closure(states):
            moved.update(self._transitions.get(state, {}).get(symbol, ()))
        return self.epsilon_closure(moved)

    def run(self, word: Sequence[str]) -> frozenset[State]:
        """The set of states reachable from the initial states on ``word``."""
        current = self.epsilon_closure(self._initial)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                break
        return current

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the automaton accepts the given word."""
        return bool(self.run(word) & self._finals)

    # -- structural utilities ------------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States reachable from some initial state (via any transitions)."""
        reached = set(self.epsilon_closure(self._initial))
        stack = list(reached)
        while stack:
            state = stack.pop()
            neighbours: set[State] = set(self._epsilon.get(state, ()))
            for targets in self._transitions.get(state, {}).values():
                neighbours.update(targets)
            for target in neighbours:
                if target not in reached:
                    reached.add(target)
                    stack.append(target)
        return frozenset(reached)

    def coreachable_states(self) -> frozenset[State]:
        """States from which some final state is reachable."""
        predecessors: dict[State, set[State]] = {}
        for source, _, target in self.transitions():
            predecessors.setdefault(target, set()).add(source)
        for source, targets in self._epsilon.items():
            for target in targets:
                predecessors.setdefault(target, set()).add(source)
        reached = set(self._finals)
        stack = list(reached)
        while stack:
            state = stack.pop()
            for pred in predecessors.get(state, ()):
                if pred not in reached:
                    reached.add(pred)
                    stack.append(pred)
        return frozenset(reached)

    def trim(self) -> "NFA":
        """Return a copy keeping only states that are reachable and co-reachable."""
        useful = self.reachable_states() & self.coreachable_states()
        trimmed = NFA(
            self.alphabet,
            states=useful,
            initial=self._initial & useful,
            finals=self._finals & useful,
        )
        for source, symbol, target in self.transitions():
            if source in useful and target in useful:
                trimmed.add_transition(source, symbol, target)
        for source, targets in self._epsilon.items():
            if source not in useful:
                continue
            for target in targets:
                if target in useful:
                    trimmed.add_epsilon_transition(source, target)
        return trimmed

    def is_empty(self) -> bool:
        """Whether the accepted language is empty."""
        return not (self.reachable_states() & self._finals)

    def copy(self) -> "NFA":
        """A deep copy of this automaton."""
        other = NFA(
            self.alphabet,
            states=self._states,
            initial=self._initial,
            finals=self._finals,
        )
        for source, symbol, target in self.transitions():
            other.add_transition(source, symbol, target)
        for source, targets in self._epsilon.items():
            for target in targets:
                other.add_epsilon_transition(source, target)
        return other

    def relabeled(self) -> "NFA":
        """Return an isomorphic copy whose states are consecutive integers."""
        mapping = {state: index for index, state in enumerate(self._stable_state_order())}
        other = NFA(
            self.alphabet,
            states=mapping.values(),
            initial=(mapping[s] for s in self._initial),
            finals=(mapping[s] for s in self._finals),
        )
        for source, symbol, target in self.transitions():
            other.add_transition(mapping[source], symbol, mapping[target])
        for source, targets in self._epsilon.items():
            for target in targets:
                other.add_epsilon_transition(mapping[source], mapping[target])
        return other

    def _stable_state_order(self) -> list[State]:
        """A deterministic ordering of states (BFS from initials, then the rest)."""
        order: list[State] = []
        seen: set[State] = set()
        queue: list[State] = sorted(self._initial, key=repr)
        while queue:
            state = queue.pop(0)
            if state in seen:
                continue
            seen.add(state)
            order.append(state)
            successors: set[State] = set(self._epsilon.get(state, ()))
            for targets in self._transitions.get(state, {}).values():
                successors.update(targets)
            queue.extend(sorted(successors - seen, key=repr))
        order.extend(sorted(self._states - seen, key=repr))
        return order

    # -- conversions ----------------------------------------------------------

    def shortest_accepted_word(self) -> Word | None:
        """The canonically smallest accepted word, or None if L is empty.

        Implemented as a breadth-first search over subsets would be costly; a
        BFS over single states suffices for finding *a* shortest word, and
        ties are broken by exploring symbols in alphabet order, which yields
        the lexicographically smallest among the shortest.
        """
        start = self.epsilon_closure(self._initial)
        if start & self._finals:
            return ()
        queue: deque[tuple[frozenset[State], Word]] = deque([(frozenset(start), ())])
        seen: set[frozenset[State]] = {frozenset(start)}
        while queue:
            current, word = queue.popleft()
            for symbol in self.alphabet:
                nxt = self.step(current, symbol)
                if not nxt:
                    continue
                if nxt & self._finals:
                    return word + (symbol,)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, word + (symbol,)))
        return None

    @classmethod
    def from_words(cls, alphabet: Alphabet, words: Iterable[Sequence[str]]) -> "NFA":
        """Build an NFA accepting exactly the given finite set of words."""
        nfa = cls(alphabet)
        root: Any = ("w", 0)
        nfa.add_initial(root)
        counter = 1
        for word in words:
            current = root
            for symbol in word:
                target = ("w", counter)
                counter += 1
                nfa.add_transition(current, symbol, target)
                current = target
            nfa.add_final(current)
        return nfa


class _SinkState:
    """The unique rejecting sink state added by :meth:`DFA.completed`.

    A dedicated sentinel *object* rather than a string: a user state
    literally named ``"__sink__"`` must never collide with the sink that
    completion introduces (it used to, silently corrupting the completed
    automaton).  Identity is the only equality that matters here, so the
    class carries no state.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<sink>"


#: The rejecting sink state added by :meth:`DFA.completed`.
SINK = _SinkState()


class DFA:
    """A (partial) deterministic finite word automaton."""

    def __init__(
        self,
        alphabet: Alphabet,
        *,
        initial: State,
        states: Iterable[State] = (),
        finals: Iterable[State] = (),
    ) -> None:
        self.alphabet = alphabet
        self.initial: State = initial
        self._states: set[State] = set(states)
        self._states.add(initial)
        self._finals: set[State] = set(finals)
        self._states.update(self._finals)
        self._transitions: dict[State, dict[str, State]] = {}

    # -- construction --------------------------------------------------------

    def add_final(self, state: State) -> None:
        """Mark ``state`` as accepting, adding it if necessary."""
        self._states.add(state)
        self._finals.add(state)

    def set_final(self, state: State, final: bool) -> None:
        """Set whether ``state`` is accepting."""
        self._states.add(state)
        if final:
            self._finals.add(state)
        else:
            self._finals.discard(state)

    def add_transition(self, source: State, symbol: str, target: State) -> None:
        """Add the deterministic transition ``source --symbol--> target``.

        Raises :class:`AutomatonError` if a different transition on the same
        symbol already leaves ``source``.
        """
        if symbol not in self.alphabet:
            raise AutomatonError(f"symbol {symbol!r} is not in the alphabet")
        existing = self._transitions.get(source, {}).get(symbol)
        if existing is not None and existing != target:
            raise AutomatonError(
                f"state {source!r} already has a transition on {symbol!r} to {existing!r}"
            )
        self._states.add(source)
        self._states.add(target)
        self._transitions.setdefault(source, {})[symbol] = target

    # -- accessors -----------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        """The set of states."""
        return frozenset(self._states)

    @property
    def final_states(self) -> frozenset[State]:
        """The set of accepting states."""
        return frozenset(self._finals)

    def is_final(self, state: State) -> bool:
        """Whether ``state`` is accepting."""
        return state in self._finals

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (
            f"DFA(states={len(self._states)}, finals={len(self._finals)}, "
            f"transitions={self.transition_count()})"
        )

    def transition_count(self) -> int:
        """The number of transitions."""
        return sum(len(by_symbol) for by_symbol in self._transitions.values())

    def delta(self, state: State, symbol: str) -> State | None:
        """The successor of ``state`` on ``symbol``, or None if undefined."""
        return self._transitions.get(state, {}).get(symbol)

    def outgoing(self, state: State) -> Iterator[tuple[str, State]]:
        """Yield the ``(symbol, target)`` transitions leaving ``state``."""
        yield from self._transitions.get(state, {}).items()

    def transitions(self) -> Iterator[tuple[State, str, State]]:
        """Yield all (source, symbol, target) transitions."""
        for source, by_symbol in self._transitions.items():
            for symbol, target in by_symbol.items():
                yield source, symbol, target

    # -- semantics -----------------------------------------------------------

    def run(self, word: Sequence[str]) -> State | None:
        """The state reached on ``word``, or None if the run dies."""
        state: State | None = self.initial
        for symbol in word:
            if state is None:
                return None
            state = self.delta(state, symbol)
        return state

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the automaton accepts the given word."""
        state = self.run(word)
        return state is not None and state in self._finals

    def is_empty(self) -> bool:
        """Whether the accepted language is empty."""
        return not (self.reachable_states() & self._finals)

    def shortest_accepted_word(self) -> Word | None:
        """The canonically smallest accepted word, or None if L is empty."""
        if self.initial in self._finals:
            return ()
        queue: deque[tuple[State, Word]] = deque([(self.initial, ())])
        seen: set[State] = {self.initial}
        while queue:
            state, word = queue.popleft()
            for symbol in self.alphabet:
                target = self.delta(state, symbol)
                if target is None:
                    continue
                if target in self._finals:
                    return word + (symbol,)
                if target not in seen:
                    seen.add(target)
                    queue.append((target, word + (symbol,)))
        return None

    # -- structural utilities ------------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States reachable from the initial state."""
        reached: set[State] = {self.initial}
        stack: list[State] = [self.initial]
        while stack:
            state = stack.pop()
            for _, target in self.outgoing(state):
                if target not in reached:
                    reached.add(target)
                    stack.append(target)
        return frozenset(reached)

    def trim(self) -> "DFA":
        """Return a copy keeping only reachable and co-reachable states.

        The initial state is always kept (even if the language is empty) so
        the result remains a well-formed DFA.
        """
        reachable = self.reachable_states()
        predecessors: dict[State, set[State]] = {}
        for source, _, target in self.transitions():
            predecessors.setdefault(target, set()).add(source)
        coreachable: set[State] = set(self._finals)
        stack = list(coreachable)
        while stack:
            state = stack.pop()
            for pred in predecessors.get(state, ()):
                if pred not in coreachable:
                    coreachable.add(pred)
                    stack.append(pred)
        useful = (reachable & frozenset(coreachable)) | {self.initial}
        trimmed = DFA(
            self.alphabet,
            initial=self.initial,
            states=useful,
            finals=self._finals & useful,
        )
        for source, symbol, target in self.transitions():
            if source in useful and target in useful:
                trimmed.add_transition(source, symbol, target)
        return trimmed

    def completed(self) -> "DFA":
        """Return a complete copy (every state has a transition on every symbol).

        Missing transitions are redirected to a fresh rejecting sink state.
        """
        complete = DFA(
            self.alphabet,
            initial=self.initial,
            states=self._states,
            finals=self._finals,
        )
        needs_sink = False
        for state in self._states:
            for symbol in self.alphabet:
                target = self.delta(state, symbol)
                if target is None:
                    needs_sink = True
                    complete.add_transition(state, symbol, SINK)
                else:
                    complete.add_transition(state, symbol, target)
        if needs_sink:
            for symbol in self.alphabet:
                complete.add_transition(SINK, symbol, SINK)
        return complete

    def complement(self) -> "DFA":
        """Return a DFA for the complement language (over the same alphabet)."""
        complete = self.completed()
        result = DFA(
            self.alphabet,
            initial=complete.initial,
            states=complete.states,
            finals=complete.states - complete.final_states,
        )
        for source, symbol, target in complete.transitions():
            result.add_transition(source, symbol, target)
        return result

    def copy(self) -> "DFA":
        """A deep copy of this automaton."""
        other = DFA(
            self.alphabet,
            initial=self.initial,
            states=self._states,
            finals=self._finals,
        )
        for source, symbol, target in self.transitions():
            other.add_transition(source, symbol, target)
        return other

    def relabeled(self) -> "DFA":
        """An isomorphic copy whose states are 0..n-1 in BFS order.

        Because the BFS explores symbols in alphabet order, two isomorphic
        DFAs relabel to structurally identical automata, which gives a cheap
        isomorphism test used by the test suite.
        """
        return dfa_of(table_of(self))

    def structurally_equal(self, other: "DFA") -> bool:
        """Whether the two DFAs are isomorphic (after BFS relabeling)."""
        left = self.trim().relabeled()
        right = other.trim().relabeled()
        if left.alphabet != right.alphabet:
            return False
        if left.states != right.states or left.final_states != right.final_states:
            return False
        return dict(left._transitions) == dict(right._transitions)

    # -- conversions ----------------------------------------------------------

    def to_nfa(self) -> NFA:
        """View this DFA as an NFA (copies the structure)."""
        nfa = NFA(
            self.alphabet,
            states=self._states,
            initial=[self.initial],
            finals=self._finals,
        )
        for source, symbol, target in self.transitions():
            nfa.add_transition(source, symbol, target)
        return nfa

    @classmethod
    def single_word(cls, alphabet: Alphabet, word: Sequence[str]) -> "DFA":
        """A DFA accepting exactly the one given word."""
        dfa = cls(alphabet, initial=0)
        current = 0
        for index, symbol in enumerate(word, start=1):
            dfa.add_transition(current, symbol, index)
            current = index
        dfa.add_final(current)
        return dfa


def table_of(automaton: DFA | NFA) -> TableDFA:
    """The automaton int-coded as a kernel table (not canonicalised).

    A DFA's states are numbered breadth first from the initial state,
    symbols in alphabet order (isomorphic DFAs give identical tables), its
    unreachable states after them, sorted by ``repr``.  An NFA goes through
    the object subset construction first (``oracles.determinize``).
    """
    if isinstance(automaton, NFA):
        from oracles.determinize import reference_determinize

        automaton = reference_determinize(automaton)
    alphabet = automaton.alphabet
    order: list = [automaton.initial]
    ids = {automaton.initial: 0}
    for state in order:  # grows while iterated: a BFS queue
        for symbol in alphabet:
            target = automaton.delta(state, symbol)
            if target is not None and target not in ids:
                ids[target] = len(order)
                order.append(target)
    for state in sorted(automaton.states - ids.keys(), key=repr):
        ids[state] = len(order)
        order.append(state)
    n, m = len(order), len(alphabet)
    trans = array("i", [NO_STATE] * (n * m))
    for source, symbol, target in automaton.transitions():
        trans[ids[source] * m + alphabet.index(symbol)] = ids[target]
    finals = sum(1 << ids[state] for state in automaton.final_states)
    return TableDFA(alphabet, n=n, trans=trans, finals=finals)


def dfa_of(table: TableDFA, states: Sequence | None = None) -> DFA:
    """The table as a :class:`DFA`; ``states[i]`` names table state ``i``."""
    labels: Sequence = range(table.n) if states is None else states
    dfa = DFA(
        table.alphabet,
        initial=labels[table.initial],
        states=(labels[s] for s in range(table.n)),
        finals=(labels[s] for s in table.iter_finals()),
    )
    symbols, m = table.alphabet.symbols, table.m
    for code, target in enumerate(table.trans):
        if target >= 0:
            dfa.add_transition(labels[code // m], symbols[code % m], labels[target])
    return dfa


def compile_dfa(expression, alphabet=None) -> DFA:
    """An expression's canonical table (``compile_table``) as a :class:`DFA`."""
    return dfa_of(compile_table(expression, alphabet))
