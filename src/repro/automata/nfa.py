"""Nondeterministic finite word automata (NFA).

The definition follows Appendix A of the paper: an NFA is a tuple
``(Q, Sigma, delta, I, F)`` with a set of initial states ``I`` and a
transition function ``delta : Q x Sigma -> 2^Q``.  We additionally support
epsilon transitions; :meth:`repro.automata.kernel.TableDFA.from_nfa`
removes them.

States may be any hashable value; the graph layer uses graph node
identifiers directly as automaton states, which makes the "graph as an NFA"
view of ``paths_G(nu)`` a zero-copy construction.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.automata.alphabet import Alphabet, Word
from repro.errors import AutomatonError

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

    def outgoing(self, state: State) -> Iterator[tuple[str, State]]:
        """Yield the ``(symbol, target)`` pairs of transitions out of ``state``."""
        for symbol, targets in self._transitions.get(state, {}).items():
            for target in targets:
                yield symbol, target

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
        from collections import deque

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
