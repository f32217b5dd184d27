"""The int-coded automata kernel: the one automaton form of the library.

Every layer -- the regex compiler, the learners, the planner and the query
engine's walks -- computes on the dense representation defined here:

* :class:`TableDFA` -- states are ``0..n-1``, symbols are the interned ids
  of an :class:`~repro.automata.alphabet.Alphabet` (``0..m-1``), the
  transition function is one flat ``array('i')`` of size ``n * m`` with
  ``-1`` for missing transitions, and the accepting set is an int bitmask.
  :meth:`TableDFA.canonical` is the paper's canonical DFA (a query's size is
  its state count).
* Kernel-native algorithms -- PTA construction from interned words
  (:func:`pta_table`), Hopcroft minimization (:meth:`TableDFA.minimized`),
  language inclusion on the reachable product
  (:func:`language_included_tables`) and batched membership
  (:meth:`TableDFA.accepts_many`).
* :class:`MergeFold` -- the union-find RPNI merge-and-fold: candidate
  merges are applied *in place* against an undo log (:meth:`MergeFold.mark` /
  :meth:`MergeFold.rollback`), so the learner's merge loop never clones the
  hypothesis automaton.  :func:`fold_generalize` is the red-blue loop of
  Algorithm 1 run directly on the fold.

The engine's walks (:func:`repro.engine.executor.bind`) read the kernel
arrays directly.  Object-level automata with hashable states are the
vocabulary of the test oracles (``tests/oracles/automata.py``), not of the
library.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.automata.alphabet import Alphabet, Word
from repro.errors import AutomatonError, LearningError

#: Sentinel for a missing transition in a transition table.
NO_STATE = -1


class TableAutomaton:
    """Marker base for kernel automata the engine can walk without compiling.

    Subclasses (:class:`TableDFA` and :class:`MergeFold`) expose the uniform
    walk protocol used by the engine's ephemeral kernels:

    * ``alphabet`` -- the interning :class:`Alphabet`;
    * :meth:`kernel_walk` -- ``(trans, m, find, finals_mask, initial)``
      where ``trans`` is the flat transition array, ``m`` the symbol count,
      ``find`` an optional state-canonicalizer (``None`` when states are
      already canonical) and ``finals_mask`` the accepting bitmask;
    * :meth:`bind_labels` -- symbol id -> graph label id pairing.
    """

    __slots__ = ()

    alphabet: Alphabet

    def kernel_walk(self) -> tuple[array, int, Callable[[int], int] | None, int, int]:
        raise NotImplementedError

    def bind_labels(self, label_ids: dict[str, int]) -> list[int]:
        """Map each interned symbol id to a graph label id (or -1 if absent)."""
        return [label_ids.get(symbol, -1) for symbol in self.alphabet.symbols]


class TableDFA(TableAutomaton):
    """A (partial) DFA over dense int states and interned symbol ids.

    The canonical in-memory automaton of the repository: ``n`` states
    ``0..n-1`` (``initial`` is one of them), ``m = len(alphabet)`` symbols,
    ``trans[s * m + c]`` the successor of state ``s`` on symbol id ``c`` (or
    :data:`NO_STATE`), and ``finals`` an int bitmask of accepting states.
    """

    __slots__ = ("alphabet", "n", "m", "initial", "trans", "finals")

    def __init__(
        self,
        alphabet: Alphabet,
        *,
        n: int,
        trans: array,
        finals: int,
        initial: int = 0,
    ) -> None:
        self.alphabet = alphabet
        self.n = n
        self.m = len(alphabet)
        if len(trans) != n * self.m:
            raise AutomatonError(
                f"transition table has {len(trans)} entries, expected {n * self.m}"
            )
        if not 0 <= initial < max(n, 1):
            raise AutomatonError(f"initial state {initial} out of range")
        self.initial = initial
        self.trans = trans
        self.finals = finals

    # -- constructors --------------------------------------------------------

    @classmethod
    def blank(cls, alphabet: Alphabet, n: int) -> "TableDFA":
        """An ``n``-state automaton with no transitions and no finals."""
        return cls(alphabet, n=n, trans=array("i", [NO_STATE] * (n * len(alphabet))), finals=0)

    # -- protocol ------------------------------------------------------------

    def kernel_walk(self):
        return self.trans, self.m, None, self.finals, self.initial

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"TableDFA(states={self.n}, symbols={self.m}, "
            f"finals={bin(self.finals).count('1')})"
        )

    # -- accessors -----------------------------------------------------------

    def is_final(self, state: int) -> bool:
        """Whether the given table state is accepting."""
        return bool((self.finals >> state) & 1)

    def iter_finals(self) -> Iterator[int]:
        """Yield the accepting states in increasing order."""
        mask, state = self.finals, 0
        while mask:
            if mask & 1:
                yield state
            mask >>= 1
            state += 1

    def transition_count(self) -> int:
        """The number of present transitions."""
        return sum(1 for target in self.trans if target >= 0)

    def fingerprint(self) -> tuple:
        """A hashable structural fingerprint computed from the raw arrays."""
        return (
            "tdfa",
            self.alphabet.symbols,
            self.n,
            self.initial,
            self.finals,
            self.trans.tobytes(),
        )

    # -- semantics -----------------------------------------------------------

    def encode(self, word: Sequence[str]) -> tuple[int, ...]:
        """Intern a word of symbols into a tuple of symbol ids."""
        index = self.alphabet.index
        return tuple(index(symbol) for symbol in word)

    def run_ids(self, word_ids: Sequence[int]) -> int:
        """The state reached on an interned word, or -1 if the run dies."""
        state, trans, m = self.initial, self.trans, self.m
        for symbol_id in word_ids:
            state = trans[state * m + symbol_id]
            if state < 0:
                return NO_STATE
        return state

    def accepts_ids(self, word_ids: Sequence[int]) -> bool:
        """Whether the automaton accepts an interned word."""
        state = self.run_ids(word_ids)
        return state >= 0 and bool((self.finals >> state) & 1)

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the automaton accepts the given word of symbols."""
        return self.accepts_ids(self.encode(word))

    def accepts_many(self, words: Iterable[Sequence[str]]) -> list[bool]:
        """Batched membership: one bool per input word, in input order.

        Interns every word once and walks the flat table -- the example-set
        consistency checks of the learner and the evaluation metrics hit
        this instead of per-word ``DFA.accepts`` dict chains.
        """
        index = self.alphabet.index
        trans, m, finals = self.trans, self.m, self.finals
        results: list[bool] = []
        for word in words:
            state = self.initial
            for symbol in word:
                state = trans[state * m + index(symbol)]
                if state < 0:
                    break
            results.append(state >= 0 and bool((finals >> state) & 1))
        return results

    def is_empty_language(self) -> bool:
        """Whether no accepting state is reachable from the initial state."""
        if not self.finals:
            return True
        trans, m, finals = self.trans, self.m, self.finals
        seen = bytearray(self.n)
        seen[self.initial] = 1
        stack = [self.initial]
        while stack:
            state = stack.pop()
            if (finals >> state) & 1:
                return False
            base = state * m
            for position in range(m):
                target = trans[base + position]
                if target >= 0 and not seen[target]:
                    seen[target] = 1
                    stack.append(target)
        return True

    def shortest_word(self) -> Word | None:
        """The canonically smallest accepted word, or None if L is empty."""
        if (self.finals >> self.initial) & 1:
            return ()
        symbols = self.alphabet.symbols
        trans, m, finals = self.trans, self.m, self.finals
        seen = bytearray(self.n)
        seen[self.initial] = 1
        queue: deque[tuple[int, Word]] = deque([(self.initial, ())])
        while queue:
            state, word = queue.popleft()
            base = state * m
            for position in range(m):
                target = trans[base + position]
                if target < 0:
                    continue
                if (finals >> target) & 1:
                    return word + (symbols[position],)
                if not seen[target]:
                    seen[target] = 1
                    queue.append((target, word + (symbols[position],)))
        return None

    # -- structure -----------------------------------------------------------

    def reachable_mask(self) -> bytearray:
        """Byte-per-state reachability flags from the initial state."""
        trans, m = self.trans, self.m
        seen = bytearray(self.n)
        seen[self.initial] = 1
        stack = [self.initial]
        while stack:
            state = stack.pop()
            base = state * m
            for position in range(m):
                target = trans[base + position]
                if target >= 0 and not seen[target]:
                    seen[target] = 1
                    stack.append(target)
        return seen

    def coreachable_mask(self) -> bytearray:
        """Byte-per-state flags of states from which a final is reachable."""
        preds: list[list[int]] = [[] for _ in range(self.n)]
        trans, m = self.trans, self.m
        for source in range(self.n):
            base = source * m
            for position in range(m):
                target = trans[base + position]
                if target >= 0:
                    preds[target].append(source)
        seen = bytearray(self.n)
        stack: list[int] = []
        for state in self.iter_finals():
            seen[state] = 1
            stack.append(state)
        while stack:
            state = stack.pop()
            for pred in preds[state]:
                if not seen[pred]:
                    seen[pred] = 1
                    stack.append(pred)
        return seen

    def trimmed(self) -> "TableDFA":
        """Reachable-and-coreachable restriction, renumbered in BFS order.

        The initial state is always kept (possibly with no transitions), so
        the result stays a well-formed automaton even for the empty
        language.  The BFS renumbering makes ``canonical()`` a normal form.
        """
        reachable = self.reachable_mask()
        coreachable = self.coreachable_mask()
        useful = bytearray(
            1 if (reachable[s] and coreachable[s]) else 0 for s in range(self.n)
        )
        useful[self.initial] = 1
        trans, m = self.trans, self.m
        order: list[int] = [self.initial]
        ids = {self.initial: 0}
        queue = deque([self.initial])
        while queue:
            state = queue.popleft()
            base = state * m
            for position in range(m):
                target = trans[base + position]
                if target >= 0 and useful[target] and target not in ids:
                    ids[target] = len(order)
                    order.append(target)
                    queue.append(target)
        new_n = len(order)
        new_trans = array("i", [NO_STATE] * (new_n * m))
        finals = 0
        for new_id, old in enumerate(order):
            if (self.finals >> old) & 1:
                finals |= 1 << new_id
            base, new_base = old * m, new_id * m
            for position in range(m):
                target = trans[base + position]
                if target >= 0 and useful[target]:
                    new_trans[new_base + position] = ids[target]
        return TableDFA(self.alphabet, n=new_n, trans=new_trans, finals=finals, initial=0)

    def completed(self) -> "TableDFA":
        """A complete copy: missing transitions redirected to a sink state.

        The sink (index ``n``) is appended only when some transition is
        missing; a complete input is returned unchanged.
        """
        if all(target >= 0 for target in self.trans):
            return self
        m = self.m
        n = self.n + 1
        sink = self.n
        trans = array("i", self.trans)
        for position in range(len(trans)):
            if trans[position] < 0:
                trans[position] = sink
        trans.extend([sink] * m)
        return TableDFA(self.alphabet, n=n, trans=trans, finals=self.finals, initial=self.initial)

    def minimized(self) -> "TableDFA":
        """The minimal *complete* equivalent automaton (Hopcroft).

        The result may include a rejecting sink block when the language is
        not ``Sigma*``-total; :meth:`canonical` trims it away.  Blocks are
        renumbered in BFS order from the initial block for determinism.
        """
        complete = self.completed()
        block_of, block_count = _hopcroft(
            complete.n, complete.m, complete.trans, complete.finals
        )
        m = complete.m
        # One representative per block is enough to read off the quotient.
        representative = [NO_STATE] * block_count
        for state in range(complete.n):
            if representative[block_of[state]] < 0:
                representative[block_of[state]] = state
        # BFS renumber blocks from the initial block.
        order: list[int] = [block_of[complete.initial]]
        ids = {order[0]: 0}
        queue = deque(order)
        while queue:
            block = queue.popleft()
            base = representative[block] * m
            for position in range(m):
                target_block = block_of[complete.trans[base + position]]
                if target_block not in ids:
                    ids[target_block] = len(order)
                    order.append(target_block)
                    queue.append(target_block)
        for block in range(block_count):  # unreachable blocks (none after trim)
            if block not in ids:
                ids[block] = len(order)
                order.append(block)
        new_n = len(order)
        trans = array("i", [NO_STATE] * (new_n * m))
        finals = 0
        for new_id, block in enumerate(order):
            state = representative[block]
            if (complete.finals >> state) & 1:
                finals |= 1 << new_id
            base, new_base = state * m, new_id * m
            for position in range(m):
                trans[new_base + position] = ids[block_of[complete.trans[base + position]]]
        return TableDFA(self.alphabet, n=new_n, trans=trans, finals=finals, initial=0)

    def canonical(self) -> "TableDFA":
        """The canonical DFA: minimal, trimmed, states in BFS order.

        This is the paper's query representation (partial, no sink, no dead
        states); equal languages over equal alphabets produce *identical*
        tables, which is what the plan cache fingerprints rely on.
        """
        return self.trimmed().minimized().trimmed()

    def reindexed(self, alphabet: Alphabet) -> "TableDFA":
        """The same automaton over a (super-)alphabet, symbol ids remapped."""
        if alphabet == self.alphabet:
            return self
        positions = []
        for symbol in self.alphabet.symbols:
            if symbol not in alphabet:
                raise AutomatonError(f"symbol {symbol!r} missing from the target alphabet")
            positions.append(alphabet.index(symbol))
        new_m = len(alphabet)
        trans = array("i", [NO_STATE] * (self.n * new_m))
        for state in range(self.n):
            base, new_base = state * self.m, state * new_m
            for old_position, new_position in enumerate(positions):
                trans[new_base + new_position] = self.trans[base + old_position]
        return TableDFA(
            alphabet, n=self.n, trans=trans, finals=self.finals, initial=self.initial
        )


# -- Hopcroft ------------------------------------------------------------------


def _hopcroft(n: int, m: int, trans: array, finals: int) -> tuple[list[int], int]:
    """Hopcroft partition refinement on a *complete* transition table.

    Returns ``(block_of, block_count)``.  ``O(m * n * log n)`` with the
    usual process-smaller-half worklist; the worklist holds block ids and a
    split keeps the shrunken block's id pending ("replace by both halves").
    """
    accepting = [s for s in range(n) if (finals >> s) & 1]
    rejecting = [s for s in range(n) if not (finals >> s) & 1]
    if not accepting or not rejecting:
        return [0] * n, 1

    # Per-symbol predecessor lists (flat: preds[c][q] = states p with p--c-->q).
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(m)]
    for source in range(n):
        base = source * m
        for position in range(m):
            preds[position][trans[base + position]].append(source)

    partition: list[set[int]] = [set(accepting), set(rejecting)]
    block_of = [0] * n
    for state in rejecting:
        block_of[state] = 1
    worklist: set[int] = {0 if len(accepting) <= len(rejecting) else 1}

    while worklist:
        splitter = list(partition[worklist.pop()])
        for position in range(m):
            by_target = preds[position]
            touched: dict[int, list[int]] = {}
            for target in splitter:
                for source in by_target[target]:
                    touched.setdefault(block_of[source], []).append(source)
            for block_id, members in touched.items():
                block = partition[block_id]
                if len(members) == len(block):
                    continue
                moved = set(members)
                partition[block_id] = block - moved
                new_id = len(partition)
                partition.append(moved)
                for state in moved:
                    block_of[state] = new_id
                if block_id in worklist:
                    worklist.add(new_id)
                else:
                    worklist.add(
                        block_id if len(partition[block_id]) <= len(moved) else new_id
                    )
    return block_of, len(partition)


# -- PTA -----------------------------------------------------------------------


def pta_table(alphabet: Alphabet, words: Iterable[Sequence[str]]) -> TableDFA:
    """The prefix tree acceptor of ``words`` as a :class:`TableDFA`.

    States are numbered in the *canonical order* of their prefixes (breadth
    first, symbols in alphabet order), so plain int comparison of state ids
    realizes the merge order Algorithm 1 and RPNI rely on.
    """
    index = alphabet.index
    m = len(alphabet)
    # Trie over symbol ids: children[node][symbol_id] -> node.
    children: list[dict[int, int]] = [{}]
    accepting: set[int] = set()
    for word in words:
        node = 0
        for symbol in word:
            symbol_id = index(symbol)
            nxt = children[node].get(symbol_id)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[node][symbol_id] = nxt
            node = nxt
        accepting.add(node)

    # Canonical (BFS, symbol-ordered) renumbering of the trie.
    order: list[int] = [0]
    ids = {0: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for symbol_id in sorted(children[node]):
            child = children[node][symbol_id]
            ids[child] = len(order)
            order.append(child)
            queue.append(child)

    n = len(order)
    trans = array("i", [NO_STATE] * (n * m))
    finals = 0
    for node, node_id in ids.items():
        if node in accepting:
            finals |= 1 << node_id
        base = node_id * m
        for symbol_id, child in children[node].items():
            trans[base + symbol_id] = ids[child]
    return TableDFA(alphabet, n=n, trans=trans, finals=finals, initial=0)


# -- inclusion -----------------------------------------------------------------


def language_included_tables(left: TableDFA, right: TableDFA) -> bool:
    """Whether ``L(left)`` is a subset of ``L(right)`` (same alphabet).

    Linear in the reachable product: walk ``left`` paired with ``right``
    (``-1`` standing for right's implicit dead sink) and fail on any pair
    that is left-accepting but not right-accepting.  This replaces the
    exponential complement-then-intersect route for the common DFA/DFA case.
    """
    if left.alphabet != right.alphabet:
        raise AutomatonError("inclusion requires a common alphabet; reindex first")
    m = left.m
    lt, rt = left.trans, right.trans
    lf, rf = left.finals, right.finals

    def right_accepts(state: int) -> bool:
        return state >= 0 and bool((rf >> state) & 1)

    start = (left.initial, right.initial)
    if ((lf >> start[0]) & 1) and not right_accepts(start[1]):
        return False
    seen = {start}
    queue = deque([start])
    while queue:
        left_state, right_state = queue.popleft()
        lbase = left_state * m
        rbase = right_state * m if right_state >= 0 else -1
        for position in range(m):
            left_target = lt[lbase + position]
            if left_target < 0:
                continue
            right_target = rt[rbase + position] if rbase >= 0 else NO_STATE
            if ((lf >> left_target) & 1) and not right_accepts(right_target):
                return False
            pair = (left_target, right_target)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


# -- the RPNI fold -------------------------------------------------------------

_UNION = 0
_TRANS = 1


class MergeFold(TableAutomaton):
    """In-place RPNI merge-and-fold over a :class:`TableDFA` with undo.

    A union-find over the table's states; each class is one hypothesis
    state, represented by the class *root*: its smallest member id.  For
    tables built by :func:`pta_table` state ids realize the canonical word
    order, so the root is the canonically smallest prefix of the class --
    the access-word representative classical RPNI orders by.  (The legacy
    object-level merge picked representatives in set-iteration order, which
    silently depended on Python's hash seed; plain int-min is the
    deterministic, canonical choice.)  Each root's transition row holds the
    folded row of its class -- targets may be stale members whose class has
    since grown, so readers canonicalize targets with :meth:`find`.

    Candidate merges mutate the fold directly; :meth:`mark` /
    :meth:`rollback` bracket a speculative merge (the undo log records
    every union and row write), and :meth:`commit` freezes an accepted
    merge (compressing the union-find paths and starting a new log).  The
    learner loop therefore never copies the automaton: a rejected candidate
    costs exactly the work of undoing its own writes (:meth:`changes` and
    the ``_id`` methods say what moved, and which candidate a commit kept).

    ``rejecting`` masks states outside the language (an augmented PTA's):
    :meth:`merge` refuses to make their class final (``refused`` counts).
    """

    __slots__ = (
        "alphabet",
        "n",
        "m",
        "_parent",
        "_trans",
        "finals",
        "rejecting",
        "refused",
        "_initial",
        "_log",
        "_commit",
    )

    def __init__(self, table: TableDFA, rejecting: int = 0) -> None:
        self.alphabet = table.alphabet
        self.n = table.n
        self.m = table.m
        self._parent = list(range(table.n))
        self._trans = array("i", table.trans)
        self.finals, self.rejecting, self.refused = table.finals, rejecting, 0
        self._initial = table.initial
        # (_UNION, child, root) per union, (_TRANS, slot, old target) per row write.
        self._log: list[tuple[int, int, int]] = []
        self._commit: tuple[int, tuple] = (0, ())  # commit count, that commit's log

    # -- union-find ----------------------------------------------------------

    def find(self, state: int) -> int:
        """The root (representative) of ``state``'s class.

        No path compression here: parent edges written since the last
        :meth:`commit` may be rolled back, so speculative reads must not
        rewrite them.  :meth:`commit` compresses everything in one pass.
        """
        parent = self._parent
        while parent[state] != state:
            state = parent[state]
        return state

    @property
    def initial(self) -> int:
        """The root of the class containing the original initial state."""
        return self.find(self._initial)

    def roots(self) -> list[int]:
        """The class roots (the hypothesis states), in increasing id order."""
        parent = self._parent
        return [state for state in range(self.n) if parent[state] == state]

    def kernel_walk(self):
        return self._trans, self.m, self.find, self.finals, self.initial

    def moves(self, root: int) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol id, target root)`` for the class rooted at ``root``."""
        trans, find = self._trans, self.find
        base = root * self.m
        for position in range(self.m):
            target = trans[base + position]
            if target >= 0:
                yield position, find(target)

    # -- speculative merging -------------------------------------------------

    def mark(self) -> tuple[int, int, int]:
        """A checkpoint to :meth:`rollback` to (log position, finals, rejecting)."""
        return len(self._log), self.finals, self.rejecting

    def merge(self, keep: int, remove: int) -> bool:
        """Merge ``remove``'s class into ``keep``'s and fold to determinism.

        Exactly the classical merge-and-fold: when the union makes two
        transitions on one symbol leave the merged class towards different
        classes, those targets are merged in turn.  The smaller root wins
        every union, so a class is always represented by its canonically
        smallest member.  All mutations are appended to the undo log.
        False, mid-fold, at the first union that makes a rejecting class final.
        """
        trans, parent, m = self._trans, self._parent, self.m
        log = self._log
        pending = [(keep, remove)]
        while pending:
            left, right = pending.pop()
            root, child = self.find(left), self.find(right)
            if root == child:
                continue
            if child < root:
                root, child = child, root
            log.append((_UNION, child, root))
            parent[child] = root
            self.finals |= (self.finals >> child & 1) << root
            self.rejecting |= (self.rejecting >> child & 1) << root
            if (self.finals & self.rejecting) >> root & 1:
                self.refused += 1
                return False
            root_base, child_base = root * m, child * m
            for position in range(m):
                child_target = trans[child_base + position]
                if child_target < 0:
                    continue
                root_target = trans[root_base + position]
                if root_target < 0:
                    log.append((_TRANS, root_base + position, NO_STATE))
                    trans[root_base + position] = child_target
                elif self.find(root_target) != self.find(child_target):
                    pending.append((root_target, child_target))
        return True

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Undo every mutation after ``mark`` (a rejected candidate merge)."""
        position, self.finals, self.rejecting = mark
        log, parent, trans = self._log, self._parent, self._trans
        while len(log) > position:
            kind, where, value = log.pop()
            if kind == _UNION:
                parent[where] = where  # a union's child was a root
            else:
                trans[where] = value

    def commit(self) -> None:
        """Accept the speculative merges: compress paths, start a new log."""
        parent, find = self._parent, self.find
        for state in range(self.n):
            parent[state] = find(state)
        self._commit = self.candidate_id()
        self._log.clear()

    def changes(self) -> tuple[list[int], list[int]]:
        """The states absorbed into another class since the last commit (roots
        then) and those whose rows were written: any other class is unchanged."""
        absorbed = [where for kind, where, _ in self._log if kind == _UNION]
        rewritten = [where // self.m for kind, where, _ in self._log if kind == _TRANS]
        return absorbed, rewritten

    def commit_id(self) -> tuple[int, tuple]:
        """Names the committed hypothesis: the commit count and that commit's log."""
        return self._commit

    def candidate_id(self) -> tuple[int, tuple]:
        """Names the current hypothesis: its :meth:`commit_id` once committed.
        A union entry names its root, so the log fixes the hypothesis."""
        return (self._commit[0] + 1, tuple(self._log)) if self._log else self._commit

    # -- semantics ------------------------------------------------------------

    def accepts_ids(self, word_ids: Sequence[int]) -> bool:
        """Whether the current hypothesis accepts an interned word."""
        trans, m, find = self._trans, self.m, self.find
        state = self.initial
        for symbol_id in word_ids:
            target = trans[state * m + symbol_id]
            if target < 0:
                return False
            state = find(target)
        return bool((self.finals >> state) & 1)

    def accepts(self, word: Sequence[str]) -> bool:
        """Whether the current hypothesis accepts a word of symbols."""
        index = self.alphabet.index
        return self.accepts_ids([index(symbol) for symbol in word])

    def __repr__(self) -> str:
        return f"MergeFold(classes={len(self.roots())}, of={self.n})"

    # -- materialization ------------------------------------------------------

    def to_table(self) -> TableDFA:
        """The quotient automaton as a compact :class:`TableDFA`.

        Roots are renumbered in increasing id order, which preserves the
        canonical ordering of PTA-built inputs.
        """
        roots = self.roots()
        ids = {root: index for index, root in enumerate(roots)}
        m, find = self.m, self.find
        trans = array("i", [NO_STATE] * (len(roots) * m))
        finals = 0
        for new_id, root in enumerate(roots):
            if (self.finals >> root) & 1:
                finals |= 1 << new_id
            base, new_base = root * m, new_id * m
            for position in range(m):
                target = self._trans[base + position]
                if target >= 0:
                    trans[new_base + position] = ids[find(target)]
        return TableDFA(
            self.alphabet,
            n=len(roots),
            trans=trans,
            finals=finals,
            initial=ids[self.initial],
        )


def fold_generalize(
    table: TableDFA,
    violates: Callable[[MergeFold], bool],
    *,
    max_merges: int | None = None,
    rejecting: int = 0,
) -> MergeFold:
    """Algorithm 1's red-blue generalization run in place on a fold.

    ``violates(fold)`` is the merge guard: it sees the *current hypothesis*
    (the fold itself, walkable by the engine's ephemeral kernels and by
    ``accepts``/``accepts_ids``) and must return True when it is
    unacceptable (e.g. selects a negative node).  A candidate merge is kept
    only if the merged fold passes; rejected candidates are rolled back in
    place, so no copy of the automaton is ever made.  A candidate the fold's
    ``rejecting`` mask refuses (:class:`MergeFold`) skips ``violates``.

    States are considered in canonical order -- which, for PTA tables from
    :func:`pta_table`, is plain int order of state ids.
    """
    fold = MergeFold(table, rejecting)
    if violates(fold):
        raise LearningError("the initial automaton already violates the guard")
    find = fold.find
    red: list[int] = [fold.initial]
    merges_done = 0

    def blue_states() -> list[int]:
        red_set = set(red)
        successors = {
            target
            for red_state in red
            for _, target in fold.moves(red_state)
            if target not in red_set
        }
        return sorted(successors)

    blue = blue_states()
    while blue:
        if max_merges is not None and merges_done >= max_merges:
            break
        candidate = blue[0]
        merged = False
        for red_state in red:  # kept sorted: canonical trial order
            mark = fold.mark()
            if not fold.merge(red_state, candidate) or violates(fold):
                fold.rollback(mark)
                continue
            fold.commit()
            merges_done += 1
            # Every surviving class that contained a red state stays red.
            red = sorted({find(state) for state in red} | {fold.initial})
            merged = True
            break
        if not merged:
            red = sorted(set(red) | {candidate})
        blue = blue_states()
    return fold
