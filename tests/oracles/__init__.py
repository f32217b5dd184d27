"""Independent reference implementations the parity suites compare against.

Each module mirrors the library code its functions were written beside
(the object-level subset construction -> ``oracles.determinize``, the
Thompson construction -> ``oracles.regex`` ...): the original object-level
algorithms, kept verbatim as executable specifications of the int-coded
kernel and the indexed engine.  They are written in the object automata of
``oracles.automata`` (``NFA``, ``DFA``), which the library no longer ships.
Nothing under ``src/`` imports them.
"""
