"""Independent reference implementations the parity suites compare against.

Each module mirrors the library module its functions were written beside
(``repro.automata.determinize`` -> ``oracles.determinize`` ...): the original
object-level algorithms, kept verbatim as executable specifications of the
int-coded kernel and the indexed engine.  Nothing under ``src/`` imports them.
"""
