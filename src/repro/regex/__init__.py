"""Regular expressions over graph edge alphabets.

The grammar is exactly the one of Section 2 of the paper::

    q := eps | a (a in Sigma) | q1 + q2 | q1 . q2 | q*

This subpackage provides the AST (:mod:`repro.regex.ast`), a parser for a
human-friendly textual syntax (:mod:`repro.regex.parser`), the Glushkov
position construction straight into the canonical kernel table
(:mod:`repro.regex.build`), and the reverse conversion from a table back to
a regular expression by state elimination (:mod:`repro.regex.convert`), used
to report learned queries in readable form.
"""

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
    epsilon,
    star,
    symbol,
)
from repro.regex.parser import parse
from repro.regex.build import compile_query
from repro.regex.convert import dfa_to_regex

__all__ = [
    "Regex",
    "Epsilon",
    "EmptySet",
    "Symbol",
    "Concat",
    "Union",
    "Star",
    "epsilon",
    "symbol",
    "concat",
    "disjunction",
    "star",
    "parse",
    "compile_query",
    "dfa_to_regex",
]
