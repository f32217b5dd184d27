"""Parser for the textual regular-expression syntax.

Grammar (standard precedence: star > concatenation > union)::

    expression  := term ('+' term)*
    term        := factor (('.' )? factor)*
    factor      := atom '*'*
    atom        := SYMBOL | 'eps' | '(' expression ')'

Symbols are identifiers (``[A-Za-z_][A-Za-z0-9_]*``) so multi-character edge
labels such as ``tram`` or ``ProteinPurification`` parse naturally.  The
concatenation dot may be omitted between adjacent factors (``a b c`` or even
``(a+b)c``), but writing it explicitly -- ``(tram+bus)*.cinema`` -- reads
closest to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RegexSyntaxError
from repro.regex.ast import Epsilon, Regex, Symbol, concat, disjunction, star

_EPSILON_NAMES = {"eps", "epsilon", "ε"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'symbol', 'plus', 'dot', 'star', 'lparen', 'rparen'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char == "+":
            tokens.append(_Token("plus", char, index))
            index += 1
        elif char in {".", "·"}:
            tokens.append(_Token("dot", char, index))
            index += 1
        elif char == "*":
            tokens.append(_Token("star", char, index))
            index += 1
        elif char == "(":
            tokens.append(_Token("lparen", char, index))
            index += 1
        elif char == ")":
            tokens.append(_Token("rparen", char, index))
            index += 1
        elif char.isalpha() or char == "_" or char == "ε":
            start = index
            if char == "ε":
                index += 1
            else:
                while index < length and (text[index].isalnum() or text[index] == "_"):
                    index += 1
            tokens.append(_Token("symbol", text[start:index], start))
        else:
            raise RegexSyntaxError(f"unexpected character {char!r}", position=index)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[_Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise RegexSyntaxError("unexpected end of expression", position=len(self._source))
        self._index += 1
        return token

    def parse(self) -> Regex:
        expression = self._expression()
        trailing = self._peek()
        if trailing is not None:
            raise RegexSyntaxError(
                f"unexpected token {trailing.text!r}", position=trailing.position
            )
        return expression

    def _expression(self) -> Regex:
        terms = [self._term()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "plus":
                self._advance()
                terms.append(self._term())
            else:
                break
        return disjunction(*terms)

    def _term(self) -> Regex:
        factors = [self._factor()]
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "dot":
                self._advance()
                factors.append(self._factor())
            elif token.kind in {"symbol", "lparen"}:
                # Implicit concatenation between adjacent factors.
                factors.append(self._factor())
            else:
                break
        return concat(*factors)

    def _factor(self) -> Regex:
        atom = self._atom()
        while True:
            token = self._peek()
            if token is not None and token.kind == "star":
                self._advance()
                atom = star(atom)
            else:
                break
        return atom

    def _atom(self) -> Regex:
        token = self._advance()
        if token.kind == "symbol":
            if token.text in _EPSILON_NAMES:
                return Epsilon()
            return Symbol(token.text)
        if token.kind == "lparen":
            inner = self._expression()
            closing = self._advance()
            if closing.kind != "rparen":
                raise RegexSyntaxError("expected ')'", position=closing.position)
            return inner
        raise RegexSyntaxError(
            f"unexpected token {token.text!r}", position=token.position
        )


def parse(text: str) -> Regex:
    """Parse a regular expression string into its AST.

    Raises :class:`~repro.errors.RegexSyntaxError` on malformed input.
    """
    if not text or not text.strip():
        raise RegexSyntaxError("empty regular expression")
    try:
        return _Parser(_tokenize(text), text).parse()
    except RecursionError:
        raise too_deep() from None


def too_deep() -> RegexSyntaxError:
    """The error of an expression the recursive passes cannot descend."""
    return RegexSyntaxError("expression is nested too deeply (parentheses or operand chain)")
