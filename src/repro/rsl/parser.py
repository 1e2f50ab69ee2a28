"""Recursive-descent parser for the RSL subset GARA consumes.

Grammar (whitespace-insensitive)::

    specification := combinator clause+
    combinator    := '&' | '|' | '+'
    clause        := '(' specification ')'      -- nested expression
                   | '(' relation ')'
    relation      := attribute op value+
    op            := '=' | '!=' | '<' | '<=' | '>' | '>='
    value         := token | quoted | '(' value* ')'

Multiple values after one operator form a list, matching Globus
(``(arguments=a b c)``). Quoted strings use double quotes with ``""``
as the escape.

One compiled pattern, :data:`_LEXEME`, cuts the text into lexemes in a
single ``findall`` pass — brackets, quoted strings, operators and
tokens — and the descent walks the list. A lexeme's first character
says which kind it is: a token is the only kind that cannot start with
one of :data:`~repro.rsl.ast._PUNCTUATION`. Three details keep the
grammar exact:

* whitespace is ``\\s``, which in a ``str`` pattern is exactly the set
  ``str.isspace()`` accepts: every other character starts a lexeme, so
  ``findall`` skips whitespace and nothing else;
* ``&``, ``|`` and ``+`` are token characters: they open a nested
  expression only as the first character of a token directly after
  ``(`` (or at the start of the text), so ``a&b`` and ``+2`` stay
  tokens;
* ``!``, ``<`` and ``>`` take an ``=`` only when it is adjacent, and a
  quoted string runs to the first ``"`` not doubled: the look-ahead
  after its closing quote stops an unterminated string from re-reading
  as a shorter one that ends inside a ``""``.

Lexemes carry no position: an error re-lexes the text to report where
it stopped.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import RSLError
from .ast import _PUNCTUATION, RSLExpression, RSLRelation, Value, _token_value

#: One lexeme per match.
_LEXEME = re.compile(rf"""
      [()]                     # a bracket
    | "(?:[^"]|"")*"(?!")      # a quoted string, quotes included
    | =|!=?|<=?|>=?            # an operator
    | [^\s{_PUNCTUATION}]+     # a token
    | "                        # a lone quote: it ends no string
    """, re.VERBOSE)

_COMBINATORS = "&|+"
_OPERATOR_STARTS = "=!<>"


def parse_rsl(text: str) -> RSLExpression:
    """Parse an RSL string into an :class:`RSLExpression`.

    A bare relation list without a combinator (``(count=10)(memory=64)``)
    is treated as a conjunction, matching common Globus usage.
    """
    lexemes = _LEXEME.findall(text)
    if not lexemes:
        raise RSLError("empty RSL specification")
    expression, at = _parse_expression(lexemes, 0, text)
    if at < len(lexemes):
        raise RSLError(
            f"trailing input at position {_position(text, at)} of {text!r}")
    return expression


def _parse_expression(lexemes: List[str], at: int,
                      text: str) -> "Tuple[RSLExpression, int]":
    size = len(lexemes)
    operator = "&"
    if at < size and lexemes[at][0] in _COMBINATORS:
        operator = lexemes[at]
        if len(operator) > 1:  # '&x': the combinator is one character
            raise RSLError(
                f"expected '(' at position {_position(text, at) + 1} "
                f"of {text!r}")
        at += 1
    if at == size or lexemes[at] != "(":
        raise RSLError(
            f"expected '(' at position {_position(text, at)} of {text!r}")
    relations: List[RSLRelation] = []
    children: List[RSLExpression] = []
    while at < size and lexemes[at] == "(":
        at += 1
        if at == size or lexemes[at][0] in _COMBINATORS:
            child, at = _parse_expression(lexemes, at, text)
            children.append(child)
        else:
            relation, at = _parse_relation(lexemes, at, text)
            relations.append(relation)
        if at == size or lexemes[at] != ")":
            stop = _position(text, at)
            got = text[stop:stop + 1]
            raise RSLError(
                f"expected ')' at position {stop + len(got)} "
                f"of {text!r}, got {got!r}")
        at += 1
    return RSLExpression(operator, tuple(relations), tuple(children)), at


def _parse_relation(lexemes: List[str], at: int,
                    text: str) -> "Tuple[RSLRelation, int]":
    size = len(lexemes)
    attribute = lexemes[at]
    if attribute[0] in _PUNCTUATION:
        raise RSLError(
            f"expected attribute name at position {_position(text, at)}")
    at += 1
    # At the end of the text this is a relation with no value.
    operator = lexemes[at] if at < size else ""
    if operator and operator[0] not in _OPERATOR_STARTS:
        stop = _position(text, at)
        raise RSLError(f"expected operator at position {stop + 1}, "
                       f"got {text[stop]!r}")
    if operator == "!":
        raise RSLError("'!' must be followed by '='")
    values, at = _parse_values(lexemes, at + 1, text)
    if not values:
        raise RSLError(f"relation {attribute!r} has no value")
    value = values[0] if len(values) == 1 else tuple(values)
    return RSLRelation(attribute, operator, value), at


def _parse_values(lexemes: List[str], at: int,
                  text: str) -> "Tuple[List[Value], int]":
    """The values from lexeme ``at`` up to the next ``)`` (or the end of
    the text), and where they stop."""
    size = len(lexemes)
    values: List[Value] = []
    while at < size:
        lexeme = lexemes[at]
        first = lexeme[0]
        if first not in _PUNCTUATION:
            values.append(_token_value(lexeme))
        elif first == ")":
            break
        elif first == '"':
            if len(lexeme) == 1:
                raise RSLError("unterminated quoted string")
            values.append(lexeme[1:-1].replace('""', '"'))
        elif first == "(":
            items, at = _parse_values(lexemes, at + 1, text)
            if at == size:
                raise RSLError("unterminated value list")
            values.append(tuple(items))
        else:
            raise RSLError(
                f"expected a value at position {_position(text, at)}")
        at += 1
    return values, at


def _position(text: str, at: int) -> int:
    """Where lexeme ``at`` starts in ``text``, and ``len(text)`` past the
    last lexeme.

    Only error paths ask, so lexemes need not carry their offsets.
    """
    for index, match in enumerate(_LEXEME.finditer(text)):
        if index == at:
            return match.start()
    return len(text)
