"""RSL abstract syntax.

An RSL specification is a boolean combination of attribute relations:

* ``&(count=10)(memory>=2048)`` — conjunction, all relations must hold.
* ``|(...)(...)`` — disjunction, at least one must hold.
* ``+(...)(...)`` — a multi-request: each child is an independent
  specification (used for co-allocation across resource managers).

Values are strings, numbers or lists; relations carry one of the
operators ``= != < <= > >=``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union

from ..errors import RSLError

#: A parsed value: scalar string/number or a list of values.
Value = Union[str, float, "Tuple[Value, ...]"]

_OPERATORS = ("=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class RSLRelation:
    """One ``(attribute op value)`` clause."""

    attribute: str
    operator: str
    value: Value

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise RSLError(f"unknown RSL operator {self.operator!r}")
        if not self.attribute:
            raise RSLError("RSL relation has an empty attribute name")

    def render(self) -> str:
        """Serialize back to ``(attribute op value)`` form."""
        return f"({self.attribute}{self.operator}{_render_value(self.value)})"


@dataclass(frozen=True)
class RSLExpression:
    """A boolean combination of relations and sub-expressions."""

    operator: str  # "&", "|" or "+"
    relations: "Tuple[RSLRelation, ...]" = ()
    children: "Tuple[RSLExpression, ...]" = ()

    def __post_init__(self) -> None:
        if self.operator not in ("&", "|", "+"):
            raise RSLError(f"unknown RSL combinator {self.operator!r}")

    def render(self) -> str:
        """Serialize back to RSL text.

        Every child expression is wrapped in exactly one pair of
        parentheses — the grammar's clause form — so nested
        conjunctions, disjunctions and multi-requests all re-parse.
        """
        inner = "".join(r.render() for r in self.relations)
        inner += "".join(f"({c.render()})" for c in self.children)
        return f"{self.operator}{inner}"


#: The characters other than whitespace that end a bare token; each
#: starts a lexeme of its own (a bracket, a quoted string or an
#: operator). The parser's lexer and the renderer's quoting test are
#: both built from it, so they cannot disagree.
_PUNCTUATION = '()"=!<>'

#: A character that ends a bare token, or ``'`` (always quoted).
_NEEDS_QUOTES = re.compile(rf"[\s{_PUNCTUATION}']")


def _token_value(token: str) -> Value:
    """A bare token as the parser reads it: a number when ``float()``
    accepts it, otherwise the text itself."""
    try:
        return float(token)
    except ValueError:
        return token


def _render_value(value: Value) -> str:
    """One value as the parser reads it back.

    A float prints bare (integral ones without ``.0``; no float's
    ``str`` holds a character that needs quoting). A string is quoted
    when it is empty, holds whitespace, punctuation or ``'``, or would
    read back as a number.
    """
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else str(value)
    if isinstance(value, tuple):
        return "(" + " ".join(map(_render_value, value)) + ")"
    text = str(value)
    if (not text or _NEEDS_QUOTES.search(text) is not None
            or (isinstance(value, str)
                and isinstance(_token_value(text), float))):
        return '"' + text.replace('"', '""') + '"'
    return text
