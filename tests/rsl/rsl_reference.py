"""Reference RSL parser and renderer (the seed's character scanner).

:func:`parse_rsl` is the original recursive descent over a character
scanner with one-character look-ahead: every ``peek``/``take`` skips
whitespace with ``str.isspace`` and the grammar is read one character
and one method call at a time. It is obviously correct, which is why
it stays: the production :func:`repro.rsl.parser.parse_rsl` (one
compiled lexer, DESIGN §12) must accept and reject the same strings
and build the same :class:`~repro.rsl.ast.RSLExpression` for each
(``tests/rsl/test_rsl_oracle.py``).

:func:`render_value` / :func:`reservation_rsl` are the seed renderer,
which built throw-away relation objects only to call ``render()`` and
quoted a string only for a space or one of ``()=<>!"'`` — so
``"svc\\t1"`` or ``"10"`` did not round-trip. Production renders must
match it byte for byte wherever it round-trips.

:func:`vector_from_rsl` is the seed extraction over this parser, with
the one deliberate change production made: a list-valued ``label`` is
an :class:`~repro.errors.RSLError` instead of a tuple repr.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import RSLError
from repro.qos.vector import ResourceVector
from repro.rsl.ast import RSLExpression, RSLRelation, Value

__all__ = ["attributes", "parse_rsl", "render_value", "render_expression",
           "reservation_rsl", "vector_from_rsl"]

_COMBINATORS = "&|+"
_OPERATOR_STARTS = "=!<>"


class _Scanner:
    """Character scanner with look-ahead."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        char = self.peek()
        if char:
            self.pos += 1
        return char

    def expect(self, char: str) -> None:
        got = self.take()
        if got != char:
            raise RSLError(
                f"expected {char!r} at position {self.pos} "
                f"of {self.text!r}, got {got!r}")

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)


def parse_rsl(text: str) -> RSLExpression:
    """Parse an RSL string into an :class:`RSLExpression`."""
    scanner = _Scanner(text)
    if scanner.at_end():
        raise RSLError("empty RSL specification")
    expression = _parse_expression(scanner)
    if not scanner.at_end():
        raise RSLError(
            f"trailing input at position {scanner.pos} of {text!r}")
    return expression


def _parse_expression(scanner: _Scanner) -> RSLExpression:
    char = scanner.peek()
    if char in _COMBINATORS:
        scanner.take()
        operator = char
    else:
        operator = "&"
    relations: List[RSLRelation] = []
    children: List[RSLExpression] = []
    saw_clause = False
    while scanner.peek() == "(":
        saw_clause = True
        scanner.expect("(")
        if scanner.peek() in _COMBINATORS:
            children.append(_parse_expression(scanner))
        else:
            relations.append(_parse_relation(scanner))
        scanner.expect(")")
    if not saw_clause:
        raise RSLError(
            f"expected '(' at position {scanner.pos} of {scanner.text!r}")
    return RSLExpression(operator=operator, relations=tuple(relations),
                         children=tuple(children))


def _parse_relation(scanner: _Scanner) -> RSLRelation:
    attribute = _parse_token(scanner)
    if not attribute:
        raise RSLError(
            f"expected attribute name at position {scanner.pos}")
    operator = _parse_operator(scanner)
    values: List[Value] = []
    while True:
        char = scanner.peek()
        if char == ")" or char == "":
            break
        values.append(_parse_value(scanner))
    if not values:
        raise RSLError(f"relation {attribute!r} has no value")
    value: Value = values[0] if len(values) == 1 else tuple(values)
    return RSLRelation(attribute=attribute, operator=operator, value=value)


def _parse_operator(scanner: _Scanner) -> str:
    first = scanner.take()
    if first not in _OPERATOR_STARTS:
        raise RSLError(
            f"expected operator at position {scanner.pos}, got {first!r}")
    if first == "=":
        return "="
    second = ""
    if scanner.pos < len(scanner.text) and scanner.text[scanner.pos] == "=":
        scanner.pos += 1
        second = "="
    operator = first + second
    if operator == "!":
        raise RSLError("'!' must be followed by '='")
    return operator


def _parse_value(scanner: _Scanner) -> Value:
    char = scanner.peek()
    if char == "(":
        scanner.expect("(")
        items: List[Value] = []
        while scanner.peek() != ")":
            if scanner.peek() == "":
                raise RSLError("unterminated value list")
            items.append(_parse_value(scanner))
        scanner.expect(")")
        return tuple(items)
    if char == '"':
        return _parse_quoted(scanner)
    token = _parse_token(scanner)
    if token == "":
        raise RSLError(f"expected a value at position {scanner.pos}")
    try:
        return float(token)
    except ValueError:
        return token


def _parse_quoted(scanner: _Scanner) -> str:
    scanner.expect('"')
    pieces: List[str] = []
    text = scanner.text
    while True:
        if scanner.pos >= len(text):
            raise RSLError("unterminated quoted string")
        char = text[scanner.pos]
        scanner.pos += 1
        if char == '"':
            # '""' is an escaped quote.
            if scanner.pos < len(text) and text[scanner.pos] == '"':
                pieces.append('"')
                scanner.pos += 1
                continue
            return "".join(pieces)
        pieces.append(char)


def _parse_token(scanner: _Scanner) -> str:
    scanner.skip_space()
    start = scanner.pos
    text = scanner.text
    while scanner.pos < len(text):
        char = text[scanner.pos]
        if char.isspace() or char in "()\"" or char in _OPERATOR_STARTS:
            break
        scanner.pos += 1
    return text[start:scanner.pos]


# ----------------------------------------------------------------------
# The seed renderer
# ----------------------------------------------------------------------

def render_value(value: Value) -> str:
    """The seed ``_render_value``."""
    if isinstance(value, tuple):
        return "(" + " ".join(render_value(item) for item in value) + ")"
    if isinstance(value, float) and value.is_integer():  # not ±inf/nan
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in " ()=<>!\"'") or text == "":
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text


def render_expression(expression: RSLExpression) -> str:
    """The seed ``RSLExpression.render`` over :func:`render_value`."""
    inner = "".join(f"({r.attribute}{r.operator}{render_value(r.value)})"
                    for r in expression.relations)
    inner += "".join(f"({render_expression(c)})"
                     for c in expression.children)
    return f"{expression.operator}{inner}"


_ATTRIBUTE_FIELDS = (
    ("count", "cpu"),
    ("memory", "memory_mb"),
    ("disk", "disk_mb"),
    ("bandwidth", "bandwidth_mbps"),
)


def reservation_rsl(demand: ResourceVector, start_time: float,
                    end_time: float, *,
                    service_name: Optional[str] = None) -> str:
    """The seed ``reservation_rsl``: relation objects, then render."""
    if end_time < start_time:
        raise RSLError(
            f"reservation window ends ({end_time}) before it starts "
            f"({start_time})")
    relations = []
    for attribute, field_name in _ATTRIBUTE_FIELDS:
        value = getattr(demand, field_name)
        if value > 0:
            relations.append(RSLRelation(attribute, "=", float(value)))
    relations.append(RSLRelation("start-time", "=", float(start_time)))
    relations.append(RSLRelation("end-time", "=", float(end_time)))
    if service_name:
        relations.append(RSLRelation("label", "=", service_name))
    return render_expression(RSLExpression("&", relations=tuple(relations)))


def attributes(expression: RSLExpression) -> "Dict[str, Value]":
    """Flat ``attribute -> value`` view of the ``=`` relations.

    Later bindings win, matching GRAM's last-value semantics; nested
    children are merged first, then the expression's own relations.
    """
    result: Dict[str, Value] = {}
    for child in expression.children:
        result.update(attributes(child))
    for relation in expression.relations:
        if relation.operator == "=":
            result[relation.attribute] = relation.value
    return result


def vector_from_rsl(
        text: str
) -> "Tuple[ResourceVector, float, float, Optional[str]]":
    """The seed extraction (:func:`attributes` plus a ``numeric``
    closure)."""
    bound = attributes(parse_rsl(text))

    def numeric(name: str, default: Optional[float] = None) -> float:
        if name not in bound:
            if default is not None:
                return default
            raise RSLError(f"RSL is missing required attribute {name!r}")
        value = bound[name]
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise RSLError(
                    f"attribute {name!r} is not numeric: {value!r}") from None
        if not isinstance(value, float) or math.isnan(value):
            raise RSLError(f"attribute {name!r} is not numeric: {value!r}")
        return value

    demand = ResourceVector(
        cpu=numeric("count", 0.0),
        memory_mb=numeric("memory", 0.0),
        disk_mb=numeric("disk", 0.0),
        bandwidth_mbps=numeric("bandwidth", 0.0),
    )
    start_time = numeric("start-time")
    end_time = numeric("end-time")
    if end_time < start_time:
        raise RSLError(
            f"reservation window ends ({end_time}) before it starts "
            f"({start_time})")
    label = bound.get("label")
    if isinstance(label, tuple):
        raise RSLError(f"attribute 'label' is a list: {label!r}")
    if label is not None and not isinstance(label, str):
        label = str(label)
    return demand, start_time, end_time, label
