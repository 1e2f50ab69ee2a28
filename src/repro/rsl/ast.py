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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

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

    def matches(self, offered: Value) -> bool:
        """Whether an offered attribute value satisfies this relation.

        Numeric comparison is used when both sides parse as numbers;
        otherwise only ``=`` / ``!=`` string (in)equality is defined.
        """
        wanted = self.value
        offered_num = _as_number(offered)
        wanted_num = _as_number(wanted)
        if offered_num is not None and wanted_num is not None:
            comparisons = {
                "=": offered_num == wanted_num,
                "!=": offered_num != wanted_num,
                "<": offered_num < wanted_num,
                "<=": offered_num <= wanted_num,
                ">": offered_num > wanted_num,
                ">=": offered_num >= wanted_num,
            }
            return comparisons[self.operator]
        if self.operator == "=":
            return _canonical(offered) == _canonical(wanted)
        if self.operator == "!=":
            return _canonical(offered) != _canonical(wanted)
        raise RSLError(
            f"operator {self.operator!r} needs numeric operands: "
            f"{offered!r} vs {wanted!r}")

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

    def attributes(self) -> Dict[str, Value]:
        """Flat ``attribute -> value`` view of the ``=`` relations.

        Later bindings win, matching GRAM's last-value semantics. Only
        meaningful for conjunctions; nested children are merged.
        """
        result: Dict[str, Value] = {}
        for child in self.children:
            result.update(child.attributes())
        for relation in self.relations:
            if relation.operator == "=":
                result[relation.attribute] = relation.value
        return result

    def satisfied_by(self, offered: Dict[str, Value]) -> bool:
        """Whether an offered attribute map satisfies the expression.

        Relations over attributes absent from ``offered`` fail (the
        resource cannot demonstrate the property).
        """
        def relation_holds(relation: RSLRelation) -> bool:
            if relation.attribute not in offered:
                return False
            return relation.matches(offered[relation.attribute])

        parts = ([relation_holds(r) for r in self.relations] +
                 [c.satisfied_by(offered) for c in self.children])
        if not parts:
            return True
        if self.operator == "|":
            return any(parts)
        # "&" and "+" both require all parts (a multi-request is
        # satisfiable only if each component request is).
        return all(parts)

    def render(self) -> str:
        """Serialize back to RSL text.

        Every child expression is wrapped in exactly one pair of
        parentheses — the grammar's clause form — so nested
        conjunctions, disjunctions and multi-requests all re-parse.
        """
        inner = "".join(r.render() for r in self.relations)
        inner += "".join(f"({c.render()})" for c in self.children)
        return f"{self.operator}{inner}"


def _as_number(value: Value) -> Optional[float]:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _canonical(value: Value) -> Value:
    number = _as_number(value)
    if number is not None:
        return number
    if isinstance(value, str):
        return value
    return tuple(_canonical(item) for item in value)


def _render_value(value: Value) -> str:
    if isinstance(value, tuple):
        return "(" + " ".join(_render_value(item) for item in value) + ")"
    if isinstance(value, float) and value.is_integer():  # not ±inf/nan
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in " ()=<>!\"'") or text == "":
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text
