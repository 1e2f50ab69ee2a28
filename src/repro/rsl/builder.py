"""Mapping between resource vectors and RSL strings.

The Reservation System "generates the appropriate resource
specification RSL string, which describes the resources, and submits it
to GARA for reservation" (Section 3.1). These helpers perform that
rendering and the inverse extraction GARA applies on receipt.

Attribute names follow GRAM conventions: ``count`` (CPU nodes),
``memory`` / ``disk`` (MB), ``bandwidth`` (Mbps), plus reservation
window attributes ``start-time`` / ``end-time`` (simulation time).

Both directions run once per admission, so neither builds more than it
must: the renderer writes each clause straight through the value
renderer, and the extraction reads the parsed relations in one pass.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..errors import RSLError
from ..qos.vector import ResourceVector
from .ast import RSLExpression, RSLRelation, Value, _render_value
from .parser import parse_rsl

#: The demand attributes, in ``ResourceVector.as_tuple()`` order.
_DEMAND_ATTRIBUTES = ("count", "memory", "disk", "bandwidth")

#: Attribute -> its slot in the extraction's bindings (the four demand
#: components, the window, the label).
_SLOTS = {"count": 0, "memory": 1, "disk": 2, "bandwidth": 3,
          "start-time": 4, "end-time": 5, "label": 6}


def reservation_rsl(demand: ResourceVector, start_time: float,
                    end_time: float, *,
                    service_name: Optional[str] = None) -> str:
    """Render a reservation request as an RSL conjunction.

    Zero components are omitted — GARA ignores resources the request
    does not touch.
    """
    if end_time < start_time:
        raise RSLError(
            f"reservation window ends ({end_time}) before it starts "
            f"({start_time})")
    text = "&"
    for attribute, value in zip(_DEMAND_ATTRIBUTES, demand.as_tuple()):
        if value > 0:
            text += f"({attribute}={_render_value(float(value))})"
    text += (f"(start-time={_render_value(float(start_time))})"
             f"(end-time={_render_value(float(end_time))})")
    if service_name:
        text += f"(label={_render_value(service_name)})"
    return text


def vector_from_rsl(text: str) -> "Tuple[ResourceVector, float, float, Optional[str]]":
    """Parse a reservation RSL back into ``(demand, start, end, label)``.

    Later ``=`` bindings win, as in :meth:`RSLExpression.attributes`.

    Raises:
        RSLError: When the window attributes are missing or malformed,
            an attribute is NaN (±inf, an open window, is accepted) or
            the label is a list.
    """
    expression = parse_rsl(text)
    relations = (_flattened(expression) if expression.children
                 else expression.relations)
    bound: List[Optional[Value]] = [0.0, 0.0, 0.0, 0.0, None, None, None]
    for relation in relations:
        slot = _SLOTS.get(relation.attribute)
        if slot is not None and relation.operator == "=":
            bound[slot] = relation.value
    cpu, memory, disk, bandwidth, start, end, label = bound
    demand = ResourceVector(
        _numeric("count", cpu), _numeric("memory", memory),
        _numeric("disk", disk), _numeric("bandwidth", bandwidth))
    start_time = _numeric("start-time", start)
    end_time = _numeric("end-time", end)
    if end_time < start_time:
        raise RSLError(
            f"reservation window ends ({end_time}) before it starts "
            f"({start_time})")
    if isinstance(label, tuple):
        raise RSLError(f"attribute 'label' is a list: {label!r}")
    if label is not None and not isinstance(label, str):
        label = str(label)
    return demand, start_time, end_time, label


def _numeric(name: str, value: Optional[Value]) -> float:
    """A bound attribute as a number (``None``: it was never bound)."""
    if value is None:
        raise RSLError(f"RSL is missing required attribute {name!r}")
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise RSLError(
                f"attribute {name!r} is not numeric: {value!r}") from None
    if not isinstance(value, float) or math.isnan(value):
        raise RSLError(f"attribute {name!r} is not numeric: {value!r}")
    return value


def _flattened(expression: RSLExpression) -> "List[RSLRelation]":
    """Every relation under ``expression`` in binding order: each child's
    (recursively) before the expression's own."""
    relations: List[RSLRelation] = []
    for child in expression.children:
        relations.extend(_flattened(child))
    relations.extend(expression.relations)
    return relations
