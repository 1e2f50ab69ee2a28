"""Mapping between resource vectors and RSL strings.

The Reservation System "generates the appropriate resource
specification RSL string, which describes the resources, and submits it
to GARA for reservation" (Section 3.1). These helpers perform that
rendering and the inverse extraction GARA applies on receipt.

Attribute names follow GRAM conventions: ``count`` (CPU nodes),
``memory`` / ``disk`` (MB), ``bandwidth`` (Mbps), plus reservation
window attributes ``start-time`` / ``end-time`` (simulation time).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..errors import RSLError
from ..qos.vector import ResourceVector
from .ast import RSLExpression, RSLRelation
from .parser import parse_rsl

_ATTRIBUTE_FIELDS = (
    ("count", "cpu"),
    ("memory", "memory_mb"),
    ("disk", "disk_mb"),
    ("bandwidth", "bandwidth_mbps"),
)


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
    relations = []
    for attribute, field_name in _ATTRIBUTE_FIELDS:
        value = getattr(demand, field_name)
        if value > 0:
            relations.append(RSLRelation(attribute, "=", float(value)))
    relations.append(RSLRelation("start-time", "=", float(start_time)))
    relations.append(RSLRelation("end-time", "=", float(end_time)))
    if service_name:
        relations.append(RSLRelation("label", "=", service_name))
    return RSLExpression("&", relations=tuple(relations)).render()


def vector_from_rsl(text: str) -> "Tuple[ResourceVector, float, float, Optional[str]]":
    """Parse a reservation RSL back into ``(demand, start, end, label)``.

    Raises:
        RSLError: When the window attributes are missing or malformed,
            or an attribute is NaN (±inf, an open window, is accepted).
    """
    expression = parse_rsl(text)
    attributes = expression.attributes()

    def numeric(name: str, default: Optional[float] = None) -> float:
        if name not in attributes:
            if default is not None:
                return default
            raise RSLError(f"RSL is missing required attribute {name!r}")
        value = attributes[name]
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
    label = attributes.get("label")
    if label is not None and not isinstance(label, str):
        label = str(label)
    return demand, start_time, end_time, label
