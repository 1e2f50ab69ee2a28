"""Quantity parsing and rendering for SLA documents.

The paper's SLAs carry quantities as human-readable strings —
``4 CPU``, ``64MB``, ``10 Mbps``, ``LessThan 10%`` (Tables 1, 3, 4).
This module gives each of those a canonical in-memory form so the rest
of the library computes on plain numbers and only the XML codec deals
with strings.

Canonical internal units:

* CPU / processor nodes — integer count.
* Memory and disk — megabytes (``float``).
* Bandwidth — megabits per second (``float``).
* Packet loss — fraction in ``[0, 1]`` (``float``).
* Delay — milliseconds (``float``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import UnitError

Number = Union[int, float]

#: Default tolerance for QoS-quantity comparison.  Matches the slot
#: table's admission epsilon so "equal capacity" means the same thing
#: on every layer.
TOLERANCE = 1e-9


def isclose(a: Number, b: Number) -> bool:
    """Tolerance-based equality for capacity/time quantities.

    Float ``==`` on derived quantities (accumulated capacity, summed
    durations) is brittle; every layer that needs "the same amount"
    should call this instead.  The comparison is absolute-plus-relative:
    values within :data:`TOLERANCE` of each other, or within it relative
    to the larger magnitude, compare equal.  Infinities compare equal only
    to themselves.
    """
    if a == b:  # qlint: disable=QLNT102 -- fast path, incl. infinities
        return True
    diff = abs(a - b)
    return diff <= TOLERANCE or diff <= TOLERANCE * max(abs(a), abs(b))


def iszero(value: Number) -> bool:
    """Whether a capacity/time quantity is numerically zero."""
    return abs(value) <= TOLERANCE

# Multipliers into the canonical unit of each dimension.
_MEMORY_UNITS = {
    "b": 1.0 / (1024.0 * 1024.0),
    "kb": 1.0 / 1024.0,
    "mb": 1.0,
    "gb": 1024.0,
    "tb": 1024.0 * 1024.0,
}

_BANDWIDTH_UNITS = {
    "bps": 1e-6,
    "kbps": 1e-3,
    "mbps": 1.0,
    "gbps": 1e3,
}

_DELAY_UNITS = {
    "us": 1e-3,
    "ms": 1.0,
    "s": 1e3,
}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<value>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"\s*(?P<unit>[A-Za-z%/]*)\s*$"
)


def _split(text: str) -> "tuple[float, str]":
    """Split ``"64MB"`` / ``"10 Mbps"`` into ``(64.0, "mb")``."""
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise UnitError(f"cannot parse quantity: {text!r}")
    return float(match.group("value")), match.group("unit").lower()


def parse_cpu(text: str) -> int:
    """Parse a CPU-count string such as ``"4 CPU"`` or ``"10 nodes"``.

    Trailing qualifiers (``"55 nodes on Linux OS"`` from Table 4) are
    tolerated: the leading integer is the count.
    """
    match = re.match(r"^\s*(\d+)\s*(?:cpu|cpus|node|nodes|processor|processors)?\b",
                     text.strip(), re.IGNORECASE)
    if match is None:
        raise UnitError(f"cannot parse CPU count: {text!r}")
    return int(match.group(1))


def parse_memory_mb(text: str) -> float:
    """Parse a memory/disk size into megabytes (``"64MB"`` -> ``64.0``)."""
    value, unit = _split(text)
    if unit not in _MEMORY_UNITS:
        raise UnitError(f"unknown memory unit {unit!r} in {text!r}")
    result = value * _MEMORY_UNITS[unit]
    if result < 0:
        raise UnitError(f"memory size must be non-negative: {text!r}")
    return result


def parse_bandwidth_mbps(text: str) -> float:
    """Parse a bandwidth into Mbps (``"10 Mbps"`` -> ``10.0``)."""
    value, unit = _split(text)
    if unit not in _BANDWIDTH_UNITS:
        raise UnitError(f"unknown bandwidth unit {unit!r} in {text!r}")
    result = value * _BANDWIDTH_UNITS[unit]
    if result < 0:
        raise UnitError(f"bandwidth must be non-negative: {text!r}")
    return result


def parse_delay_ms(text: str) -> float:
    """Parse a delay into milliseconds (``"10ms"`` -> ``10.0``)."""
    value, unit = _split(text)
    if unit not in _DELAY_UNITS:
        raise UnitError(f"unknown delay unit {unit!r} in {text!r}")
    result = value * _DELAY_UNITS[unit]
    if result < 0:
        raise UnitError(f"delay must be non-negative: {text!r}")
    return result


def parse_percentage(text: str) -> float:
    """Parse ``"10%"`` (or ``"0.1"``) into a fraction in ``[0, 1]``."""
    value, unit = _split(text)
    if unit == "%":
        fraction = value / 100.0
    elif unit == "":
        fraction = value
    else:
        raise UnitError(f"unknown percentage unit {unit!r} in {text!r}")
    if not 0.0 <= fraction <= 1.0:
        raise UnitError(f"percentage out of [0, 100%]: {text!r}")
    return fraction


@dataclass(frozen=True)
class Bound:
    """A one-sided bound such as the paper's ``LessThan 10%`` loss spec.

    ``relation`` is one of ``"<"``, ``"<="``, ``">"``, ``">="``, ``"=="``.
    """

    relation: str
    value: float

    _RELATIONS = {
        "<": lambda measured, bound: measured < bound,
        "<=": lambda measured, bound: measured <= bound,
        ">": lambda measured, bound: measured > bound,
        ">=": lambda measured, bound: measured >= bound,
        "==": lambda measured, bound: measured == bound,
    }

    def __post_init__(self) -> None:
        if self.relation not in self._RELATIONS:
            raise UnitError(f"unknown bound relation {self.relation!r}")

    def satisfied_by(self, measured: float) -> bool:
        """Whether a measured value meets this bound."""
        return self._RELATIONS[self.relation](measured, self.value)


_BOUND_WORDS = {
    "lessthan": "<",
    "atmost": "<=",
    "greaterthan": ">",
    "atleast": ">=",
    "equals": "==",
}


def parse_bound(text: str) -> Bound:
    """Parse a worded bound such as ``"LessThan 10%"`` (Table 1).

    The numeric part is a percentage: the paper only uses worded bounds
    for packet loss.
    """
    parts = text.strip().split(None, 1)
    if len(parts) != 2:
        raise UnitError(f"cannot parse bound: {text!r}")
    word, number = parts
    relation = _BOUND_WORDS.get(word.lower())
    if relation is None:
        raise UnitError(f"unknown bound word {word!r} in {text!r}")
    return Bound(relation, parse_percentage(number))


def render_bound(bound: Bound) -> str:
    """Render a :class:`Bound` back into the paper's worded form."""
    words = {relation: word for word, relation in _BOUND_WORDS.items()}
    word = {"lessthan": "LessThan", "atmost": "AtMost",
            "greaterthan": "GreaterThan", "atleast": "AtLeast",
            "equals": "Equals"}[words[bound.relation]]
    return f"{word} {render_percentage(bound.value)}"


def _trim(value: float) -> str:
    """Format a float without a trailing ``.0`` (``10.0`` -> ``"10"``)."""
    if value == int(value):
        return str(int(value))
    return f"{value:.12g}"


def render_cpu(count: int) -> str:
    """Render a CPU count in the paper's Table 1 form (``"4 CPU"``)."""
    return f"{int(count)} CPU"


def render_memory_mb(megabytes: float) -> str:
    """Render a memory size (``64.0`` -> ``"64MB"``)."""
    if megabytes >= 1024.0 and megabytes % 1024.0 == 0:
        return f"{_trim(megabytes / 1024.0)}GB"
    return f"{_trim(megabytes)}MB"


def render_bandwidth_mbps(mbps: float) -> str:
    """Render a bandwidth (``10.0`` -> ``"10 Mbps"``)."""
    if mbps >= 1000.0 and mbps % 1000.0 == 0:
        return f"{_trim(mbps / 1000.0)} Gbps"
    return f"{_trim(mbps)} Mbps"


def render_delay_ms(milliseconds: float) -> str:
    """Render a delay (``10.0`` -> ``"10ms"``)."""
    return f"{_trim(milliseconds)}ms"


def render_percentage(fraction: float) -> str:
    """Render a fraction as a percentage (``0.1`` -> ``"10%"``)."""
    return f"{_trim(fraction * 100.0)}%"
