"""QoS parameters and their acceptable-value forms.

Section 5.3: a QoS parameter's acceptable values are recorded in the SLA
either (1) as a range ``Lq <= q <= Hq`` where the high end is "better",
or (2) as a discrete list ``q in {x, .., z}``. Guaranteed-class SLAs pin
a parameter to an exact value. A :class:`QoSParameter` captures one
parameter in any of those three forms and knows, per dimension, whether
larger or smaller values are better.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..errors import QoSSpecificationError


class Direction(Enum):
    """Whether quality improves as the parameter value grows or shrinks."""

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"


class Dimension(Enum):
    """The QoS dimensions used across the paper's SLAs."""

    CPU = "cpu"
    MEMORY_MB = "memory_mb"
    DISK_MB = "disk_mb"
    BANDWIDTH_MBPS = "bandwidth_mbps"
    PACKET_LOSS = "packet_loss"
    DELAY_MS = "delay_ms"

    @property
    def direction(self) -> Direction:
        """Quality direction for this dimension."""
        if self in (Dimension.PACKET_LOSS, Dimension.DELAY_MS):
            return Direction.LOWER_IS_BETTER
        return Direction.HIGHER_IS_BETTER

    @property
    def consumes_capacity(self) -> bool:
        """Whether this dimension maps onto a reservable resource.

        Packet loss and delay are *observed* qualities — they constrain
        SLA conformance but are not allocated from a pool.
        """
        return self in (Dimension.CPU, Dimension.MEMORY_MB,
                        Dimension.DISK_MB, Dimension.BANDWIDTH_MBPS)


#: All dimensions, in canonical SLA order.
DIMENSIONS: Tuple[Dimension, ...] = tuple(Dimension)


class Form(Enum):
    """How the SLA records the acceptable values (Section 5.3)."""

    EXACT = "exact"
    RANGE = "range"
    LIST = "list"


@dataclass(frozen=True)
class QoSParameter:
    """One QoS parameter with its acceptable values.

    Construct via the factory helpers :func:`exact_parameter`,
    :func:`range_parameter` and :func:`discrete_parameter` rather than
    directly; they validate per-form invariants.

    Attributes:
        dimension: Which quality axis this parameter constrains.
        form: Exact / range / discrete-list (Section 5.3 forms).
        low: Range low bound (``RANGE`` only).
        high: Range high bound (``RANGE`` only).
        values: Sorted acceptable values (``LIST``), or the single
            pinned value (``EXACT``).
    """

    dimension: Dimension
    form: Form
    low: Optional[float] = None
    high: Optional[float] = None
    values: Tuple[float, ...] = field(default_factory=tuple)

    @property
    def direction(self) -> Direction:
        """Quality direction inherited from the dimension."""
        return self.dimension.direction

    def admissible(self, value: float) -> bool:
        """Whether ``value`` is an acceptable setting for this parameter."""
        if self.form is Form.EXACT:
            return value == self.values[0]
        if self.form is Form.RANGE:
            assert self.low is not None and self.high is not None
            return self.low <= value <= self.high
        return value in self.values

    def best(self) -> float:
        """The highest-quality acceptable value."""
        if self.form is Form.RANGE:
            assert self.low is not None and self.high is not None
            return (self.high if self.direction is Direction.HIGHER_IS_BETTER
                    else self.low)
        ordered = self.values
        return (max(ordered) if self.direction is Direction.HIGHER_IS_BETTER
                else min(ordered))

    def worst(self) -> float:
        """The minimum-quality acceptable value (the SLA floor)."""
        if self.form is Form.RANGE:
            assert self.low is not None and self.high is not None
            return (self.low if self.direction is Direction.HIGHER_IS_BETTER
                    else self.high)
        ordered = self.values
        return (min(ordered) if self.direction is Direction.HIGHER_IS_BETTER
                else max(ordered))

    def levels(self, count: int = 5) -> List[float]:
        """Candidate operating points, worst-to-best, for the optimizer.

        For ``LIST``/``EXACT`` forms these are the listed values; for a
        ``RANGE`` the interval is sampled at ``count`` evenly spaced
        points (CPU-like integer dimensions are rounded and deduplicated).
        """
        if count < 1:
            raise QoSSpecificationError(f"level count must be >= 1: {count}")
        if self.form is Form.EXACT:
            return [self.values[0]]
        if self.form is Form.LIST:
            ordered = sorted(self.values)
            if self.direction is Direction.LOWER_IS_BETTER:
                ordered.reverse()
            return ordered
        assert self.low is not None and self.high is not None
        if count == 1:
            points = [self.worst()]
        else:
            span = self.high - self.low
            points = [self.low + span * i / (count - 1) for i in range(count)]
            if self.direction is Direction.LOWER_IS_BETTER:
                points.reverse()
        if self.dimension is Dimension.CPU:
            rounded: List[float] = []
            for point in points:
                value = float(round(point))
                if self.admissible(value) and value not in rounded:
                    rounded.append(value)
            if rounded:
                points = rounded
        return points

    def is_better(self, a: float, b: float) -> bool:
        """Whether value ``a`` is strictly better quality than ``b``."""
        if self.direction is Direction.HIGHER_IS_BETTER:
            return a > b
        return a < b

    def describe(self) -> str:
        """Compact human-readable form for logs and offers."""
        name = self.dimension.value
        if self.form is Form.EXACT:
            return f"{name}={self.values[0]:g}"
        if self.form is Form.RANGE:
            return f"{name} in [{self.low:g}, {self.high:g}]"
        return f"{name} in {{{', '.join(f'{v:g}' for v in self.values)}}}"


def exact_parameter(dimension: Dimension, value: float) -> QoSParameter:
    """A parameter pinned to one value (guaranteed-class form)."""
    _check_value(dimension, value)
    return QoSParameter(dimension=dimension, form=Form.EXACT,
                        values=(float(value),))


def range_parameter(dimension: Dimension, low: float,
                    high: float) -> QoSParameter:
    """A parameter acceptable anywhere in ``[low, high]``."""
    if low > high:
        raise QoSSpecificationError(
            f"range low {low} exceeds high {high} for {dimension.value}")
    _check_value(dimension, low)
    _check_value(dimension, high)
    return QoSParameter(dimension=dimension, form=Form.RANGE,
                        low=float(low), high=float(high))


def discrete_parameter(dimension: Dimension,
                       values: Sequence[float]) -> QoSParameter:
    """A parameter restricted to an explicit list of values."""
    if not values:
        raise QoSSpecificationError(
            f"discrete value list for {dimension.value} is empty")
    for value in values:
        _check_value(dimension, value)
    unique = tuple(sorted({float(v) for v in values}))
    return QoSParameter(dimension=dimension, form=Form.LIST, values=unique)


def _check_value(dimension: Dimension, value: float) -> None:
    if value < 0:
        raise QoSSpecificationError(
            f"{dimension.value} value must be non-negative: {value}")
    if dimension is Dimension.PACKET_LOSS and value > 1.0:
        raise QoSSpecificationError(
            f"packet loss is a fraction in [0, 1]: {value}")
    if dimension is Dimension.CPU and value != int(value):
        raise QoSSpecificationError(
            f"CPU counts must be integral: {value}")
