"""Resource demand vectors.

The adaptation algorithm reasons about "resource capacity", which the
paper says "encompasses CPU, network and storage resources"
(Section 5.4). A :class:`ResourceVector` is the common currency between
the QoS layer (what a quality level demands), the GARA slot table (what
a reservation holds) and the adaptation core (what a capacity pool can
still supply).

Vectors support element-wise arithmetic and the partial order
``fits_within`` (every component less-or-equal). Components are:

* ``cpu`` — processor nodes (integer-valued, stored as float for
  arithmetic convenience; the compute RM enforces integrality).
* ``memory_mb`` — megabytes of primary memory.
* ``disk_mb`` — megabytes of disk.
* ``bandwidth_mbps`` — megabits per second of network bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import ValidationError

_EPSILON = 1e-9


@dataclass(frozen=True)
class ResourceVector:
    """An element-wise non-negative resource quantity."""

    cpu: float = 0.0
    memory_mb: float = 0.0
    disk_mb: float = 0.0
    bandwidth_mbps: float = 0.0

    _FIELDS = ("cpu", "memory_mb", "disk_mb", "bandwidth_mbps")

    def __post_init__(self) -> None:
        for name in self._FIELDS:
            value = getattr(self, name)
            if value < -_EPSILON:
                raise ValidationError(f"{name} must be non-negative, got {value}")

    @classmethod
    def zero(cls) -> "ResourceVector":
        """The all-zero vector (a shared immutable singleton)."""
        return _ZERO_VECTOR

    def as_tuple(self) -> "tuple[float, float, float, float]":
        """``(cpu, memory_mb, disk_mb, bandwidth_mbps)`` — the form the
        slot-table profile index accumulates internally."""
        return (self.cpu, self.memory_mb, self.disk_mb, self.bandwidth_mbps)

    # The arithmetic below spells the four components out instead of
    # looping over ``_FIELDS`` with getattr: these ops dominate the
    # admission hot path and the unrolled form roughly halves their
    # cost without changing any result.

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory_mb + other.memory_mb,
            self.disk_mb + other.disk_mb,
            self.bandwidth_mbps + other.bandwidth_mbps)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Element-wise difference, clamped at zero.

        Clamping (rather than raising) matches how pools use
        subtraction: "what remains after serving this demand".
        Use :meth:`fits_within` first when over-subtraction matters.
        """
        return ResourceVector(
            max(0.0, self.cpu - other.cpu),
            max(0.0, self.memory_mb - other.memory_mb),
            max(0.0, self.disk_mb - other.disk_mb),
            max(0.0, self.bandwidth_mbps - other.bandwidth_mbps))

    def scaled(self, factor: float) -> "ResourceVector":
        """The vector multiplied component-wise by ``factor >= 0``."""
        if factor < 0:
            raise ValidationError(f"scale factor must be non-negative: {factor}")
        return ResourceVector(
            self.cpu * factor,
            self.memory_mb * factor,
            self.disk_mb * factor,
            self.bandwidth_mbps * factor)

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """Whether every component is <= the corresponding capacity."""
        return (self.cpu <= capacity.cpu + _EPSILON
                and self.memory_mb <= capacity.memory_mb + _EPSILON
                and self.disk_mb <= capacity.disk_mb + _EPSILON
                and self.bandwidth_mbps <= capacity.bandwidth_mbps + _EPSILON)

    def component_max(self, other: "ResourceVector") -> "ResourceVector":
        """Element-wise maximum."""
        return ResourceVector(
            max(self.cpu, other.cpu),
            max(self.memory_mb, other.memory_mb),
            max(self.disk_mb, other.disk_mb),
            max(self.bandwidth_mbps, other.bandwidth_mbps))

    def is_zero(self) -> bool:
        """Whether every component is (numerically) zero."""
        return (abs(self.cpu) <= _EPSILON
                and abs(self.memory_mb) <= _EPSILON
                and abs(self.disk_mb) <= _EPSILON
                and abs(self.bandwidth_mbps) <= _EPSILON)

    def __str__(self) -> str:
        parts = [f"{name}={getattr(self, name):g}" for name in self._FIELDS
                 if getattr(self, name) > _EPSILON]
        return "ResourceVector(" + (", ".join(parts) or "zero") + ")"


#: Shared zero singleton returned by :meth:`ResourceVector.zero`; the
#: dataclass is frozen, so sharing is safe and saves an allocation plus
#: validation on every hot-path query that starts from zero.
_ZERO_VECTOR = ResourceVector()
