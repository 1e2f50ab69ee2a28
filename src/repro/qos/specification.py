"""QoS specifications: the paper's set ``Q = {q1 .. qn}``.

A :class:`QoSSpecification` is an ordered collection of
:class:`~repro.qos.parameters.QoSParameter`, at most one per dimension.
It supports the comparison the paper motivates ("one is now able to
compare two different Q sets, by comparing each element"), produces
concrete *operating points* for the optimizer, and maps operating
points onto :class:`~repro.qos.vector.ResourceVector` demands for the
reservation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..errors import QoSSpecificationError
from .parameters import Dimension, QoSParameter
from .vector import ResourceVector

#: An operating point: one concrete value per specified dimension.
OperatingPoint = Dict[Dimension, float]


@dataclass(frozen=True)
class QoSSpecification:
    """An immutable set of QoS parameters, keyed by dimension."""

    parameters: "tuple[QoSParameter, ...]"

    def __post_init__(self) -> None:
        seen = set()
        for parameter in self.parameters:
            if parameter.dimension in seen:
                raise QoSSpecificationError(
                    f"duplicate dimension {parameter.dimension.value}")
            seen.add(parameter.dimension)

    @classmethod
    def of(cls, *parameters: QoSParameter) -> "QoSSpecification":
        """Build a specification from parameters."""
        return cls(parameters=tuple(parameters))

    @classmethod
    def from_iterable(cls,
                      parameters: Iterable[QoSParameter]) -> "QoSSpecification":
        """Build a specification from any iterable of parameters."""
        return cls(parameters=tuple(parameters))

    def __iter__(self) -> Iterator[QoSParameter]:
        return iter(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __contains__(self, dimension: Dimension) -> bool:
        return any(p.dimension is dimension for p in self.parameters)

    def get(self, dimension: Dimension) -> Optional[QoSParameter]:
        """The parameter for ``dimension``, or ``None`` if unspecified."""
        for parameter in self.parameters:
            if parameter.dimension is dimension:
                return parameter
        return None

    def require(self, dimension: Dimension) -> QoSParameter:
        """The parameter for ``dimension``; raises if unspecified."""
        parameter = self.get(dimension)
        if parameter is None:
            raise QoSSpecificationError(
                f"specification has no {dimension.value} parameter")
        return parameter

    # ------------------------------------------------------------------
    # Operating points
    # ------------------------------------------------------------------

    def best_point(self) -> OperatingPoint:
        """The highest-quality admissible operating point."""
        return {p.dimension: p.best() for p in self.parameters}

    def worst_point(self) -> OperatingPoint:
        """The minimum-quality admissible operating point (SLA floor)."""
        return {p.dimension: p.worst() for p in self.parameters}

    def admits(self, point: Mapping[Dimension, float]) -> bool:
        """Whether ``point`` sets every parameter to an acceptable value."""
        for parameter in self.parameters:
            if parameter.dimension not in point:
                return False
            if not parameter.admissible(point[parameter.dimension]):
                return False
        return True

    def quality_levels(self, count: int = 5) -> List[OperatingPoint]:
        """Coupled quality levels, worst-to-best.

        Rather than the full cross product of per-parameter levels
        (exponential), quality is varied *jointly*: level ``k`` sets
        every parameter to its ``k``-th candidate (parameters with fewer
        candidates saturate at their best). This mirrors how the paper's
        SLAs express alternatives — one coherent "Alternative_QoS"
        bundle per level (Table 4) — and keeps the optimizer's search
        space linear per service.
        """
        per_parameter = {p.dimension: p.levels(count) for p in self.parameters}
        depth = max((len(v) for v in per_parameter.values()), default=0)
        points: List[OperatingPoint] = []
        for k in range(depth):
            point = {dim: levels[min(k, len(levels) - 1)]
                     for dim, levels in per_parameter.items()}
            if point not in points:
                points.append(point)
        return points

    # ------------------------------------------------------------------
    # Comparison (Section 5.3: compare Q_a with Q_b element-wise)
    # ------------------------------------------------------------------

    def dominates(self, other: "QoSSpecification") -> bool:
        """Whether this spec's floor meets-or-beats ``other``'s floor on
        every dimension ``other`` specifies.

        Used by discovery: a registered service capability dominates a
        request when it can satisfy the request's minimum on every
        requested dimension.
        """
        mine = {p.dimension: p for p in self.parameters}
        for theirs in other.parameters:
            ours = mine.get(theirs.dimension)
            if ours is None:
                return False
            floor_theirs = theirs.worst()
            best_ours = ours.best()
            if ours.is_better(floor_theirs, best_ours):
                return False
        return True

    # ------------------------------------------------------------------
    # Demand mapping
    # ------------------------------------------------------------------

    @staticmethod
    def point_demand(point: Mapping[Dimension, float]) -> ResourceVector:
        """The resource demand of a concrete operating point.

        Only capacity-consuming dimensions contribute; observed
        qualities (loss, delay) do not reserve anything.
        """
        return ResourceVector(
            cpu=point.get(Dimension.CPU, 0.0),
            memory_mb=point.get(Dimension.MEMORY_MB, 0.0),
            disk_mb=point.get(Dimension.DISK_MB, 0.0),
            bandwidth_mbps=point.get(Dimension.BANDWIDTH_MBPS, 0.0),
        )

    def describe(self) -> str:
        """Compact human-readable form."""
        return "; ".join(p.describe() for p in self.parameters)
