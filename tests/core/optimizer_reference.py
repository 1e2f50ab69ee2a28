"""Reference §5.3 heuristic: the marginal-revenue greedy as it stands.

:func:`greedy_optimize` is a kept copy of
:func:`repro.core.optimizer.greedy_optimize` (with its scarcity weight),
taken before any rework of the pass: a full rescan of every service per
upgrade, in sorted-key order, costing extra demand by how little
head-room each component has left. It is the oracle a faster pass must
reproduce exactly — assignment, revenue, ``used`` and ``explored`` —
on instances that consume several dimensions at once
(``tests/core/test_optimizer_oracle.py``). It has no provenance hook
and lives with the tests, outside the library.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.optimizer import OptimizationResult, QualityCandidate
from repro.errors import AdmissionError
from repro.qos.vector import ResourceVector

_EPSILON = 1e-9


def _scarcity_cost(extra: ResourceVector, used: ResourceVector,
                   capacity: ResourceVector) -> float:
    """Extra demand, each component divided by its remaining
    head-room; infinite when a needed component has no capacity."""
    total = 0.0
    for name in ResourceVector._FIELDS:
        need = getattr(extra, name)
        if need <= 0:
            continue
        cap = getattr(capacity, name)
        if cap <= 0:
            return float("inf")
        headroom = max(_EPSILON, cap - getattr(used, name))
        total += need / headroom
    return total


def greedy_optimize(services: "Mapping[str, Sequence[QualityCandidate]]",
                    capacity: ResourceVector) -> OptimizationResult:
    """Floors first; then, until none fits, the one-level upgrade with
    the best revenue gain per unit of scarcity-weighted extra demand
    (first in sorted-key order on a tie; zero-gain upgrades never)."""
    assignment: Dict[str, QualityCandidate] = {}
    used = ResourceVector.zero()
    for key in sorted(services):
        levels = services[key]
        if not levels:
            raise AdmissionError(f"service {key!r} has no candidates")
        assignment[key] = levels[0]
        used = used + levels[0].demand
    feasible = used.fits_within(capacity)
    explored = 1
    while feasible:
        best_key: Optional[str] = None
        best_candidate: Optional[QualityCandidate] = None
        best_ratio = 0.0
        for key in sorted(services):
            current = assignment[key]
            levels = services[key]
            if current.level + 1 >= len(levels):
                continue
            upgrade = levels[current.level + 1]
            extra = upgrade.demand - current.demand
            gain = upgrade.revenue_rate - current.revenue_rate
            if gain <= _EPSILON:
                continue
            without = used - current.demand
            if not (without + upgrade.demand).fits_within(capacity):
                continue
            cost = _scarcity_cost(extra, used, capacity)
            ratio = gain / cost if cost > _EPSILON else float("inf")
            if ratio > best_ratio:
                best_ratio = ratio
                best_key = key
                best_candidate = upgrade
        if best_key is None or best_candidate is None:
            break
        used = (used - assignment[best_key].demand) + best_candidate.demand
        assignment[best_key] = best_candidate
        explored += 1
    revenue = sum(candidate.revenue_rate
                  for candidate in assignment.values())
    return OptimizationResult(assignment=assignment, revenue=revenue,
                              used=used, explored=explored,
                              feasible=feasible)
