"""Pricing: the paper's cost model (Section 5.3).

Each QoS parameter ``q_i`` has a weight ``w_i`` "related to the pricing
formula for the class of service assigned to this user";
``cost(q_i) = q_i * w_i`` and the monetary cost of a service's QoS set
is ``sum_i q_i * w_i``. The provider's optimization objective is
``max sum_services cost(service)``.

For dimensions where *smaller* is better (packet loss, delay) the
delivered value does not scale revenue the same way; they are treated
as constraints, not revenue terms, so by default their weight is zero.
The weights "may also have other semantic interpretations, such as
priority or user preference" (paper, footnote 1) — the model is just a
weighted linear form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from .classes import ServiceClass
from .parameters import Dimension

#: Default per-unit weights, chosen so one CPU-node-hour, ~1 GB of
#: memory and ~10 Mbps are of the same order of revenue. Absolute scale
#: is arbitrary (the paper publishes none); only ratios matter to the
#: optimizer's choices.
DEFAULT_WEIGHTS: "Dict[Dimension, float]" = {
    Dimension.CPU: 1.0,
    Dimension.MEMORY_MB: 0.001,
    Dimension.DISK_MB: 0.0002,
    Dimension.BANDWIDTH_MBPS: 0.1,
    Dimension.PACKET_LOSS: 0.0,
    Dimension.DELAY_MS: 0.0,
}

#: Class multipliers: guaranteed users "are willing to pay different
#: amounts to access Grid services" (Section 1) — the strongest
#: commitment is priced highest, best effort lowest.
DEFAULT_CLASS_MULTIPLIERS: "Dict[ServiceClass, float]" = {
    ServiceClass.GUARANTEED: 1.5,
    ServiceClass.CONTROLLED_LOAD: 1.0,
    ServiceClass.BEST_EFFORT: 0.25,
}


@dataclass(frozen=True)
class PricingPolicy:
    """Weights ``w_i`` plus per-class multipliers.

    Attributes:
        weights: Per-dimension revenue weight (missing dimensions earn 0).
        class_multipliers: Scaling applied on top of the linear form,
            per service class.
        violation_penalty_rate: Fraction of a session's agreed rate
            refunded per time unit spent in violation (used by
            accounting; the paper names "SLA violation penalties" as an
            agreed SLA term in Section 5.2).
    """

    weights: Mapping[Dimension, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS))
    class_multipliers: Mapping[ServiceClass, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_MULTIPLIERS))
    violation_penalty_rate: float = 1.0

    def weight(self, dimension: Dimension) -> float:
        """The revenue weight ``w_i`` for a dimension."""
        return float(self.weights.get(dimension, 0.0))

    def multiplier(self, service_class: ServiceClass) -> float:
        """The class multiplier."""
        return float(self.class_multipliers.get(service_class, 1.0))

    def parameter_cost(self, dimension: Dimension, value: float) -> float:
        """``cost(q_i) = q_i * w_i``."""
        return value * self.weight(dimension)

    def point_rate(self, point: Mapping[Dimension, float],
                   service_class: ServiceClass) -> float:
        """Revenue rate for delivering a concrete operating point.

        This is the paper's ``sum_i q_i * w_i`` scaled by the class
        multiplier; it is a *rate* (per unit time) so accounting can
        integrate it over the session duration.
        """
        linear = sum(self.parameter_cost(dim, value)
                     for dim, value in point.items())
        return linear * self.multiplier(service_class)

