"""The SLA document model.

An established SLA records: the service and client, the QoS class
(Section 5.1), the full QoS specification with its acceptable
ranges/lists, the *currently delivered* operating point, the network
demand (Table 1's ``<Network_QoS>`` block), the validity window, the
agreed price rate, and the adaptation options fixed at negotiation time
(Table 4's ``<Adaptation_Options>`` block) — "choosing the appropriate
adaptation strategy and its constituent parameters relies on terms that
have been agreed on, in advance, during SLA establishment"
(Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from ..errors import SLAError
from ..qos.classes import ServiceClass
from ..qos.specification import OperatingPoint, QoSSpecification
from ..qos.vector import ResourceVector
from ..units import Bound


@dataclass(frozen=True)
class NetworkDemand:
    """The network portion of an SLA (Table 1).

    Attributes:
        source_ip: Source endpoint address.
        dest_ip: Destination endpoint address.
        bandwidth_mbps: Agreed bandwidth.
        packet_loss_bound: e.g. ``LessThan 10%``.
        delay_bound_ms: Optional delay ceiling.
    """

    source_ip: str
    dest_ip: str
    bandwidth_mbps: float
    packet_loss_bound: Optional[Bound] = None
    delay_bound_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise SLAError(
                f"network demand needs positive bandwidth: "
                f"{self.bandwidth_mbps}")


@dataclass(frozen=True)
class AdaptationOptions:
    """Adaptation terms agreed at negotiation time (Section 5.2).

    Attributes:
        alternative_points: Fallback operating points, best-first; the
            Table 4 ``<Alternative_QoS>`` list. Adaptation may move the
            session to one of these without re-negotiation.
        accept_promotion: Whether the client accepts promotion offers
            (controlled-load only; Table 4 ``<Promotion_Offer>``).
        accept_degradation: Scenario 1 — "willingness to accept a
            degraded QoS ... to support compensation".
        accept_termination: Scenario 1 — willingness to be terminated
            outright to free resources.
    """

    alternative_points: "Tuple[OperatingPoint, ...]" = ()
    accept_promotion: bool = False
    accept_degradation: bool = False
    accept_termination: bool = False

    @property
    def is_degradable(self) -> bool:
        """Whether adaptation has any room to squeeze this session."""
        return (self.accept_degradation or self.accept_termination
                or bool(self.alternative_points))


class SlaStatus(Enum):
    """Lifecycle status of an SLA document."""

    PROPOSED = "proposed"
    ESTABLISHED = "established"
    ACTIVE = "active"
    COMPLETED = "completed"
    TERMINATED = "terminated"
    EXPIRED = "expired"

    @property
    def is_live(self) -> bool:
        """Whether the SLA still governs resources."""
        return self in (SlaStatus.ESTABLISHED, SlaStatus.ACTIVE)


@dataclass
class ServiceSLA:
    """An established (or proposed) service-level agreement.

    The document itself is mostly immutable; the mutable parts are the
    *delivered* operating point (the optimizer and adaptation move it
    inside the agreed specification) and the status.

    Attributes:
        sla_id: Repository-assigned id.
        client: Client name.
        service_name: The contracted service.
        service_class: Guaranteed / controlled-load (best-effort
            requests carry no SLA).
        specification: The acceptable QoS (ranges/lists/exact).
        agreed_point: The operating point agreed at establishment — the
            "best" quality the provider committed to aim for.
        delivered_point: The operating point currently delivered.
        network: Optional network demand.
        start, end: Validity window ("resources must be allocated over
            the duration of the experiment [t1, tn]").
        price_rate: Agreed revenue rate at the agreed point.
        adaptation: The pre-agreed adaptation options.
        status: Document status.
    """

    sla_id: int
    client: str
    service_name: str
    service_class: ServiceClass
    specification: QoSSpecification
    agreed_point: OperatingPoint
    start: float
    end: float
    price_rate: float = 0.0
    network: Optional[NetworkDemand] = None
    adaptation: AdaptationOptions = field(default_factory=AdaptationOptions)
    status: SlaStatus = SlaStatus.PROPOSED
    delivered_point: OperatingPoint = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.service_class is ServiceClass.BEST_EFFORT:
            raise SLAError("best-effort requests do not establish SLAs")
        if self.end <= self.start:
            raise SLAError(
                f"SLA window ends ({self.end}) before it starts "
                f"({self.start})")
        if not self.specification.admits(self.agreed_point):
            raise SLAError(
                f"agreed point {self.agreed_point} is outside the "
                f"specification {self.specification.describe()!r}")
        if not self.delivered_point:
            self.delivered_point = dict(self.agreed_point)

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Length of the validity window."""
        return self.end - self.start

    def agreed_demand(self) -> ResourceVector:
        """Resource demand of the agreed operating point."""
        return QoSSpecification.point_demand(self.agreed_point)

    def delivered_demand(self) -> ResourceVector:
        """Resource demand of the currently delivered point."""
        return QoSSpecification.point_demand(self.delivered_point)

    def floor_point(self) -> OperatingPoint:
        """The minimum acceptable operating point."""
        return self.specification.worst_point()

    def floor_demand(self) -> ResourceVector:
        """Resource demand of the minimum acceptable point."""
        return QoSSpecification.point_demand(self.floor_point())

    # ------------------------------------------------------------------
    # Delivered-point movement (adaptation / optimization)
    # ------------------------------------------------------------------

    def set_delivered_point(self, point: OperatingPoint) -> None:
        """Move the delivered operating point inside the agreed spec.

        Guaranteed-class SLAs are pinned: "the service provider is
        committed to deliver the service with the exact QoS
        specification described in the SLA" (Section 5.1) — any move
        away from the agreed point raises.

        Raises:
            SLAError: On inadmissible points or guaranteed-class moves.
        """
        if self.service_class is ServiceClass.GUARANTEED \
                and point != self.agreed_point:
            raise SLAError(
                f"SLA {self.sla_id} is guaranteed-class; its operating "
                f"point cannot be moved")
        if not self.specification.admits(point):
            raise SLAError(
                f"point {point} is outside SLA {self.sla_id}'s "
                f"specification")
        self.delivered_point = dict(point)

    def renegotiate_point(self, point: OperatingPoint,
                          price_rate: float) -> None:
        """Raise the agreed terms (an accepted promotion offer).

        Promotions re-negotiate the SLA in place: the agreed point and
        price move together, and delivery follows. Only controlled-load
        SLAs may be promoted (Section 5.2).

        Raises:
            SLAError: On guaranteed-class SLAs or inadmissible points.
        """
        if not self.service_class.may_receive_promotions:
            raise SLAError(
                f"SLA {self.sla_id} ({self.service_class.value}) cannot "
                f"be promoted")
        if not self.specification.admits(point):
            raise SLAError(
                f"promotion point {point} is outside SLA "
                f"{self.sla_id}'s specification")
        self.agreed_point = dict(point)
        self.price_rate = price_rate

    def is_degraded(self) -> bool:
        """Whether the delivered point is below the agreed point on any
        dimension."""
        for parameter in self.specification:
            agreed = self.agreed_point.get(parameter.dimension)
            delivered = self.delivered_point.get(parameter.dimension)
            if agreed is None or delivered is None:
                continue
            if parameter.is_better(agreed, delivered):
                return True
        return False

    # ------------------------------------------------------------------
    # Status transitions
    # ------------------------------------------------------------------

    def establish(self) -> None:
        """Proposed → established (client accepted the offer)."""
        self._expect(SlaStatus.PROPOSED)
        self.status = SlaStatus.ESTABLISHED

    def activate(self) -> None:
        """Established → active (resources allocated, service invoked)."""
        self._expect(SlaStatus.ESTABLISHED)
        self.status = SlaStatus.ACTIVE

    def complete(self) -> None:
        """Active → completed (Grid service finished normally)."""
        self._expect(SlaStatus.ACTIVE)
        self.status = SlaStatus.COMPLETED

    def terminate(self) -> None:
        """Live → terminated (major degradation or client request)."""
        if not self.status.is_live:
            raise SLAError(
                f"SLA {self.sla_id} is {self.status.value}; cannot terminate")
        self.status = SlaStatus.TERMINATED

    def expire(self) -> None:
        """Live → expired (validity window ended)."""
        if not self.status.is_live:
            raise SLAError(
                f"SLA {self.sla_id} is {self.status.value}; cannot expire")
        self.status = SlaStatus.EXPIRED

    def _expect(self, expected: SlaStatus) -> None:
        if self.status is not expected:
            raise SLAError(
                f"SLA {self.sla_id} is {self.status.value}; expected "
                f"{expected.value}")
