"""The client/broker negotiation protocol.

"The AQoS and the client subsequently enter a negotiation phase aimed
at reaching mutual agreement on resource QoS levels and establishing a
Service Level Agreement" (Section 2.1). The protocol implemented here:

1. the client submits a :class:`ServiceRequest` (QoS specification,
   class, window, budget);
2. the broker responds with one or more :class:`Offer` objects —
   an operating point, a price rate, and the adaptation options that
   will be written into the SLA;
3. the client accepts (producing a :class:`~repro.sla.document.ServiceSLA`)
   or rejects.

The paper's client interface exposes exactly these two choices
(Figure 7's "accepting SLA offers, rejecting SLA offers" options).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..errors import NegotiationError
from ..qos.classes import ServiceClass
from ..qos.specification import OperatingPoint, QoSSpecification
from .document import AdaptationOptions, NetworkDemand, ServiceSLA

_negotiation_counter = itertools.count(1)


@dataclass(frozen=True)
class ServiceRequest:
    """A client's service request with QoS requirements.

    Attributes:
        client: Client name.
        service_name: Requested service (a UDDIe name or pattern).
        service_class: Desired QoS class.
        specification: Acceptable QoS (exact for guaranteed requests,
            ranges/lists for controlled load, empty for best effort).
        start, end: Desired reservation window.
        budget_rate: Maximum price rate the client will pay
            (``None`` = unconstrained).
        network: Optional network demand.
        adaptation: Adaptation options the client is willing to grant.
    """

    client: str
    service_name: str
    service_class: ServiceClass
    specification: QoSSpecification
    start: float
    end: float
    budget_rate: Optional[float] = None
    network: Optional[NetworkDemand] = None
    adaptation: AdaptationOptions = field(default_factory=AdaptationOptions)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise NegotiationError(
                f"request window ends ({self.end}) before it starts "
                f"({self.start})")

    @property
    def duration(self) -> float:
        """Requested window length."""
        return self.end - self.start


@dataclass(frozen=True)
class Offer:
    """A broker offer: one concrete quality at one price.

    Attributes:
        point: The operating point offered.
        price_rate: Revenue rate the client would pay.
        adaptation: Adaptation options that will bind the SLA.
        note: Human-readable rationale ("best quality", "degraded
            alternative", ...).
    """

    point: OperatingPoint
    price_rate: float
    adaptation: AdaptationOptions = field(default_factory=AdaptationOptions)
    note: str = ""


class NegotiationState(Enum):
    """Protocol states."""

    REQUESTED = "requested"
    OFFERED = "offered"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    FAILED = "failed"


class Negotiation:
    """One negotiation between a client and the broker.

    The broker drives :meth:`propose`; the client drives
    :meth:`accept` and :meth:`reject`. Transitions are enforced; misuse
    raises :class:`~repro.errors.NegotiationError`.
    """

    def __init__(self, request: ServiceRequest) -> None:
        self.negotiation_id = next(_negotiation_counter)
        self.request = request
        self.state = NegotiationState.REQUESTED
        self.offers: List[Offer] = []
        self.accepted_offer: Optional[Offer] = None

    def _require(self, *states: NegotiationState) -> None:
        if self.state not in states:
            expected = ", ".join(s.value for s in states)
            raise NegotiationError(
                f"negotiation {self.negotiation_id} is "
                f"{self.state.value}; expected one of: {expected}")

    # ------------------------------------------------------------------
    # Broker side
    # ------------------------------------------------------------------

    def propose(self, offers: List[Offer]) -> None:
        """Broker proposes offers (empty list fails the negotiation)."""
        self._require(NegotiationState.REQUESTED)
        if not offers:
            self.state = NegotiationState.FAILED
            return
        affordable = [offer for offer in offers
                      if self.request.budget_rate is None
                      or offer.price_rate <= self.request.budget_rate]
        if not affordable:
            self.state = NegotiationState.FAILED
            return
        self.offers = affordable
        self.state = NegotiationState.OFFERED

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def accept(self, offer: Optional[Offer] = None) -> Offer:
        """Client accepts an offer (the first one by default)."""
        self._require(NegotiationState.OFFERED)
        chosen = offer or self.offers[0]
        if chosen not in self.offers:
            raise NegotiationError(
                f"offer was not proposed in negotiation "
                f"{self.negotiation_id}")
        self.accepted_offer = chosen
        self.state = NegotiationState.ACCEPTED
        return chosen

    def reject(self) -> None:
        """Client walks away."""
        self._require(NegotiationState.OFFERED)
        self.state = NegotiationState.REJECTED

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------

    def build_sla(self, sla_id: int) -> ServiceSLA:
        """Materialise the accepted offer as an SLA document.

        Raises:
            NegotiationError: Unless the negotiation was accepted.
        """
        self._require(NegotiationState.ACCEPTED)
        assert self.accepted_offer is not None
        offer = self.accepted_offer
        return ServiceSLA(
            sla_id=sla_id,
            client=self.request.client,
            service_name=self.request.service_name,
            service_class=self.request.service_class,
            specification=self.request.specification,
            agreed_point=dict(offer.point),
            start=self.request.start,
            end=self.request.end,
            price_rate=offer.price_rate,
            network=self.request.network,
            adaptation=offer.adaptation,
        )
