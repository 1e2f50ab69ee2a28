"""The bid/offer/delegate superscheduling protocol on the XML bus.

Cross-domain coordination speaks five actions, all addressed to a
domain's ``fed:<name>`` endpoint:

* ``fed_bid`` — a home domain asks a peer whether it could admit a
  request; the peer answers with a **penalty-aware** bid: its free
  guaranteed headroom after the admission, discounted by the risk that
  an overloaded or degraded domain later violates the SLA and pays the
  Section 4 penalty. No state changes hands — bids are estimates and
  the delegate step re-admits for real.
* ``fed_delegate`` — the home asks the winning bidder to admit. The
  peer journals a :data:`~repro.recovery.journal.DELEGATION_BEGIN`
  intent *before* touching broker state, runs the ordinary admission
  pipeline, and links the resulting SLA with
  :data:`~repro.recovery.journal.DELEGATION_ACCEPTED` — so a crash at
  any write point leaves a booking reconciliation can classify.
* ``fed_confirm`` — the home seals the delegation end-to-end; a
  booking whose peer never saw the confirm is *half-delegated* and
  gets cancelled when the peer rejoins.
* ``fed_cancel`` — the home abandons a delegation (reroute, or its
  own recovery found the delegation in flight); idempotent.
* ``fed_heartbeat`` — liveness probe for :class:`~repro.federation.health.PeerHealth`.

Replies ride the bus's synchronous reply leg; every *send* in this
package goes through a :class:`~repro.xmlmsg.resilient.ResilientCaller`
(rule QLNT117 enforces it), so retries, dedup and circuit breakers
come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional
from xml.etree import ElementTree as ET

from ..errors import MessageError
from ..qos.classes import ServiceClass
from ..qos.specification import QoSSpecification
from ..recovery.journal import (DELEGATION_ACCEPTED, DELEGATION_BEGIN,
                                DELEGATION_CONFIRMED)
from ..sla.negotiation import ServiceRequest
from ..xmlmsg import codec
from ..xmlmsg.document import _number, child_text, element, subelement
from ..xmlmsg.envelope import Envelope

__all__ = [
    "FederationBid",
    "FederationEndpoint",
    "IncomingDelegation",
    "compute_bid",
    "decode_bid",
    "decode_delegated",
    "encode_bid_request",
    "encode_cancel",
    "encode_confirm",
    "encode_delegate",
    "encode_heartbeat",
]

#: Utility floor under which a peer declines to bid at all.
_MIN_SCORE = 0.0


@dataclass
class IncomingDelegation:
    """Peer-side tracking for one delegation admitted on a home's
    behalf (volatile; rebuilt from the journal on rejoin)."""

    sla_id: int
    home: str
    opened_at: float


class FederationBid(NamedTuple):
    """A peer's answer to a bid solicitation."""

    domain: str
    accept: bool
    score: float
    price_rate: float
    headroom_after: float
    risk: float
    reason: str


def compute_bid(testbed, request: ServiceRequest,
                domain: str) -> FederationBid:
    """A penalty-aware bid from one domain's current capacity state.

    The bid's utility is ``(1 - risk) * headroom_after``: free
    guaranteed capacity *after* this admission, discounted by the
    domain's violation risk (utilization plus the failed fraction of
    its pool). A hot or degraded domain therefore bids low even when
    the request nominally fits — the expected Section 4 penalty eats
    its margin — which is what steers rerouted load toward healthy
    domains. Reads are non-mutating; the real admission happens at
    ``fed_delegate``.
    """
    partition = testbed.partition
    eff_b = partition.effective_sizes()[2]
    committed = partition.committed_total()
    demand = QoSSpecification.point_demand(
        request.specification.best_point())
    if request.service_class is ServiceClass.BEST_EFFORT:
        free = eff_b
    else:
        free = max(partition.cg - committed - partition.failed, 0.0)
    cg = max(partition.cg, 1e-9)
    utilization = min(max(committed / cg, 0.0), 1.0)
    risk = min(1.0, 0.5 * utilization + partition.failed / cg)
    accept = demand.cpu <= free + 1e-9
    headroom_after = max(free - demand.cpu, 0.0)
    price_rate = testbed.broker.pricing.point_rate(
        request.specification.best_point(), request.service_class)
    score = (1.0 - risk) * headroom_after
    if accept and score < _MIN_SCORE:
        accept = False
    return FederationBid(
        domain=domain, accept=accept, score=score, price_rate=price_rate,
        headroom_after=headroom_after, risk=risk,
        reason="" if accept else "insufficient headroom")


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------

def _request_body(tag: str, delegation_id: str, home: str,
                  request: ServiceRequest) -> ET.Element:
    root = element(tag)
    subelement(root, "Delegation-ID", delegation_id)
    subelement(root, "Home", home)
    root.append(codec.encode_service_request(request))
    return root


def _decode_request_body(node: ET.Element
                         ) -> "tuple[str, str, ServiceRequest]":
    request_node = node.find("Service_Request")
    if request_node is None:
        raise MessageError(f"<{node.tag}> carries no <Service_Request>")
    return (child_text(node, "Delegation-ID"),
            child_text(node, "Home"),
            codec.decode_service_request(request_node))


def encode_bid_request(sender: str, recipient: str, delegation_id: str,
                       home: str, request: ServiceRequest) -> Envelope:
    """The ``fed_bid`` solicitation envelope."""
    return Envelope(sender=sender, recipient=recipient, action="fed_bid",
                    body=_request_body("Federation_Bid_Request",
                                       delegation_id, home, request))


def encode_delegate(sender: str, recipient: str, delegation_id: str,
                    home: str, request: ServiceRequest) -> Envelope:
    """The ``fed_delegate`` admission envelope."""
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_delegate",
                    body=_request_body("Federation_Delegate",
                                       delegation_id, home, request))


def encode_confirm(sender: str, recipient: str, delegation_id: str,
                   sla_id: int) -> Envelope:
    """The ``fed_confirm`` envelope sealing a delegation."""
    root = element("Federation_Confirm")
    subelement(root, "Delegation-ID", delegation_id)
    subelement(root, "SLA-ID", str(sla_id))
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_confirm", body=root)


def encode_cancel(sender: str, recipient: str,
                  delegation_id: str) -> Envelope:
    """The ``fed_cancel`` envelope abandoning a delegation."""
    root = element("Federation_Cancel")
    subelement(root, "Delegation-ID", delegation_id)
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_cancel", body=root)


def encode_heartbeat(sender: str, recipient: str, observer: str) -> Envelope:
    """The ``fed_heartbeat`` probe envelope."""
    root = element("Federation_Heartbeat")
    subelement(root, "Observer", observer)
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_heartbeat", body=root)


def decode_bid(node: ET.Element) -> FederationBid:
    """Parse a ``<Federation_Bid>`` reply."""
    return FederationBid(
        domain=child_text(node, "Domain"),
        accept=child_text(node, "Accept") == "yes",
        score=float(child_text(node, "Score", default="0")),
        price_rate=float(child_text(node, "Price_Rate", default="0")),
        headroom_after=float(child_text(node, "Headroom", default="0")),
        risk=float(child_text(node, "Risk", default="0")),
        reason=child_text(node, "Reason", default=""))


class DelegationReply(NamedTuple):
    """Parsed ``<Federation_Delegated>`` reply."""

    domain: str
    accepted: bool
    sla_id: Optional[int]
    reason: str


def decode_delegated(node: ET.Element) -> DelegationReply:
    """Parse a ``<Federation_Delegated>`` reply."""
    sla_text = child_text(node, "SLA-ID", default="")
    return DelegationReply(
        domain=child_text(node, "Domain"),
        accepted=child_text(node, "Accepted") == "yes",
        sla_id=int(sla_text) if sla_text else None,
        reason=child_text(node, "Reason", default=""))


# ----------------------------------------------------------------------
# The per-domain endpoint (peer side of the protocol)
# ----------------------------------------------------------------------

class FederationEndpoint:
    """One domain's superscheduling service on the shared bus.

    Registered as ``fed:<domain>``; every handler runs against the
    domain's own broker/journal, so the peer side of a delegation is
    as crash-consistent as a local admission.
    """

    def __init__(self, plane, domain) -> None:
        self.plane = plane
        self.domain = domain
        self.probe = domain.probe
        self.endpoint_name = f"fed:{domain.name}"
        endpoint = plane.bus.endpoint(self.endpoint_name)
        endpoint.on("fed_bid", self._on_bid)
        endpoint.on("fed_delegate", self._on_delegate)
        endpoint.on("fed_confirm", self._on_confirm)
        endpoint.on("fed_cancel", self._on_cancel)
        endpoint.on("fed_heartbeat", self._on_heartbeat)

    # -- handlers ------------------------------------------------------

    def _on_bid(self, envelope: Envelope) -> Envelope:
        delegation_id, home, request = _decode_request_body(envelope.body)
        bid = compute_bid(self.domain.testbed, request, self.domain.name)
        if self.probe.explaining:
            self.probe.decide(
                "federation", "bid" if bid.accept else "bid_declined",
                subject=request.client,
                constraint=f"delegation {delegation_id} from {home}",
                reason=bid.reason,
                chosen={"score": bid.score, "risk": bid.risk,
                        "headroom_after": bid.headroom_after})
        root = element("Federation_Bid")
        subelement(root, "Domain", self.domain.name)
        subelement(root, "Accept", "yes" if bid.accept else "no")
        subelement(root, "Score", _number(bid.score))
        subelement(root, "Price_Rate", _number(bid.price_rate))
        subelement(root, "Headroom", _number(bid.headroom_after))
        subelement(root, "Risk", _number(bid.risk))
        if bid.reason:
            subelement(root, "Reason", bid.reason)
        return envelope.reply("fed_bid_offer", root)

    def _on_delegate(self, envelope: Envelope) -> Envelope:
        delegation_id, home, request = _decode_request_body(envelope.body)
        testbed = self.domain.testbed
        # Durable intent first: whatever admission writes follow, a
        # rejoining broker can tell this booking was on a home's
        # behalf and roll it back unless the confirm also landed.
        self.probe.append(DELEGATION_BEGIN, role="peer",
                          delegation_id=delegation_id, home=home,
                          client=request.client)
        outcome = testbed.broker.request_service(request)
        sla_id = outcome.sla.sla_id if outcome.sla is not None else None
        if outcome.accepted and sla_id is not None:
            self.probe.append(DELEGATION_ACCEPTED, role="peer",
                              delegation_id=delegation_id, home=home,
                              sla_id=sla_id)
            self.domain.incoming[delegation_id] = IncomingDelegation(
                sla_id=sla_id, home=home, opened_at=testbed.sim.now)
        if self.probe.explaining:
            self.probe.decide(
                "federation",
                "delegate_in" if outcome.accepted else "delegate_in_reject",
                subject=request.client, sla_id=sla_id,
                constraint=f"delegation {delegation_id} from {home}",
                reason=outcome.reason)
        root = element("Federation_Delegated")
        subelement(root, "Domain", self.domain.name)
        subelement(root, "Accepted", "yes" if outcome.accepted else "no")
        if sla_id is not None:
            subelement(root, "SLA-ID", str(sla_id))
        if outcome.reason:
            subelement(root, "Reason", outcome.reason)
        return envelope.reply("fed_delegated", root)

    def _on_confirm(self, envelope: Envelope) -> Envelope:
        delegation_id = child_text(envelope.body, "Delegation-ID")
        entry = self.domain.incoming.get(delegation_id)
        root = element("Federation_Confirmed")
        subelement(root, "Delegation-ID", delegation_id)
        if entry is None:
            # Crashed and reconciled (or never admitted): the booking
            # is gone, tell the home so it reroutes.
            subelement(root, "Status", "unknown")
            return envelope.reply("fed_confirmed", root)
        self.probe.append(DELEGATION_CONFIRMED, role="peer",
                          delegation_id=delegation_id, sla_id=entry.sla_id)
        self.domain.confirmed.add(delegation_id)
        subelement(root, "Status", "ok")
        return envelope.reply("fed_confirmed", root)

    def _on_cancel(self, envelope: Envelope) -> Envelope:
        delegation_id = child_text(envelope.body, "Delegation-ID")
        cancelled = self.plane.cancel_incoming(
            self.domain, delegation_id, reason="home cancelled")
        root = element("Federation_Cancelled")
        subelement(root, "Delegation-ID", delegation_id)
        subelement(root, "Status", "ok" if cancelled else "gone")
        return envelope.reply("fed_cancelled", root)

    def _on_heartbeat(self, envelope: Envelope) -> Envelope:
        root = element("Federation_Alive")
        subelement(root, "Domain", self.domain.name)
        subelement(root, "Time",
                   _number(self.domain.testbed.sim.now))
        return envelope.reply("fed_alive", root)
