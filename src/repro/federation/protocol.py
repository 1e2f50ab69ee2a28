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
from operator import itemgetter
from typing import NamedTuple, Optional
from xml.etree import ElementTree as ET

from ..qos.classes import ServiceClass
from ..qos.specification import QoSSpecification
from ..recovery.journal import (DELEGATION_ACCEPTED, DELEGATION_BEGIN,
                                DELEGATION_CONFIRMED)
from ..sla.negotiation import ServiceRequest
from ..xmlmsg.codec import SERVICE_REQUEST
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.schema import (INT, NUMBER, TEXT, YES_NO, Field, Message,
                             identity)

__all__ = [
    "FederationBid",
    "FederationEndpoint",
    "IncomingDelegation",
    "compute_bid",
    "decode_bid",
    "decode_confirmed",
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

class DelegationReply(NamedTuple):
    """Parsed ``<Federation_Delegated>`` reply."""

    domain: str
    accepted: bool
    sla_id: Optional[int]
    reason: str


def _request_body(tag: str) -> Message:
    """A request carried on a home's behalf, written from
    ``(delegation_id, home, request)`` and read back as that triple."""
    return Message(tag, [
        Field("Delegation-ID", TEXT, "delegation_id", get=itemgetter(0)),
        Field("Home", TEXT, "home", get=itemgetter(1)),
        Field("Service_Request", SERVICE_REQUEST, "request",
              get=itemgetter(2)),
    ], build=lambda values: (values["delegation_id"], values["home"],
                             values["request"]))


def _status(tag: str) -> Message:
    """A peer's acknowledgement, written from ``(delegation_id,
    status)``; a missing status reads as ``""``."""
    return Message(tag, [
        Field("Delegation-ID", TEXT, "delegation_id", get=itemgetter(0)),
        Field("Status", TEXT, "status", get=itemgetter(1), default=""),
    ])


BID_REQUEST = _request_body("Federation_Bid_Request")
DELEGATE = _request_body("Federation_Delegate")
CONFIRM = Message("Federation_Confirm", [
    Field("Delegation-ID", TEXT, "delegation_id", get=itemgetter(0)),
    Field("SLA-ID", INT, "sla_id", get=itemgetter(1)),
])
CANCEL = Message("Federation_Cancel", [
    Field("Delegation-ID", TEXT, "delegation_id", get=identity),
])
HEARTBEAT = Message("Federation_Heartbeat", [
    Field("Observer", TEXT, "observer", get=identity),
])
BID = Message("Federation_Bid", [
    Field("Domain", TEXT, "domain"),
    Field("Accept", YES_NO, "accept"),
    Field("Score", NUMBER, "score", default=0.0),
    Field("Price_Rate", NUMBER, "price_rate", default=0.0),
    Field("Headroom", NUMBER, "headroom_after", default=0.0),
    Field("Risk", NUMBER, "risk", default=0.0),
    Field("Reason", TEXT, "reason", get=lambda bid: bid.reason or None,
          default=""),
], build=lambda values: FederationBid(**values))
DELEGATED = Message("Federation_Delegated", [
    Field("Domain", TEXT, "domain"),
    Field("Accepted", YES_NO, "accepted"),
    Field("SLA-ID", INT, "sla_id", default=None),
    Field("Reason", TEXT, "reason", get=lambda reply: reply.reason or None,
          default=""),
], build=lambda values: DelegationReply(**values))
CONFIRMED = _status("Federation_Confirmed")
CANCELLED = _status("Federation_Cancelled")
ALIVE = Message("Federation_Alive", [
    Field("Domain", TEXT, "domain", get=itemgetter(0)),
    Field("Time", NUMBER, "time", get=itemgetter(1)),
])


def encode_bid_request(sender: str, recipient: str, delegation_id: str,
                       home: str, request: ServiceRequest) -> Envelope:
    """The ``fed_bid`` solicitation envelope."""
    return Envelope(sender=sender, recipient=recipient, action="fed_bid",
                    body=BID_REQUEST.write((delegation_id, home, request)))


def encode_delegate(sender: str, recipient: str, delegation_id: str,
                    home: str, request: ServiceRequest) -> Envelope:
    """The ``fed_delegate`` admission envelope."""
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_delegate",
                    body=DELEGATE.write((delegation_id, home, request)))


def encode_confirm(sender: str, recipient: str, delegation_id: str,
                   sla_id: int) -> Envelope:
    """The ``fed_confirm`` envelope sealing a delegation."""
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_confirm",
                    body=CONFIRM.write((delegation_id, sla_id)))


def encode_cancel(sender: str, recipient: str,
                  delegation_id: str) -> Envelope:
    """The ``fed_cancel`` envelope abandoning a delegation."""
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_cancel", body=CANCEL.write(delegation_id))


def encode_heartbeat(sender: str, recipient: str, observer: str) -> Envelope:
    """The ``fed_heartbeat`` probe envelope."""
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_heartbeat", body=HEARTBEAT.write(observer))


def decode_bid(node: ET.Element) -> FederationBid:
    """Parse a ``<Federation_Bid>`` reply."""
    return BID.read(node)


def decode_delegated(node: ET.Element) -> DelegationReply:
    """Parse a ``<Federation_Delegated>`` reply."""
    return DELEGATED.read(node)


def decode_confirmed(node: ET.Element) -> str:
    """The status a ``<Federation_Confirmed>`` reply carries (``ok``
    when the peer sealed the booking)."""
    return CONFIRMED.read(node)["status"]


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
        delegation_id, home, request = BID_REQUEST.read(envelope.body)
        bid = compute_bid(self.domain.testbed, request, self.domain.name)
        if self.probe.explaining:
            self.probe.decide(
                "federation", "bid" if bid.accept else "bid_declined",
                subject=request.client,
                constraint=f"delegation {delegation_id} from {home}",
                reason=bid.reason,
                chosen={"score": bid.score, "risk": bid.risk,
                        "headroom_after": bid.headroom_after})
        return envelope.reply("fed_bid_offer", BID.write(bid))

    def _on_delegate(self, envelope: Envelope) -> Envelope:
        delegation_id, home, request = DELEGATE.read(envelope.body)
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
        return envelope.reply("fed_delegated", DELEGATED.write(
            DelegationReply(self.domain.name, outcome.accepted, sla_id,
                            outcome.reason)))

    def _on_confirm(self, envelope: Envelope) -> Envelope:
        delegation_id = CONFIRM.read(envelope.body)["delegation_id"]
        entry = self.domain.incoming.get(delegation_id)
        if entry is None:
            # Crashed and reconciled (or never admitted): the booking
            # is gone, tell the home so it reroutes.
            return envelope.reply("fed_confirmed",
                                  CONFIRMED.write((delegation_id, "unknown")))
        self.probe.append(DELEGATION_CONFIRMED, role="peer",
                          delegation_id=delegation_id, sla_id=entry.sla_id)
        self.domain.confirmed.add(delegation_id)
        return envelope.reply("fed_confirmed",
                              CONFIRMED.write((delegation_id, "ok")))

    def _on_cancel(self, envelope: Envelope) -> Envelope:
        delegation_id = CANCEL.read(envelope.body)["delegation_id"]
        cancelled = self.plane.cancel_incoming(
            self.domain, delegation_id, reason="home cancelled")
        return envelope.reply("fed_cancelled", CANCELLED.write(
            (delegation_id, "ok" if cancelled else "gone")))

    def _on_heartbeat(self, envelope: Envelope) -> Envelope:
        return envelope.reply("fed_alive", ALIVE.write(
            (self.domain.name, self.domain.testbed.sim.now)))
