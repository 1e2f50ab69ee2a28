"""The SOAP-style gateway onto the AQoS broker (Figure 5).

"A client interface application starts at the client side; the client
application communicates with the AQoS broker using SOAP messages over
HTTP protocol" (Section 6). The gateway registers the broker as an
``aqos`` endpoint on a :class:`~repro.xmlmsg.bus.MessageBus` and
handles the four client operations of the Figure 7 interface:

* ``service_request`` — discovery + negotiation; replies with a
  ``service_offer`` message.
* ``accept_offer`` — establishes the SLA; replies with the Table 4
  ``<Service_SLA>`` document.
* ``reject_offer`` — abandons the negotiation.
* ``verify_sla`` — explicit conformance test; replies with the Table 3
  ``<QoS_Levels>`` document.

:class:`ClientStub` is the matching client-side helper, so examples
and tests can drive the broker purely through XML messages.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Optional

from ..errors import MessageError
from ..sla.negotiation import Negotiation, NegotiationState, Offer, ServiceRequest
from ..xmlmsg import codec
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.resilient import ResilientCaller
from ..xmlmsg.schema import INT, TEXT, Field, Message, identity
from .broker import AQoSBroker


def _failure(tag: str) -> Message:
    """A refusal carrying the broker's reason."""
    return Message(tag, [Field("Reason", TEXT, "reason", get=identity)])


ACCEPT_OFFER = Message("Accept_Offer", [
    Field("Negotiation-ID", INT, "negotiation_id", get=itemgetter(0)),
    Field("Offer-Index", INT, "offer_index", get=itemgetter(1), default=0),
])
REJECT_OFFER = Message("Reject_Offer", [
    Field("Negotiation-ID", INT, "negotiation_id", get=identity),
])
OFFER_REJECTED = Message("Offer_Rejected", [
    Field("Negotiation-ID", INT, "negotiation_id", get=identity),
])
VERIFY_SLA = Message("Verify_SLA", [
    Field("SLA-ID", INT, "sla_id", get=identity),
])
SERVICE_OFFER_FAILURE = _failure("Service_Offer_Failure")
ESTABLISHMENT_FAILURE = _failure("Establishment_Failure")


class BrokerGateway:
    """Exposes a broker as the ``aqos`` endpoint on a message bus."""

    def __init__(self, broker: AQoSBroker, bus: MessageBus, *,
                 endpoint_name: str = "aqos") -> None:
        self._broker = broker
        self._bus = bus
        self.endpoint_name = endpoint_name
        self._negotiations: Dict[int, Negotiation] = {}
        self._offered_at: Dict[int, float] = {}
        endpoint = bus.endpoint(endpoint_name)
        endpoint.on("service_request", self._on_service_request)
        endpoint.on("accept_offer", self._on_accept_offer)
        endpoint.on("reject_offer", self._on_reject_offer)
        endpoint.on("verify_sla", self._on_verify_sla)

    def abandon(self, negotiation_id: int) -> bool:
        """Clear a pending negotiation the client never resolved.

        The negotiation leaves the ``OFFERED`` state through the
        regular protocol (a reject), so no state machine is wedged.
        Returns whether the id was pending.
        """
        negotiation = self._negotiations.pop(negotiation_id, None)
        self._offered_at.pop(negotiation_id, None)
        if negotiation is None:
            return False
        if negotiation.state is NegotiationState.OFFERED:
            negotiation.reject()
        return True

    def sweep_stale(self, max_age: float) -> int:
        """Abandon negotiations offered more than ``max_age`` ago.

        With a lossy transport a client's accept/reject can be lost for
        good (circuit open); this sweep guarantees those negotiations
        are cleanly cleared instead of pinning broker state forever.
        Returns the number of negotiations abandoned.
        """
        now = self._bus.sim.now
        stale = [negotiation_id
                 for negotiation_id, offered_at in self._offered_at.items()
                 if now - offered_at > max_age]
        for negotiation_id in stale:
            self.abandon(negotiation_id)
        return len(stale)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _on_service_request(self, envelope: Envelope) -> Envelope:
        request = codec.decode_service_request(envelope.body)
        negotiation, reason = self._broker.negotiate(request)
        if negotiation.state.value != "offered":
            return envelope.reply("service_offer_failure",
                                  SERVICE_OFFER_FAILURE.write(
                                      reason or "negotiation failed"))
        self._negotiations[negotiation.negotiation_id] = negotiation
        self._offered_at[negotiation.negotiation_id] = self._bus.sim.now
        return envelope.reply(
            "service_offer",
            codec.encode_offers(negotiation.negotiation_id,
                                negotiation.offers))

    def _lookup(self, negotiation_id: int) -> Negotiation:
        negotiation = self._negotiations.get(negotiation_id)
        if negotiation is None:
            raise MessageError(
                f"unknown or finished negotiation {negotiation_id}")
        return negotiation

    def _on_accept_offer(self, envelope: Envelope) -> Envelope:
        body = ACCEPT_OFFER.read(envelope.body)
        negotiation = self._lookup(body["negotiation_id"])
        index = body["offer_index"]
        if not 0 <= index < len(negotiation.offers):
            raise MessageError(
                f"negotiation {negotiation.negotiation_id} has no offer "
                f"{index}")
        negotiation.accept(negotiation.offers[index])
        outcome = self._broker.establish(negotiation)
        del self._negotiations[negotiation.negotiation_id]
        self._offered_at.pop(negotiation.negotiation_id, None)
        if not outcome.accepted or outcome.sla is None:
            return envelope.reply("establishment_failure",
                                  ESTABLISHMENT_FAILURE.write(outcome.reason))
        return envelope.reply("sla_established",
                              codec.encode_service_sla(outcome.sla))

    def _on_reject_offer(self, envelope: Envelope) -> Envelope:
        negotiation = self._lookup(
            REJECT_OFFER.read(envelope.body)["negotiation_id"])
        negotiation.reject()
        del self._negotiations[negotiation.negotiation_id]
        self._offered_at.pop(negotiation.negotiation_id, None)
        return envelope.reply("offer_rejected",
                              OFFER_REJECTED.write(negotiation.negotiation_id))

    def _on_verify_sla(self, envelope: Envelope) -> Envelope:
        sla_id = VERIFY_SLA.read(envelope.body)["sla_id"]
        return envelope.reply(
            "qos_levels", self._broker.verifier.conformance_reply_xml(sla_id))


class ClientStub:
    """Client-side helper sending the Figure 7 XML messages.

    All calls go through a :class:`~repro.xmlmsg.resilient.ResilientCaller`
    so that, under fault injection, lost legs are retried with backoff
    and server-side dedup instead of surfacing to the example code. On
    a perfect transport the caller is pass-through (no extra RNG draws,
    no waits), keeping fault-free runs byte-identical.
    """

    def __init__(self, name: str, bus: MessageBus, *,
                 gateway_name: str = "aqos",
                 caller: Optional[ResilientCaller] = None) -> None:
        self.name = name
        self._gateway_name = gateway_name
        self.caller = caller if caller is not None \
            else ResilientCaller(bus, name=name)

    def _request(self, action: str, body: str) -> Envelope:
        envelope = Envelope(sender=self.name,
                            recipient=self._gateway_name,
                            action=action, body=body)
        return self.caller.call(envelope)

    def request_service(self, request: ServiceRequest
                        ) -> "tuple[Optional[int], list, str]":
        """Send a ``service_request``; returns
        ``(negotiation_id, offers, failure_reason)``."""
        response = self._request("service_request",
                                 codec.encode_service_request(request))
        if response.action == "service_offer_failure":
            return None, [], SERVICE_OFFER_FAILURE.read(
                response.body)["reason"]
        negotiation_id, offers = codec.decode_offers(response.body)
        return negotiation_id, offers, ""

    def accept_offer(self, negotiation_id: int, *,
                     offer_index: int = 0):
        """Accept an offer; returns the decoded SLA document (or
        ``None`` with the failure reason)."""
        response = self._request("accept_offer", ACCEPT_OFFER.write(
            (negotiation_id, offer_index)))
        if response.action == "establishment_failure":
            return None, ESTABLISHMENT_FAILURE.read(response.body)["reason"]
        return codec.decode_service_sla(response.body), ""

    def reject_offer(self, negotiation_id: int) -> None:
        """Reject the outstanding offers."""
        self._request("reject_offer", REJECT_OFFER.write(negotiation_id))

    def verify_sla(self, sla_id: int):
        """Explicit SLA verification test; returns the measured values
        decoded from the Table 3 reply."""
        response = self._request("verify_sla", VERIFY_SLA.write(sla_id))
        return codec.decode_qos_levels(response.body)
