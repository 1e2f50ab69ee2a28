"""In-process message bus replacing SOAP-over-HTTP.

Components register as named :class:`Endpoint` handlers; the bus routes
:class:`~repro.xmlmsg.envelope.Envelope` objects between them. Every
message is serialized to XML and re-parsed on delivery, so the wire
format is genuinely exercised (a handler never sees the sender's
objects, a caller never the handler's) — once per leg: the request is
rendered and parsed at delivery, the reply is rendered by the endpoint
that produced it, and that one text is what its dedup cache remembers
and what the caller's copy is parsed from. Delivery is either
synchronous (request/response, used for the control-plane calls in
Figure 2) or scheduled on the simulator with a configurable latency
(used to model notification delay).

Two production concerns live here as well:

* **At-least-once tolerance** — every endpoint keeps a bounded
  :class:`~repro.xmlmsg.idempotency.DedupCache` keyed on
  :attr:`~repro.xmlmsg.envelope.Envelope.dedup_key`; a duplicated or
  retried request is answered from the cached reply instead of
  re-executing the handler.
* **Fault injection** — an installed
  :class:`~repro.xmlmsg.faults.FaultPlan` perturbs deliveries
  (drop/duplicate/delay/error/reorder) deterministically from the sim
  seed. A lost synchronous leg surfaces as
  :class:`~repro.errors.MessageDropped`; a lost or failing
  notification lands in :attr:`MessageBus.dead_letters` instead of
  unwinding the simulator's event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import GQoSMError, MessageDropped, MessageError, RemoteFaultError
from ..probe import Probe
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from .envelope import Envelope
from .faults import FaultDecision, FaultPlan
from .idempotency import DEFAULT_CAPACITY, DedupCache

#: A handler takes the delivered request and returns a response
#: envelope (or ``None`` for one-way notifications).
Handler = Callable[[Envelope], Optional[Envelope]]


@dataclass(frozen=True)
class DeadLetter:
    """A notification that could not be delivered or processed."""

    time: float
    sender: str
    recipient: str
    action: str
    message_id: str
    reason: str
    detail: str = ""


class Endpoint:
    """A named participant on the bus, dispatching by action name.

    Args:
        name: Unique endpoint name on the bus.
        dedup_capacity: Size of the idempotency cache (number of
            remembered request outcomes).
    """

    def __init__(self, name: str,
                 dedup_capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self._actions: Dict[str, Handler] = {}
        self.dedup: "DedupCache[Optional[str]]" = DedupCache(dedup_capacity)
        #: The clock replies are stamped with; set when the endpoint
        #: joins a bus (:meth:`MessageBus.register`).
        self._sim: Optional[Simulator] = None

    def on(self, action: str, handler: Handler) -> None:
        """Register a handler for an action name."""
        self._actions[action] = handler

    def dispatch(self, envelope: Envelope) -> Optional[Envelope]:
        """Invoke the handler for the envelope's action.

        The handler's reply is stamped (``SentAt``, and the request's
        ``TraceID`` when the handler set none), rendered once and
        remembered as that wire text; what is returned is always a
        copy parsed from the remembered text, so the caller never sees
        the handler's objects and a first delivery and a re-delivery
        take the same way out.

        Re-deliveries of an already-executed request (same
        :attr:`~repro.xmlmsg.envelope.Envelope.dedup_key`) are answered
        from the cache without running the handler again — a duplicated
        ``create`` must never double-reserve. Failed handlers are not
        cached, so a retry after an error re-executes.
        """
        key = envelope.dedup_key
        if not self.dedup.seen(key):
            handler = self._actions.get(envelope.action)
            if handler is None:
                raise MessageError(
                    f"endpoint {self.name!r} has no handler for action "
                    f"{envelope.action!r}")
            response = handler(envelope)
            wire = None
            if response is not None:
                if self._sim is not None:
                    response.sent_at = self._sim.now
                if response.trace_id is None:
                    response.trace_id = envelope.trace_id
                wire = response.to_xml()
            self.dedup.put(key, wire)
        cached = self.dedup.get(key)
        return Envelope.from_xml(cached) if cached is not None else None


class MessageBus:
    """Routes envelopes between registered endpoints.

    Args:
        sim: Simulator used to timestamp and (for async sends) delay
            deliveries.
        trace: Optional recorder; every send/delivery is logged under
            the ``"message"`` category (injected faults under
            ``"chaos"``, undeliverable notifications under
            ``"dead-letter"``).
        latency: Default delivery delay for :meth:`send_async`.
        faults: Optional fault plan; :meth:`install_faults` can attach
            one later. Without a plan the bus is a perfect transport.
        probe: The seam of the testbed that owns the wire: spans per
            request leg and delivery (parented across hops by the
            envelope's TraceID/SpanID headers), transport and dedup
            counters in the hub's registry.
    """

    def __init__(self, sim: Simulator,
                 trace: Optional[TraceRecorder] = None,
                 latency: float = 0.0,
                 faults: Optional[FaultPlan] = None,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self._trace = trace
        self._endpoints: Dict[str, Endpoint] = {}
        self.latency = latency
        self.faults = faults
        self.dead_letters: List[DeadLetter] = []
        self.probe = probe if probe is not None else Probe()

    def adopt_endpoints(self) -> None:
        """Re-home the dedup counters of endpoints that registered
        before telemetry was installed in the hub's registry."""
        for endpoint in self._endpoints.values():
            self.probe.adopt(endpoint.dedup, endpoint=endpoint.name)

    @property
    def sim(self) -> Simulator:
        """The simulator whose clock stamps deliveries."""
        return self._sim

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or with ``None``, remove) the fault plan."""
        self.faults = plan

    def register(self, endpoint: Endpoint) -> Endpoint:
        """Attach an endpoint; names must be unique."""
        if endpoint.name in self._endpoints:
            raise MessageError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint
        endpoint._sim = self._sim
        self.probe.adopt(endpoint.dedup, endpoint=endpoint.name)
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        """Create, register and return a new endpoint."""
        return self.register(Endpoint(name))

    def _decide(self, envelope: Envelope, leg: str) -> Optional[FaultDecision]:
        if self.faults is None:
            return None
        decision = self.faults.decide(envelope, leg)
        if decision.clean:
            return decision
        kinds = [name for flag, name in (
            (decision.drop, "drop"), (decision.error, "error"),
            (decision.duplicate, "duplicate"),
            (decision.reorder, "reorder"),
            (decision.delay > 0, "delay")) if flag]
        for kind in kinds:
            self.probe.count("repro_bus_faults_total", kind=kind, leg=leg)
        if self._trace is not None:
            self._trace.record(
                self._sim.now, "chaos",
                f"{'+'.join(kinds)} on {leg} {envelope.sender} -> "
                f"{envelope.recipient}: {envelope.action}",
                message_id=envelope.message_id, leg=leg,
                delay=decision.delay)
        return decision

    def _dead_letter(self, envelope: Envelope, reason: str,
                     detail: str = "") -> DeadLetter:
        letter = DeadLetter(
            time=self._sim.now, sender=envelope.sender,
            recipient=envelope.recipient, action=envelope.action,
            message_id=envelope.message_id, reason=reason, detail=detail)
        self.dead_letters.append(letter)
        self.probe.count("repro_bus_dead_letters_total", reason=reason)
        if self._trace is not None:
            self._trace.record(
                self._sim.now, "dead-letter",
                f"{envelope.sender} -> {envelope.recipient}: "
                f"{envelope.action} ({reason})",
                message_id=envelope.message_id, detail=detail)
        return letter

    def _deliver(self, envelope: Envelope) -> Optional[Envelope]:
        target = self._endpoints.get(envelope.recipient)
        if target is None:
            raise MessageError(f"unknown endpoint {envelope.recipient!r}")
        # Round-trip through XML so handlers only ever see the wire form.
        delivered = Envelope.from_xml(envelope.to_xml())
        if self._trace is not None:
            self._trace.record(
                self._sim.now, "message",
                f"{delivered.sender} -> {delivered.recipient}: "
                f"{delivered.action}",
                message_id=delivered.message_id, action=delivered.action)
        if not self.probe.measuring or delivered.trace_id is None:
            return target.dispatch(delivered)
        # Parent the handler span at the *sender's* span carried in the
        # envelope headers, so the episode stays one connected tree even
        # when this delivery was scheduled (empty context stack) or is a
        # duplicate of an earlier leg.
        with self.probe.span(
                f"handle:{delivered.action}", delivered.recipient,
                trace_id=delivered.trace_id,
                parent_id=delivered.span_id,
                message_id=delivered.message_id,
                sender=delivered.sender):
            return target.dispatch(delivered)

    def _deliver_async(self, envelope: Envelope) -> None:
        """Scheduled-delivery entry point: failures must not unwind the
        event loop, so handler errors become dead letters."""
        try:
            self._deliver(envelope)
        except GQoSMError as error:
            self._dead_letter(envelope, "handler-error", str(error))

    def request(self, envelope: Envelope) -> Envelope:
        """Synchronous request/response (the Figure 2 control calls).

        Under an installed fault plan the call may raise
        :class:`~repro.errors.MessageDropped` (a leg was lost; for a
        request-leg drop the handler never ran) or
        :class:`~repro.errors.RemoteFaultError` (the handler ran but
        the exchange failed), both retryable thanks to endpoint-side
        idempotency.

        Raises:
            MessageError: If the handler returns no response.
        """
        probe = self.probe
        if not probe.measuring:
            return self._request(envelope)
        attributes = {"message_id": envelope.message_id,
                      "recipient": envelope.recipient}
        if envelope.retry_of is not None:
            attributes["retry_of"] = envelope.retry_of
        probe.count("repro_bus_requests_total", action=envelope.action)
        # A retried envelope already carries its trace id; when the
        # caller holds an open span (the resilient caller's ``call:``
        # span) parent there instead, so every attempt is a sibling
        # child of the one logical call.
        trace_id = (envelope.trace_id
                    if probe.current_span() is None else None)
        with probe.span(f"request:{envelope.action}", envelope.sender,
                        trace_id=trace_id, **attributes) as span:
            envelope.trace_id = span.trace_id
            envelope.span_id = span.span_id
            return self._request(envelope)

    def _request(self, envelope: Envelope) -> Envelope:
        envelope.sent_at = self._sim.now
        decision = self._decide(envelope, "request")
        if decision is not None and decision.drop:
            raise MessageDropped(
                f"request {envelope.action!r} to {envelope.recipient!r} "
                f"lost in flight")
        if decision is not None and decision.delay > 0 \
                and not self._sim.running:
            self._sim.advance(decision.delay)
        response = self._deliver(envelope)
        if decision is not None and decision.duplicate:
            # The network delivered the request twice; the endpoint's
            # dedup cache must answer the re-delivery without side
            # effects.
            response = self._deliver(envelope)
        if decision is not None and decision.error:
            raise RemoteFaultError(
                f"transport fault on {envelope.action!r} to "
                f"{envelope.recipient!r} (handler may have run)")
        if response is None:
            raise MessageError(
                f"endpoint {envelope.recipient!r} returned no response to "
                f"{envelope.action!r}")
        reply_decision = self._decide(response, "reply")
        if reply_decision is not None:
            if reply_decision.drop:
                raise MessageDropped(
                    f"reply to {envelope.action!r} from "
                    f"{envelope.recipient!r} lost in flight")
            if reply_decision.error:
                raise RemoteFaultError(
                    f"transport fault on reply to {envelope.action!r} "
                    f"from {envelope.recipient!r}")
            if reply_decision.delay > 0 and not self._sim.running:
                self._sim.advance(reply_decision.delay)
        return response

    def send_async(self, envelope: Envelope,
                   latency: Optional[float] = None) -> None:
        """One-way notification, delivered after ``latency`` sim time.

        A dropped or remotely-failing notification is recorded in
        :attr:`dead_letters` (consumers recover by re-polling, see the
        monitoring verifier); it never raises into the caller.
        """
        self.probe.count("repro_bus_notifications_total",
                         action=envelope.action)
        current = self.probe.current_span()
        if envelope.trace_id is None and current is not None:
            # Carry the publisher's span across the async hop so the
            # delayed delivery parents into the same episode tree.
            envelope.trace_id = current.trace_id
            envelope.span_id = current.span_id
        envelope.sent_at = self._sim.now
        delay = self.latency if latency is None else latency
        decision = self._decide(envelope, "notify")
        if decision is not None:
            if decision.drop:
                self._dead_letter(envelope, "dropped",
                                  "lost by fault injection")
                return
            if decision.error:
                self._dead_letter(envelope, "remote-fault",
                                  "receiver failed the delivery")
                return
            delay += decision.delay
        self._sim.schedule(
            delay, lambda: self._deliver_async(envelope),
            label=f"deliver:{envelope.action}")
        if decision is not None and decision.duplicate:
            self._sim.schedule(
                delay, lambda: self._deliver_async(envelope),
                label=f"deliver:{envelope.action}")
