"""SOAP-style message envelopes.

Clients "send XML messages to the AQoS broker using SOAP over HTTP"
(Figure 5). An :class:`Envelope` carries routing metadata in a header
and an arbitrary XML payload in its body; it serializes to a
``<Envelope>`` document and parses back losslessly.

Delivery semantics headers: every envelope carries a ``<MessageID>``
and a retried envelope additionally carries ``<RetryOf>`` naming the
original message id, so server-side endpoints can answer duplicated or
retried requests from a dedup cache instead of re-executing them (the
idempotency contract — see DESIGN.md's fault model).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Union
from xml.etree import ElementTree as ET

from ..errors import MessageError
from .document import _escape_text, _number, parse_xml, write_xml

_message_counter = itertools.count(1)

#: Header fields that must be present and non-empty on the wire.
_REQUIRED_HEADERS = ("MessageID", "Sender", "Recipient", "Action")


def _field(tag: str, text: str) -> str:
    """One ``<Header>`` child, as the writer renders a leaf."""
    if text:
        return f"<{tag}>{_escape_text(text)}</{tag}>"
    return f"<{tag} />"


@dataclass
class Envelope:
    """A routed XML message.

    Attributes:
        sender: Logical endpoint name of the originator.
        recipient: Logical endpoint name of the destination.
        action: Operation name, e.g. ``"service_request"`` — the
            SOAPAction equivalent.
        body: The payload: its compact text as a codec wrote it (what
            a sender builds), or the element parsed from the wire
            (what a receiver gets).
        message_id: Unique id, auto-assigned when omitted.
        in_reply_to: The request's message id, for responses.
        retry_of: For a client retry, the original attempt's message
            id. Endpoints deduplicate on :attr:`dedup_key`, so a retry
            is answered from the cached reply of the first delivery.
        sent_at: Simulation time of sending (a request is stamped by
            the bus, a reply by the endpoint that produced it).
        trace_id: Telemetry trace this message belongs to (stamped by
            the bus when telemetry is installed).
        span_id: The sender-side span that emitted this message; the
            receiving side parents its handler span here, so causality
            survives the process boundary.
    """

    sender: str
    recipient: str
    action: str
    body: "Union[str, ET.Element]"
    message_id: str = field(default_factory=lambda: f"msg-{next(_message_counter)}")
    in_reply_to: Optional[str] = None
    retry_of: Optional[str] = None
    sent_at: Optional[float] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    @property
    def dedup_key(self) -> str:
        """Idempotency key: the original message id of this request.

        A duplicated delivery shares its ``message_id``; a retried
        request carries a fresh id plus ``retry_of``. Either way the
        key identifies the one logical operation.
        """
        return self.retry_of or self.message_id

    def reply(self, action: str,
              body: "Union[str, ET.Element]") -> "Envelope":
        """Construct a response envelope routed back to the sender."""
        return Envelope(sender=self.recipient, recipient=self.sender,
                        action=action, body=body,
                        in_reply_to=self.message_id,
                        trace_id=self.trace_id)

    def retry(self) -> "Envelope":
        """A fresh retransmission of this request.

        The clone gets a new ``message_id`` and names the original
        attempt in ``retry_of`` (chained retries keep pointing at the
        first attempt, so the dedup key is stable).
        """
        return Envelope(sender=self.sender, recipient=self.recipient,
                        action=self.action, body=self.body,
                        retry_of=self.dedup_key,
                        trace_id=self.trace_id)

    def to_xml(self) -> str:
        """Serialize to a compact ``<Envelope>`` document: the header
        fields as elements, the body spliced in as written (an element
        body goes through :func:`~repro.xmlmsg.document.write_xml`)."""
        parts: "List[str]" = [
            "<Envelope><Header>", _field("MessageID", self.message_id),
            _field("Sender", self.sender),
            _field("Recipient", self.recipient),
            _field("Action", self.action)]
        if self.in_reply_to is not None:
            parts.append(_field("InReplyTo", self.in_reply_to))
        if self.retry_of is not None:
            parts.append(_field("RetryOf", self.retry_of))
        if self.sent_at is not None:
            parts.append(f"<SentAt>{_number(self.sent_at)}</SentAt>")
        if self.trace_id is not None:
            parts.append(_field("TraceID", self.trace_id))
        if self.span_id is not None:
            parts.append(_field("SpanID", self.span_id))
        parts.append("</Header><Body>")
        body = self.body
        if isinstance(body, str):
            parts.append(body)
        else:
            write_xml(parts.append, body, "")
        parts.append("</Body></Envelope>")
        return "".join(parts)

    @classmethod
    def from_xml(cls, text: str) -> "Envelope":
        """Parse an ``<Envelope>`` document (either layout).

        Raises:
            MessageError: On malformed XML, a missing/empty required
                header, or a body that does not hold exactly one
                payload element.
        """
        root = parse_xml(text)
        if root.tag != "Envelope":
            raise MessageError(f"expected <Envelope>, got <{root.tag}>")
        header = root.find("Header")
        body = root.find("Body")
        if header is None or body is None:
            raise MessageError(
                f"<Envelope> is missing required child "
                f"<{'Header' if header is None else 'Body'}>")
        if len(body) != 1:
            raise MessageError(
                f"<Body> must hold exactly one payload, got {len(body)}")
        # The first of a repeated header field counts, as a find would.
        fields = {child.tag: (child.text or "").strip()
                  for child in header[::-1]}
        for tag in _REQUIRED_HEADERS:
            if not fields.get(tag):
                raise MessageError(
                    f"<Header> field <{tag}> must not be empty"
                    if tag in fields
                    else f"<Header> is missing text child <{tag}>")
        sent_at_text = fields.get("SentAt")
        try:
            sent_at = float(sent_at_text) if sent_at_text else None
        except ValueError as error:
            raise MessageError(
                f"<SentAt> is not a number: {sent_at_text!r}") from error
        return cls(
            sender=fields["Sender"],
            recipient=fields["Recipient"],
            action=fields["Action"],
            body=body[0],
            message_id=fields["MessageID"],
            in_reply_to=fields.get("InReplyTo") or None,
            retry_of=fields.get("RetryOf") or None,
            sent_at=sent_at,
            trace_id=fields.get("TraceID") or None,
            span_id=fields.get("SpanID") or None,
        )
