"""Degradation notices over the message bus.

In the paper the NRM "notifies" SLA-Verif and the broker over the
network; the in-process :class:`~repro.monitoring.notifications.NotificationHub`
made that hop invisible to the chaos layer. The
:class:`BusNotificationRelay` restores the wire: it installs itself as
the hub's transport, serializes each
:class:`~repro.monitoring.notifications.DegradationNotice` into a
``degradation_notice`` envelope, and sends it asynchronously over the
bus to its own receiving endpoint, which fans it back out via
:meth:`~repro.monitoring.notifications.NotificationHub.deliver`.

Under fault injection a notice can now be dropped (dead-lettered),
delayed or duplicated like any other message. Loss is survivable by
design: the verifier's periodic conformance polling re-detects any
degradation whose notice vanished, so adaptation is delayed — never
deadlocked.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional
from xml.etree import ElementTree as ET

from ..sla.violations import ConformanceReport, MeasuredQoS, Violation
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.codec import DIMENSION
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.schema import INT, NUMBER, TEXT, Field, Message
from .notifications import DegradationNotice, NotificationHub

#: Endpoint name the relay listens on.
HUB_ENDPOINT = "notification-hub"


VIOLATION = Message("Violation", [
    Field("dimension", DIMENSION, "dimension", attribute=True),
    Field("expected", NUMBER, "expected", attribute=True),
    Field("measured", NUMBER, "measured", attribute=True),
    Field("severity", NUMBER, "severity", attribute=True),
])

#: Written from a ``(dimension, value)`` row.
VALUE = Message("Value", [
    Field("dimension", DIMENSION, "dimension", get=itemgetter(0),
          attribute=True),
    Field(None, NUMBER, "value", get=itemgetter(1)),
], build=lambda values: (values["dimension"], values["value"]))

MEASURED = Message("Measured", [
    Field("time", NUMBER, "time", attribute=True),
    Field("Value", VALUE, "values", repeated=True, get=lambda measured: [
        (dimension, measured.values[dimension])
        for dimension in sorted(measured.values,
                                key=lambda dimension: dimension.value)]),
])

REPORT = Message("Conformance_Report", [
    Field("sla-id", INT, "sla_id", attribute=True),
    Field("time", NUMBER, "time", attribute=True),
    Field("Violation", VIOLATION, "violations", repeated=True),
    Field("Measured", MEASURED, "measured", optional=True),
])


def _notice(values) -> DegradationNotice:
    """The notice; its report's violations carry the report's SLA id
    and its measurement the notice's, as they were sent."""
    report = values.get("report")
    if report is not None:
        measured = report.get("measured", {"time": 0.0, "values": ()})
        values["report"] = ConformanceReport(
            sla_id=report["sla_id"], time=report["time"],
            violations=tuple(
                Violation(sla_id=report["sla_id"], **violation)
                for violation in report["violations"]),
            measured=MeasuredQoS(sla_id=values["sla_id"],
                                 values=dict(measured["values"]),
                                 time=measured["time"]))
    return DegradationNotice(**values)


DEGRADATION_NOTICE = Message("Degradation_Notice", [
    Field("SLA-ID", INT, "sla_id"),
    Field("Time", NUMBER, "time"),
    Field("Source", TEXT, "source", default=""),
    Field("Detail", TEXT, "detail", get=lambda notice: notice.detail or None,
          default=""),
    Field("Conformance_Report", REPORT, "report", optional=True),
], build=_notice)


def encode_degradation_notice(notice: DegradationNotice) -> str:
    """Serialize a notice (and its report) to ``<Degradation_Notice>``."""
    return DEGRADATION_NOTICE.write(notice)


def decode_degradation_notice(node: ET.Element) -> DegradationNotice:
    """Parse a ``<Degradation_Notice>`` document."""
    return DEGRADATION_NOTICE.read(node)


class BusNotificationRelay:
    """Carries hub notices over the bus (installable chaos wiring).

    Args:
        hub: The hub whose publishes should ride the bus.
        bus: The transport.
        sender: Sender name stamped on the notice envelopes.
        endpoint_name: The relay's receiving endpoint.
        latency: Per-notice delivery latency (bus default when
            ``None``).
    """

    def __init__(self, hub: NotificationHub, bus: MessageBus, *,
                 sender: str = "sla-verif",
                 endpoint_name: str = HUB_ENDPOINT,
                 latency: Optional[float] = None) -> None:
        self._hub = hub
        self._bus = bus
        self._sender = sender
        self._latency = latency
        self.endpoint_name = endpoint_name
        self.sent = 0
        endpoint = bus.endpoint(endpoint_name)
        endpoint.on("degradation_notice", self._on_notice)
        hub.install_transport(self._send)

    def _send(self, notice: DegradationNotice) -> None:
        envelope = Envelope(
            sender=self._sender, recipient=self.endpoint_name,
            action="degradation_notice",
            body=encode_degradation_notice(notice))
        self.sent += 1
        self._bus.send_async(envelope, latency=self._latency)

    def _on_notice(self, envelope: Envelope) -> None:
        self._hub.deliver(decode_degradation_notice(envelope.body))
        return None
