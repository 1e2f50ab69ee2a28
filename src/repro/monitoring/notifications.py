"""Degradation notifications.

"When the network QoS degrades, the Network Resource Manager (NRM)
notifies the SLA-Verif system of such degradation" (Section 3.2), and
SLA-Verif "generates a notification of any QoS degradation of an
agreed on QoS". The :class:`NotificationHub` is the pub/sub channel
those notices travel on; the AQoS broker subscribes and feeds
Scenario 3 adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sla.violations import ConformanceReport


@dataclass(frozen=True)
class DegradationNotice:
    """One degradation event.

    Attributes:
        sla_id: The affected session.
        time: When the degradation was detected.
        source: Which component raised it (``"nrm"``, ``"sla-verif"``,
            ``"compute"``).
        report: The conformance report that triggered the notice, when
            one exists.
        detail: Human-readable description.
    """

    sla_id: int
    time: float
    source: str
    report: Optional[ConformanceReport] = None
    detail: str = ""

    @property
    def severity(self) -> float:
        """Worst violation severity carried by the notice (0 if none)."""
        if self.report is None:
            return 0.0
        worst = self.report.worst()
        return worst.severity if worst is not None else 0.0


#: Subscriber callback.
Subscriber = Callable[[DegradationNotice], None]


class NotificationHub:
    """A pub/sub hub for degradation notices.

    By default delivery is synchronous fan-out (the pre-chaos
    behaviour). A *transport* — e.g. the
    :class:`~repro.monitoring.relay.BusNotificationRelay` — can be
    installed to carry notices over the message bus instead; the
    transport must eventually call :meth:`deliver` for each notice
    that survives the trip (a dropped notification simply never
    arrives, which is why consumers must also poll).
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._transport: Optional[Subscriber] = None

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a subscriber; every publish reaches all of them."""
        self._subscribers.append(subscriber)

    def install_transport(self, transport: Optional[Subscriber]) -> None:
        """Route future publishes through ``transport`` (``None``
        restores synchronous fan-out)."""
        self._transport = transport

    def publish(self, notice: DegradationNotice) -> None:
        """Emit a notice, through the transport when one is installed."""
        if self._transport is not None:
            self._transport(notice)
            return
        self.deliver(notice)

    def deliver(self, notice: DegradationNotice) -> None:
        """Fan a notice out to subscribers (the transport's delivery
        entry point; called directly by :meth:`publish` when no
        transport is installed)."""
        for subscriber in list(self._subscribers):
            subscriber(notice)
