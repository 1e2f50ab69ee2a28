"""Monitoring: sensors, the MDS information service, SLA-Verif.

"The QoS monitoring system keeps track of Grid resources and provides
information on resources, such as resource availability and
utilization, to be used for adaptation purposes" (Section 3.2).

* :mod:`repro.monitoring.sensors` — the sensor interface the
  broker's per-session sensors implement.
* :mod:`repro.monitoring.mds` — the Globus MDS-like information
  service the SLA-Verif polls "using the Java CoG Kit MDS APIs".
* :mod:`repro.monitoring.verifier` — the SLA-Verif component:
  on-demand conformance tests, periodic polling, degradation
  notifications.
* :mod:`repro.monitoring.notifications` — the pub/sub hub carrying
  degradation notifications to the broker.
* :mod:`repro.monitoring.relay` — the hub's bus transport, making
  notices droppable/delayable under fault injection.
"""

from .mds import InformationService
from .notifications import DegradationNotice, NotificationHub
from .relay import BusNotificationRelay
from .sensors import Sensor, SensorReading
from .verifier import SlaVerifier

__all__ = [
    "BusNotificationRelay",
    "DegradationNotice",
    "InformationService",
    "NotificationHub",
    "Sensor",
    "SensorReading",
    "SlaVerifier",
]
