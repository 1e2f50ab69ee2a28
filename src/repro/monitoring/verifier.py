"""SLA-Verif: the conformance-verification component of the AQoS.

"In the AQoS broker, the verification can be accomplished by a SLA
conformance test on an explicit request by the client/application. ...
The AQoS does not constantly monitor the QoS levels of the allocated
resources; rather it relies on the SLA-Verif component" (Section 3.2).

The verifier:

* runs an on-demand conformance test for one SLA, assembling measured
  values from the sensors registered for the session and producing the
  Table 3 XML reply;
* optionally polls periodically ("the SLA-Verif uses the Java CoG Kit
  MDS APIs to periodically retrieve QoS data");
* publishes a :class:`~repro.monitoring.notifications.DegradationNotice`
  whenever a test finds violations;
* receives NRM degradation callbacks and republishes them against the
  owning SLA.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import MonitoringError
from ..network.nrm import FlowAllocation, NetworkMeasurement
from ..probe import Probe
from ..qos.parameters import Dimension
from ..recovery.journal import RESTORATION, VIOLATION
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry
from ..sla.repository import SLARepository
from ..sla.violations import (
    ConformanceReport,
    MeasuredQoS,
    check_conformance,
)
from .mds import InformationService
from .notifications import DegradationNotice, NotificationHub
from .sensors import Sensor


class SlaVerifier:
    """The SLA-Verif component.

    Args:
        sim: Simulation engine.
        mds: Information service holding the sensors.
        repository: The SLA repository to verify against.
        hub: Where degradation notices are published.
        trace: Optional activity recorder.
        metrics: Registry for the SLA gauges/counters (violations
            detected, restorations, tests run); a private one is
            created when omitted so counting always works.
        tolerance: Relative slack before a shortfall is a violation.
        probe: The testbed's instrumentation seam.
    """

    def __init__(self, sim: Simulator, mds: InformationService,
                 repository: SLARepository, hub: NotificationHub, *,
                 trace: Optional[TraceRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tolerance: float = 0.05,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self._mds = mds
        self._repository = repository
        self._hub = hub
        self._trace = trace
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry(now=lambda: sim.now))
        self.probe = probe if probe is not None else Probe()
        self.tolerance = tolerance
        #: sensor names attached per SLA id
        self._session_sensors: Dict[int, List[str]] = {}
        self._poll_event = None
        #: SLA ids currently in a detected-violation state, so the
        #: detected/restored counters count state *transitions*, not
        #: every poll of an already-degraded session.
        self._violating: set = set()

    @property
    def tests_run(self) -> int:
        """Total conformance tests executed (registry-backed)."""
        return int(self.metrics.counter_value(
            "repro_sla_conformance_tests_total"))

    # ------------------------------------------------------------------
    # Session wiring
    # ------------------------------------------------------------------

    def attach_sensor(self, sla_id: int, sensor: Sensor) -> None:
        """Associate a sensor with a session (registers it in MDS)."""
        if not self._mds.has_sensor(sensor.name):
            self._mds.register(sensor)
        self._session_sensors.setdefault(sla_id, []).append(sensor.name)

    def detach_session(self, sla_id: int) -> None:
        """Drop a finished session's sensors."""
        for name in self._session_sensors.pop(sla_id, []):
            self._mds.unregister(name)
        self._violating.discard(sla_id)
        self.metrics.gauge("repro_sla_violating_sessions").set(
            float(len(self._violating)))

    def reset_sessions(self) -> None:
        """Forget every session binding (crash-recovery wipe).

        MDS registrations are left alone: recovery re-attaches sensors
        by name, and :meth:`attach_sensor` deduplicates registration.
        """
        self._session_sensors.clear()
        self._violating.clear()
        self.metrics.gauge("repro_sla_violating_sessions").set(0.0)

    # ------------------------------------------------------------------
    # Conformance testing
    # ------------------------------------------------------------------

    def measure(self, sla_id: int) -> MeasuredQoS:
        """Assemble the measured values for a session from its sensors.

        Raises:
            MonitoringError: When the session has no sensors attached.
        """
        names = self._session_sensors.get(sla_id)
        if not names:
            raise MonitoringError(
                f"no sensors attached for SLA {sla_id}")
        values: Dict[Dimension, float] = {}
        for name in names:
            reading = self._mds.query(name)
            values.update(reading.values)
        return MeasuredQoS(sla_id=sla_id, values=values, time=self._sim.now)

    def conformance_test(self, sla_id: int) -> ConformanceReport:
        """Run one conformance test (the explicit client request path)."""
        with self.probe.span("conformance-test", "sla-verif",
                             sla_id=sla_id) as span:
            report = self._conformance_test(sla_id)
            if span is not None:
                span.attributes["conformant"] = report.conformant
            return report

    def _conformance_test(self, sla_id: int) -> ConformanceReport:
        sla = self._repository.get(sla_id)
        measured = self.measure(sla_id)
        report = check_conformance(sla, measured, tolerance=self.tolerance)
        self.metrics.counter("repro_sla_conformance_tests_total").inc()
        if self._trace is not None:
            verdict = ("conformant" if report.conformant
                       else f"{len(report.violations)} violation(s)")
            self._trace.record(self._sim.now, "sla-verif",
                               f"conformance test SLA {sla_id}: {verdict}")
        if not report.conformant:
            if sla_id not in self._violating:
                self._violating.add(sla_id)
                self.metrics.counter(
                    "repro_sla_violations_detected_total").inc()
                probe = self.probe
                probe.append(VIOLATION, sla_id=sla_id)
                if probe.explaining:
                    worst = report.worst()
                    detail = (f"; worst: {worst.dimension.value} "
                              f"expected {worst.expected:g} measured "
                              f"{worst.measured:g} (severity "
                              f"{worst.severity:.2f})"
                              if worst is not None else "")
                    probe.decide(
                        "violation", "detected", sla_id=sla_id,
                        subject=f"sla-{sla_id}",
                        constraint=(worst.dimension.value
                                    if worst is not None else ""),
                        reason=f"{len(report.violations)} "
                               f"violation(s){detail}")
                probe.on_violation(sla_id, self._sim.now)
            self.metrics.counter(
                "repro_sla_degradation_notices_total",
                source="sla-verif").inc()
            self._hub.publish(DegradationNotice(
                sla_id=sla_id, time=self._sim.now, source="sla-verif",
                report=report,
                detail=f"conformance test found "
                       f"{len(report.violations)} violation(s)"))
        elif sla_id in self._violating:
            self._violating.discard(sla_id)
            self.metrics.counter("repro_sla_restorations_total").inc()
            probe = self.probe
            probe.append(RESTORATION, sla_id=sla_id)
            if probe.explaining:
                probe.decide(
                    "restoration", "restored", sla_id=sla_id,
                    subject=f"sla-{sla_id}",
                    reason="conformance test back within tolerance")
            probe.on_restoration(sla_id, self._sim.now)
        self.metrics.gauge("repro_sla_violating_sessions").set(
            float(len(self._violating)))
        return report

    def conformance_reply_xml(self, sla_id: int, pad: str = "") -> str:
        """Run a test and encode the Table 3 ``<QoS_Levels>`` reply
        (compact for the wire; ``pad="\\n"`` for the indented
        paper-table form)."""
        from ..xmlmsg.codec import encode_qos_levels
        sla = self._repository.get(sla_id)
        measured = self.measure(sla_id)
        self.metrics.counter("repro_sla_conformance_tests_total").inc()
        return encode_qos_levels(sla, measured, pad)

    # ------------------------------------------------------------------
    # Periodic polling
    # ------------------------------------------------------------------

    def start_polling(self, interval: float) -> None:
        """Begin periodic conformance tests over all monitored sessions."""
        if interval <= 0:
            raise MonitoringError(f"poll interval must be positive: {interval}")
        if self._poll_event is not None:
            return

        def poll() -> None:
            self._poll_event = None
            for sla_id in list(self._session_sensors):
                sla = self._repository.get(sla_id)
                if sla.status.is_live and sla.service_class.monitored:
                    self.conformance_test(sla_id)
            self._poll_event = self._sim.schedule(interval, poll,
                                                  label="sla-verif:poll")

        self._poll_event = self._sim.schedule(interval, poll,
                                              label="sla-verif:poll")

    def stop_polling(self) -> None:
        """Stop the periodic tests."""
        if self._poll_event is not None:
            self._sim.cancel(self._poll_event)
            self._poll_event = None

    # ------------------------------------------------------------------
    # NRM callback path
    # ------------------------------------------------------------------

    def on_network_degradation(self, sla_id_for_flow) -> "callable":
        """Build the NRM degradation listener.

        Args:
            sla_id_for_flow: Mapping function ``flow -> sla_id`` (or
                ``None`` when the flow belongs to no monitored SLA).
        """
        def listener(flow: FlowAllocation,
                     measurement: NetworkMeasurement) -> None:
            sla_id = sla_id_for_flow(flow)
            if sla_id is None:
                return
            self.metrics.counter(
                "repro_sla_degradation_notices_total", source="nrm").inc()
            self._hub.publish(DegradationNotice(
                sla_id=sla_id, time=self._sim.now, source="nrm",
                detail=f"flow {flow.flow_id} delivering "
                       f"{measurement.bandwidth_mbps:g} of "
                       f"{flow.bandwidth_mbps:g} Mbps"))
            if self._trace is not None:
                self._trace.record(
                    self._sim.now, "sla-verif",
                    f"NRM degradation notice for SLA {sla_id}")
        return listener
