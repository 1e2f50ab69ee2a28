"""Integration: the Figure 2 component interaction sequence.

A full session replays the sequence diagram — QueryServices,
RequestService, resource queries, SLA negotiation, resource
allocation, service invocation, QoS management — and the trace proves
each interaction happened in order.
"""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, SlaStatus
from repro.sla.lifecycle import QoSFunction
from repro.sla.negotiation import ServiceRequest
from repro.units import parse_bound


def _functions_performed(session):
    """The distinct QoS functions a session ran, in first-run order."""
    return list(dict.fromkeys(
        function for _time, function in session.history))


@pytest.fixture
def session_outcome(testbed):
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 10),
        exact_parameter(Dimension.MEMORY_MB, 2048),
        exact_parameter(Dimension.DISK_MB, 15360),
    )
    request = ServiceRequest(
        client="scientists", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=100.0,
        network=NetworkDemand("135.200.50.101", "192.200.168.33",
                              100.0, parse_bound("LessThan 10%")))
    return testbed.broker.request_service(request)


class TestSequence:
    def test_session_established_and_active(self, testbed, session_outcome):
        assert session_outcome.accepted
        assert session_outcome.sla.status is SlaStatus.ACTIVE

    def test_trace_shows_figure2_order(self, testbed, session_outcome):
        messages = [entry.message for entry in testbed.trace]
        discovery = next(index for index, message in enumerate(messages)
                         if "discovery" in message)
        reservation = next(index for index, message in enumerate(messages)
                           if "temporarily reserved" in message)
        launch = next(index for index, message in enumerate(messages)
                      if "launched" in message)
        established = next(index for index, message in enumerate(messages)
                           if "established" in message)
        assert discovery < reservation < launch
        assert discovery < established

    def test_lifecycle_functions_recorded(self, session_outcome):
        functions = _functions_performed(session_outcome.session)
        assert functions[:4] == [QoSFunction.SPECIFICATION,
                                 QoSFunction.MAPPING,
                                 QoSFunction.NEGOTIATION,
                                 QoSFunction.RESERVATION]
        assert QoSFunction.ALLOCATION in functions
        assert QoSFunction.MONITORING in functions

    def test_qos_management_phase_runs(self, testbed, session_outcome):
        report = testbed.broker.conformance_test(
            session_outcome.sla.sla_id)
        assert report.conformant

    def test_clearing_on_completion(self, testbed, session_outcome):
        testbed.sim.run(until=120.0)
        sla = session_outcome.sla
        assert sla.status in (SlaStatus.COMPLETED, SlaStatus.EXPIRED)
        functions = _functions_performed(session_outcome.session)
        assert QoSFunction.TERMINATION in functions
        assert QoSFunction.ACCOUNTING in functions
