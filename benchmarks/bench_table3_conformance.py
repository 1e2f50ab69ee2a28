"""T3 — Table 3: the SLA conformance-test reply.

Establishes a session on the full testbed, runs the explicit SLA
verification (the Figure 7 "SLA verification test" button), regenerates
the ``<QoS_Levels>`` XML and benchmarks the measure-check-encode path.
"""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand
from repro.sla.negotiation import ServiceRequest
from repro.units import parse_bound
from repro.xmlmsg import codec

from .conftest import report


def establish(testbed):
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 64))
    outcome = testbed.broker.request_service(ServiceRequest(
        client="user1", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=1000.0,
        network=NetworkDemand("135.200.50.101", "192.200.168.33", 10.0,
                              parse_bound("LessThan 10%"))))
    assert outcome.accepted, outcome.reason
    return outcome.sla


def test_table3_artifact(fresh_testbed):
    sla = establish(fresh_testbed)
    text = fresh_testbed.broker.verifier.conformance_reply_xml(
        sla.sla_id, codec.DISPLAY)
    report("T3 — Table 3: SLA conformance-test reply", text)
    assert f"<SLA-ID>{sla.sla_id}</SLA-ID>" in text
    assert "<Measured_Network_QoS>" in text
    assert "<Bandwidth>10 Mbps</Bandwidth>" in text
    assert "<Packet_Loss>LessThan 10%</Packet_Loss>" in text


def test_table3_conformance_benchmark(benchmark, fresh_testbed):
    sla = establish(fresh_testbed)
    verifier = fresh_testbed.broker.verifier

    result = benchmark(verifier.conformance_test, sla.sla_id)
    assert result.conformant


def test_table3_reply_encoding_benchmark(benchmark, fresh_testbed):
    sla = establish(fresh_testbed)
    verifier = fresh_testbed.broker.verifier

    wire = benchmark(verifier.conformance_reply_xml, sla.sla_id)
    assert wire.startswith("<QoS_Levels>")
