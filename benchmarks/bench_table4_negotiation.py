"""T4 — Table 4: a negotiated SLA with adaptation options.

Runs a controlled-load negotiation whose accepted offer carries
alternative QoS points and a promotion-offer flag, regenerates the
``<Service_SLA>`` document of Table 4, and benchmarks the negotiation
plus document encoding.
"""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions
from repro.sla.negotiation import ServiceRequest
from repro.xmlmsg import codec
from repro.xmlmsg.document import parse_xml

from .conftest import report


def table4_request(client="user2"):
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 10, 15),
        range_parameter(Dimension.MEMORY_MB, 48, 64),
        range_parameter(Dimension.BANDWIDTH_MBPS, 45, 100))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=spec, start=0.0, end=200.0,
        adaptation=AdaptationOptions(
            alternative_points=({Dimension.CPU: 10.0,
                                 Dimension.MEMORY_MB: 48.0,
                                 Dimension.BANDWIDTH_MBPS: 45.0},),
            accept_promotion=True))


def test_table4_artifact(fresh_testbed):
    outcome = fresh_testbed.broker.request_service(table4_request())
    assert outcome.accepted, outcome.reason
    text = codec.encode_service_sla(outcome.sla, codec.DISPLAY)
    report("T4 — Table 4: negotiated SLA with adaptation options", text)
    assert "<QoS_Class>Controlled-load</QoS_Class>" in text
    assert "<Alternative_QoS>" in text
    assert "<Memory>48MB</Memory>" in text
    assert "<Bandwidth>45 Mbps</Bandwidth>" in text
    assert "<Promotion_Offer>Accept</Promotion_Offer>" in text


def test_table4_negotiation_benchmark(benchmark, fresh_testbed):
    broker = fresh_testbed.broker
    counter = [0]

    def negotiate_only():
        counter[0] += 1
        negotiation, reason = broker.negotiate(
            table4_request(client=f"user-{counter[0]}"))
        assert not reason
        return negotiation

    negotiation = benchmark(negotiate_only)
    assert negotiation.offers


def test_table4_document_encoding_benchmark(benchmark, fresh_testbed):
    outcome = fresh_testbed.broker.request_service(table4_request())
    sla = outcome.sla

    def encode_decode():
        return codec.decode_service_sla(parse_xml(codec.encode_service_sla(sla)))

    decoded = benchmark(encode_decode)
    assert decoded.adaptation.accept_promotion
