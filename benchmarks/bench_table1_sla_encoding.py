"""T1 — Table 1: the SLA portion relayed to the resource managers.

Regenerates the paper's ``<Service-Specific>`` XML (4 CPU, 64MB,
10 Mbps, ``LessThan 10%``) from an established SLA document and
benchmarks the encode/decode round trip.
"""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, ServiceSLA
from repro.units import parse_bound
from repro.xmlmsg import codec
from repro.xmlmsg.document import parse_xml

from .conftest import report


def paper_sla() -> ServiceSLA:
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 64),
    )
    return ServiceSLA(
        sla_id=1055, client="user1", service_name="simulation",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=100.0,
        network=NetworkDemand("192.200.168.33", "135.200.50.101", 10.0,
                              parse_bound("LessThan 10%")))


def test_table1_artifact_matches_paper():
    text = codec.encode_service_specific(paper_sla(), codec.DISPLAY)
    report("T1 — Table 1: SLA portion relayed to the RMs", text)
    for fragment in ("<CPU-QoS>4 CPU</CPU-QoS>",
                     "<Memory-QoS>64MB</Memory-QoS>",
                     "<Source_IP>192.200.168.33</Source_IP>",
                     "<Dest_IP>135.200.50.101</Dest_IP>",
                     "<Bandwidth>10 Mbps</Bandwidth>",
                     "<Packet_Loss>LessThan 10%</Packet_Loss>"):
        assert fragment in text


def test_table1_roundtrip_benchmark(benchmark):
    sla = paper_sla()

    def round_trip():
        wire = codec.encode_service_specific(sla)
        return codec.decode_service_specific(parse_xml(wire))

    sla_id, point, network = benchmark(round_trip)
    assert sla_id == 1055
    assert point[Dimension.CPU] == 4.0
    assert network.bandwidth_mbps == 10.0
