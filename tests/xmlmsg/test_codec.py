"""Tests for the paper's XML schemas (repro.xmlmsg.codec).

Tables 1, 3 and 4 are the ground truth: the encoder must reproduce the
paper's element names, nesting and value formats, and every encode must
decode back losslessly.
"""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import (
    Dimension,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from repro.sla.violations import MeasuredQoS
from repro.units import parse_bound
from repro.xmlmsg import codec
from repro.xmlmsg.document import parse_xml


@pytest.fixture
def table1_sla():
    """An SLA carrying exactly the paper's Table 1 content."""
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 64),
        exact_parameter(Dimension.BANDWIDTH_MBPS, 10),
    )
    return ServiceSLA(
        sla_id=1055, client="user1", service_name="simulation",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=100.0,
        price_rate=12.0,
        network=NetworkDemand("192.200.168.33", "135.200.50.101", 10.0,
                              parse_bound("LessThan 10%")))


@pytest.fixture
def table4_sla():
    """A controlled-load SLA with Table 4's adaptation options."""
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 10, 55),
        range_parameter(Dimension.MEMORY_MB, 48, 64),
        range_parameter(Dimension.BANDWIDTH_MBPS, 45, 100),
    )
    return ServiceSLA(
        sla_id=1056, client="user2", service_name="render",
        service_class=ServiceClass.CONTROLLED_LOAD, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=50.0,
        price_rate=60.0,
        adaptation=AdaptationOptions(
            alternative_points=({Dimension.CPU: 55.0,
                                 Dimension.MEMORY_MB: 48.0,
                                 Dimension.BANDWIDTH_MBPS: 45.0},),
            accept_promotion=True))


class TestTable1:
    def test_paper_elements_present(self, table1_sla):
        text = codec.encode_service_specific(table1_sla, codec.DISPLAY)
        assert "<CPU-QoS>4 CPU</CPU-QoS>" in text
        assert "<Memory-QoS>64MB</Memory-QoS>" in text
        assert "<Source_IP>192.200.168.33</Source_IP>" in text
        assert "<Dest_IP>135.200.50.101</Dest_IP>" in text
        assert "<Bandwidth>10 Mbps</Bandwidth>" in text
        assert "<Packet_Loss>LessThan 10%</Packet_Loss>" in text

    def test_round_trip(self, table1_sla):
        node = parse_xml(codec.encode_service_specific(table1_sla))
        sla_id, point, network = codec.decode_service_specific(node)
        assert sla_id == 1055
        assert point[Dimension.CPU] == 4.0
        assert point[Dimension.MEMORY_MB] == 64.0
        assert network is not None
        assert network.bandwidth_mbps == 10.0
        assert network.packet_loss_bound.value == pytest.approx(0.1)

    def test_no_network_block_when_absent(self, table4_sla):
        text = codec.encode_service_specific(table4_sla, codec.DISPLAY)
        assert "Network_QoS" not in text

    def test_wrong_root_rejected(self, table1_sla):
        from repro.errors import MessageError
        from .trees import element
        with pytest.raises(MessageError):
            codec.decode_service_specific(element("Wrong"))


class TestTable3:
    def test_paper_shape(self, table1_sla):
        measured = MeasuredQoS(sla_id=1055, values={
            Dimension.BANDWIDTH_MBPS: 9.5,
            Dimension.PACKET_LOSS: 0.02,
            Dimension.DELAY_MS: 10.0,
        }, time=5.0)
        text = codec.encode_qos_levels(table1_sla, measured, codec.DISPLAY)
        assert "<SLA-ID>1055</SLA-ID>" in text
        assert "<Bandwidth>9.5 Mbps</Bandwidth>" in text
        # The loss bound holds, so it is reported in the worded form.
        assert "<Packet_Loss>LessThan 10%</Packet_Loss>" in text
        assert "<Delay>10ms</Delay>" in text

    def test_violated_bound_reports_measured_value(self, table1_sla):
        measured = MeasuredQoS(sla_id=1055, values={
            Dimension.PACKET_LOSS: 0.25,
        })
        text = codec.encode_qos_levels(table1_sla, measured, codec.DISPLAY)
        assert "<Packet_Loss>25%</Packet_Loss>" in text

    def test_round_trip(self, table1_sla):
        measured = MeasuredQoS(sla_id=1055, values={
            Dimension.BANDWIDTH_MBPS: 9.5,
            Dimension.CPU: 4.0,
            Dimension.MEMORY_MB: 64.0,
        })
        node = parse_xml(codec.encode_qos_levels(table1_sla, measured))
        sla_id, values = codec.decode_qos_levels(node)
        assert sla_id == 1055
        assert values[Dimension.BANDWIDTH_MBPS] == pytest.approx(9.5)
        assert values[Dimension.CPU] == 4.0
        assert values[Dimension.MEMORY_MB] == 64.0


class TestTable4:
    def test_paper_elements(self, table4_sla):
        text = codec.encode_service_sla(table4_sla, codec.DISPLAY)
        assert "<QoS_Class>Controlled-load</QoS_Class>" in text
        assert "<Alternative_QoS>" in text
        assert "<Promotion_Offer>Accept</Promotion_Offer>" in text
        assert "<Bandwidth>45 Mbps</Bandwidth>" in text
        assert "<Memory>48MB</Memory>" in text

    def test_full_round_trip(self, table4_sla):
        node = parse_xml(codec.encode_service_sla(table4_sla))
        decoded = codec.decode_service_sla(node)
        assert decoded.sla_id == table4_sla.sla_id
        assert decoded.client == table4_sla.client
        assert decoded.service_class is ServiceClass.CONTROLLED_LOAD
        assert decoded.agreed_point == table4_sla.agreed_point
        assert decoded.start == table4_sla.start
        assert decoded.end == table4_sla.end
        assert decoded.price_rate == table4_sla.price_rate
        assert decoded.adaptation.accept_promotion
        assert decoded.adaptation.alternative_points == \
            table4_sla.adaptation.alternative_points

    def test_specification_round_trip(self, table4_sla):
        node = parse_xml(codec.encode_service_sla(table4_sla))
        decoded = codec.decode_service_sla(node)
        for original in table4_sla.specification:
            restored = decoded.specification.require(original.dimension)
            assert restored.form == original.form
            assert restored.low == original.low
            assert restored.high == original.high

    def test_discrete_specification_round_trip(self):
        spec = QoSSpecification.of(
            discrete_parameter(Dimension.CPU, [2, 4, 8]))
        sla = ServiceSLA(sla_id=1, client="c", service_name="s",
                         service_class=ServiceClass.CONTROLLED_LOAD,
                         specification=spec,
                         agreed_point=spec.best_point(),
                         start=0.0, end=10.0)
        decoded = codec.decode_service_sla(
            parse_xml(codec.encode_service_sla(sla)))
        assert decoded.specification.require(Dimension.CPU).values == \
            (2.0, 4.0, 8.0)

    def test_network_round_trip(self, table1_sla):
        decoded = codec.decode_service_sla(
            parse_xml(codec.encode_service_sla(table1_sla)))
        assert decoded.network is not None
        assert decoded.network.source_ip == "192.200.168.33"
        assert decoded.network.packet_loss_bound.relation == "<"
