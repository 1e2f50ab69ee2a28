"""The paper's message schemas, declared once as field tables.

Three schemas come straight from the paper:

* Table 1 — ``<Service-Specific>``: the SLA portion relayed to the
  resource managers (CPU, memory, network block).
* Table 3 — ``<QoS_Levels>``: the reply to an SLA conformance test.
* Table 4 — ``<Service_SLA>``: a negotiated SLA with its
  ``<Adaptation_Options>`` (alternative QoS + promotion offer).

The Figure 7 client messages, ``<Service_Request>`` and
``<Service_Offer>``, share their pieces (QoS specification, operating
points, network block, adaptation options).

Every ``encode_*`` is the one writer of :mod:`~repro.xmlmsg.schema`
over its table, writing the compact wire form; the three paper tables
also take ``pad=DISPLAY`` for the indented form they are printed in.
Every ``decode_*`` is the one reader over the same table.
Round-tripping is exact for the information content.
"""

from __future__ import annotations

from operator import itemgetter, methodcaller
from typing import Dict, Optional, Tuple
from xml.etree import ElementTree as ET

from .. import units
from ..qos.classes import ServiceClass
from ..qos.parameters import (Dimension, Form, discrete_parameter,
                              exact_parameter, range_parameter)
from ..qos.specification import OperatingPoint, QoSSpecification
from ..sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from ..sla.negotiation import Offer, ServiceRequest
from ..sla.violations import MeasuredQoS
from .schema import (ACCEPT, DISPLAY, INT, NUMBER, TEXT, WIRE, Field, Kind,
                     Message, enum_kind, identity)


def _kwargs(cls):
    """A ``build`` calling ``cls`` with the values as keywords."""
    return lambda values: cls(**values)


def _render_loss(loss) -> str:
    """A measured loss: against its bound when it holds, else plain."""
    if isinstance(loss, units.Bound):
        return units.render_bound(loss)
    return units.render_percentage(loss)


def _parse_loss(text: str) -> float:
    """Either form of a loss reading; a worded bound reads as its value
    (the tightest claim the message makes)."""
    text = text.strip()
    if " " in text:
        return units.parse_bound(text).value
    return units.parse_percentage(text)


CPU = Kind("CPU count", lambda count: units.render_cpu(int(count)),
           lambda text: float(units.parse_cpu(text)))
MEMORY = Kind("memory size", units.render_memory_mb, units.parse_memory_mb)
BANDWIDTH = Kind("bandwidth", units.render_bandwidth_mbps,
                 units.parse_bandwidth_mbps)
PERCENTAGE = Kind("percentage", units.render_percentage,
                  units.parse_percentage)
DELAY = Kind("delay", units.render_delay_ms, units.parse_delay_ms)
BOUND = Kind("bound", units.render_bound, units.parse_bound)
LOSS = Kind("packet loss", _render_loss, _parse_loss)
DIMENSION = enum_kind(Dimension)
SERVICE_CLASS = enum_kind(ServiceClass, ServiceClass.from_label)

# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

#: An operating point, one optional child per dimension (canonical
#: order); reads back as the point's dict.
POINT = Message("QoS", [
    Field(tag, kind, dimension, get=methodcaller("get", dimension),
          optional=True)
    for dimension, tag, kind in (
        (Dimension.CPU, "CPU", CPU),
        (Dimension.MEMORY_MB, "Memory", MEMORY),
        (Dimension.DISK_MB, "Disk", MEMORY),
        (Dimension.BANDWIDTH_MBPS, "Bandwidth", BANDWIDTH),
        (Dimension.PACKET_LOSS, "Packet_Loss", PERCENTAGE),
        (Dimension.DELAY_MS, "Delay", DELAY))])

NETWORK = Message("Network_QoS", [
    Field("Source_IP", TEXT, "source_ip"),
    Field("Dest_IP", TEXT, "dest_ip"),
    Field("Bandwidth", BANDWIDTH, "bandwidth_mbps"),
    Field("Packet_Loss", BOUND, "packet_loss_bound", optional=True),
    Field("Delay", DELAY, "delay_bound_ms", optional=True),
], build=_kwargs(NetworkDemand))


def _parameter(values):
    dimension, form = values["dimension"], values["form"]
    if form is Form.RANGE:
        return range_parameter(dimension, values["low"], values["high"])
    if form is Form.EXACT:
        return exact_parameter(dimension, values["values"][0])
    return discrete_parameter(dimension, values["values"])


#: A Section 5.3 parameter: ``<Low>``/``<High>`` for a range, one
#: ``<Value>`` per listed (or the one exact) value.
PARAMETER = Message("Parameter", [
    Field("dimension", DIMENSION, "dimension", attribute=True),
    Field("form", enum_kind(Form), "form", attribute=True),
    Field("Low", NUMBER, "low", optional=True),
    Field("High", NUMBER, "high", optional=True),
    Field("Value", NUMBER, "values", repeated=True),
], build=_parameter)

SPECIFICATION = Message("QoS_Specification", [
    Field("Parameter", PARAMETER, "parameters", repeated=True),
], build=lambda values: QoSSpecification(values["parameters"]))

VALIDITY = Message("Validity", [
    Field("Start", NUMBER, "start"),
    Field("End", NUMBER, "end"),
])

ADAPTATION = Message("Adaptation_Options", [
    Field("Alternative_QoS", POINT, "alternative_points", repeated=True),
    Field("Promotion_Offer", ACCEPT, "accept_promotion", optional=True),
    Field("Degradation", ACCEPT, "accept_degradation", optional=True),
    Field("Termination", ACCEPT, "accept_termination", optional=True),
], build=_kwargs(AdaptationOptions))

# ----------------------------------------------------------------------
# Table 1: <Service-Specific>
# ----------------------------------------------------------------------


def _agreed(dimension: Dimension):
    return lambda sla: sla.agreed_point.get(dimension)


def _service_specific(values):
    network = values.get("network")
    point: OperatingPoint = {
        dimension: values[dimension]
        for dimension in (Dimension.CPU, Dimension.MEMORY_MB,
                          Dimension.DISK_MB) if dimension in values}
    if network is not None:
        point[Dimension.BANDWIDTH_MBPS] = network.bandwidth_mbps
    return values["sla_id"], point, network


SERVICE_SPECIFIC = Message("Service-Specific", [
    Field("SLA-ID", INT, "sla_id", default=0),
    Field("CPU-QoS", CPU, Dimension.CPU, get=_agreed(Dimension.CPU),
          optional=True),
    Field("Memory-QoS", MEMORY, Dimension.MEMORY_MB,
          get=_agreed(Dimension.MEMORY_MB), optional=True),
    Field("Disk-QoS", MEMORY, Dimension.DISK_MB,
          get=_agreed(Dimension.DISK_MB), optional=True),
    Field("Network_QoS", NETWORK, "network", optional=True),
], build=_service_specific)


def encode_service_specific(sla: ServiceSLA, pad: str = WIRE) -> str:
    """The SLA portion relayed to the resource managers."""
    return SERVICE_SPECIFIC.write(sla, pad)


def decode_service_specific(node: ET.Element
                            ) -> "Tuple[int, OperatingPoint, Optional[NetworkDemand]]":
    """Decode Table 1 XML into ``(sla_id, operating point, network)``."""
    return SERVICE_SPECIFIC.read(node)


# ----------------------------------------------------------------------
# Table 3: <QoS_Levels>, written from ``(sla, measured)``
# ----------------------------------------------------------------------


def _measured(dimension: Dimension):
    return lambda levels: levels[1].get(dimension)


def _reported_loss(levels):
    """The paper reports the measured loss against its bound
    ("LessThan 10%") when the bound holds, else the plain reading."""
    sla, measured = levels
    loss = measured.get(Dimension.PACKET_LOSS)
    bound = sla.network.packet_loss_bound
    if loss is None or bound is None:
        return None
    return bound if bound.satisfied_by(loss) else loss


MEASURED_NETWORK = Message("Measured_Network_QoS", [
    Field("Source_IP", TEXT, get=lambda levels: levels[0].network.source_ip),
    Field("Dest_IP", TEXT, get=lambda levels: levels[0].network.dest_ip),
    Field("Bandwidth", BANDWIDTH, Dimension.BANDWIDTH_MBPS,
          get=_measured(Dimension.BANDWIDTH_MBPS), optional=True),
    Field("Packet_Loss", LOSS, Dimension.PACKET_LOSS, get=_reported_loss,
          optional=True),
    Field("Delay", DELAY, Dimension.DELAY_MS,
          get=_measured(Dimension.DELAY_MS), optional=True),
])

MEASURED_COMPUTATION = Message("Measured_Computation_QoS", [
    Field("CPU", CPU, Dimension.CPU, get=_measured(Dimension.CPU),
          optional=True),
    Field("Memory", MEMORY, Dimension.MEMORY_MB,
          get=_measured(Dimension.MEMORY_MB), optional=True),
])


def _qos_levels(values):
    measured: "Dict[Dimension, float]" = {}
    measured.update(values.get("network", ()))
    measured.update(values.get("computation", ()))
    return values["sla_id"], measured


QOS_LEVELS = Message("QoS_Levels", [
    Field("SLA-ID", INT, "sla_id", get=lambda levels: levels[0].sla_id),
    Field("Measured_Network_QoS", MEASURED_NETWORK, "network",
          get=lambda levels: None if levels[0].network is None else levels,
          optional=True),
    Field("Measured_Computation_QoS", MEASURED_COMPUTATION, "computation",
          get=identity, optional=True),
], build=_qos_levels)


def encode_qos_levels(sla: ServiceSLA, measured: MeasuredQoS,
                      pad: str = WIRE) -> str:
    """Encode the SLA-conformance-test reply of Table 3."""
    return QOS_LEVELS.write((sla, measured), pad)


def decode_qos_levels(node: ET.Element) -> "Tuple[int, Dict[Dimension, float]]":
    """Decode Table 3 XML into ``(sla_id, measured values)``.

    A ``Packet_Loss`` reported in the worded-bound form decodes to the
    bound's value (the tightest claim the message makes).
    """
    return QOS_LEVELS.read(node)


# ----------------------------------------------------------------------
# Table 4: <Service_SLA>
# ----------------------------------------------------------------------


def _adapted(sla: ServiceSLA) -> Optional[OperatingPoint]:
    """Not in the paper's Table 4 (which shows a freshly negotiated
    SLA); carried so adapted sessions persist faithfully."""
    if sla.delivered_point == sla.agreed_point:
        return None
    return sla.delivered_point


def _service_sla(values):
    values.update(values.pop("validity"))
    delivered = values.pop("delivered_point", None)
    sla = ServiceSLA(**values)
    if delivered is not None:
        sla.delivered_point = delivered
    return sla


SERVICE_SLA = Message("Service_SLA", [
    Field("SLA-ID", INT, "sla_id"),
    Field("Client", TEXT, "client"),
    Field("Service", TEXT, "service_name"),
    Field("QoS_Specification", SPECIFICATION, "specification"),
    Field("QoS_Class", SERVICE_CLASS, "service_class"),
    Field("Agreed_QoS", POINT, "agreed_point"),
    Field("Delivered_QoS", POINT, "delivered_point", get=_adapted,
          optional=True),
    Field("Validity", VALIDITY, "validity", get=identity),
    Field("Price_Rate", NUMBER, "price_rate", optional=True),
    Field("Network_QoS", NETWORK, "network", optional=True),
    Field("Adaptation_Options", ADAPTATION, "adaptation"),
], build=_service_sla)


def encode_service_sla(sla: ServiceSLA, pad: str = WIRE) -> str:
    """Encode a negotiated SLA in the Table 4 shape."""
    return SERVICE_SLA.write(sla, pad)


def render_service_sla(sla: ServiceSLA) -> str:
    """Table 4 in the journal's form: compact, byte-for-byte what
    ``ET.tostring`` of the equivalent tree gives. Every admission
    durably writes it."""
    return SERVICE_SLA.write(sla)


def decode_service_sla(node: ET.Element) -> ServiceSLA:
    """Decode a Table 4 ``<Service_SLA>`` back into a document."""
    return SERVICE_SLA.read(node)


# ----------------------------------------------------------------------
# Service requests and offers (the Figure 7 client messages)
# ----------------------------------------------------------------------


def _service_request(values):
    values.update(values.pop("validity"))
    return ServiceRequest(**values)


SERVICE_REQUEST = Message("Service_Request", [
    Field("Client", TEXT, "client"),
    Field("Service", TEXT, "service_name"),
    Field("QoS_Class", SERVICE_CLASS, "service_class"),
    Field("QoS_Specification", SPECIFICATION, "specification"),
    Field("Validity", VALIDITY, "validity", get=identity),
    Field("Budget_Rate", NUMBER, "budget_rate", optional=True),
    Field("Network_QoS", NETWORK, "network", optional=True),
    Field("Adaptation_Options", ADAPTATION, "adaptation", optional=True),
], build=_service_request)


def encode_service_request(request: ServiceRequest) -> str:
    """Encode a client ``service_request`` message (Figure 7)."""
    return SERVICE_REQUEST.write(request)


def decode_service_request(node: ET.Element) -> ServiceRequest:
    """Decode a ``service_request`` message into a ServiceRequest."""
    return SERVICE_REQUEST.read(node)


#: One offer, written from its row ``(index, point, rate, note)``.
OFFER = Message("Offer", [
    Field("index", INT, get=itemgetter(0), attribute=True),
    Field("QoS", POINT, "point", get=itemgetter(1)),
    Field("Price_Rate", NUMBER, "price_rate", get=itemgetter(2)),
    Field("Note", TEXT, "note", get=lambda row: row[3] or None,
          optional=True),
], build=_kwargs(Offer))

SERVICE_OFFER = Message("Service_Offer", [
    Field("Negotiation-ID", INT, "negotiation_id", get=itemgetter(0)),
    Field("Offer", OFFER, "offers", repeated=True, get=lambda reply: [
        (index, offer.point, offer.price_rate, offer.note)
        for index, offer in enumerate(reply[1])]),
], build=lambda values: (values["negotiation_id"], list(values["offers"])))


def encode_offers(negotiation_id: int, offers) -> str:
    """Encode the broker's ``service_offer`` reply (Figure 7)."""
    return SERVICE_OFFER.write((negotiation_id, offers))


def decode_offers(node: ET.Element):
    """Decode a ``service_offer`` reply into ``(negotiation_id, offers)``."""
    return SERVICE_OFFER.read(node)
