"""The hand-written codec the declared message tables replaced, kept
as their oracle.

Test-only (the ``NaiveSlotTable`` / ``NaiveCapacityPartition``
pattern): every encoder builds an ``ElementTree`` element the way the
control plane used to, every decoder reads one back with a ``find`` per
field. ``test_codec_oracle.py`` holds :mod:`repro.xmlmsg.schema`'s one
writer and one reader to these: the display form equals
``pretty_xml`` of the tree, the compact form parses to the same tree,
and the objects read back are equal. Federation and gateway bodies that
used to be built inline in their handlers are functions here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from xml.etree import ElementTree as ET

from repro import units
from repro.errors import MessageError
from repro.monitoring.notifications import DegradationNotice
from repro.qos.classes import ServiceClass
from repro.qos.parameters import (
    Dimension,
    Form,
    QoSParameter,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from repro.qos.specification import OperatingPoint, QoSSpecification
from repro.registry.query import PropertyConstraint, PropertyValue, ServiceQuery
from repro.registry.uddie import ServiceRecord
from repro.federation.protocol import DelegationReply, FederationBid
from repro.sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from repro.sla.negotiation import Offer, ServiceRequest
from repro.sla.violations import ConformanceReport, MeasuredQoS, Violation
from repro.xmlmsg.document import _escape_text, _number

from .trees import child_text, element, require_child, subelement


# ----------------------------------------------------------------------
# xmlmsg/codec.py
# Table 1: <Service-Specific>
# ----------------------------------------------------------------------


def encode_service_specific(sla: ServiceSLA) -> ET.Element:
    """Encode the SLA portion relayed to the resource managers."""
    root = element("Service-Specific")
    subelement(root, "SLA-ID", str(sla.sla_id))
    point = sla.agreed_point
    if Dimension.CPU in point:
        subelement(root, "CPU-QoS", units.render_cpu(int(point[Dimension.CPU])))
    if Dimension.MEMORY_MB in point:
        subelement(root, "Memory-QoS",
                   units.render_memory_mb(point[Dimension.MEMORY_MB]))
    if Dimension.DISK_MB in point:
        subelement(root, "Disk-QoS",
                   units.render_memory_mb(point[Dimension.DISK_MB]))
    if sla.network is not None:
        root.append(_encode_network_demand(sla.network))
    return root


def _encode_network_demand(network: NetworkDemand) -> ET.Element:
    node = element("Network_QoS")
    subelement(node, "Source_IP", network.source_ip)
    subelement(node, "Dest_IP", network.dest_ip)
    subelement(node, "Bandwidth",
               units.render_bandwidth_mbps(network.bandwidth_mbps))
    if network.packet_loss_bound is not None:
        subelement(node, "Packet_Loss",
                   units.render_bound(network.packet_loss_bound))
    if network.delay_bound_ms is not None:
        subelement(node, "Delay",
                   units.render_delay_ms(network.delay_bound_ms))
    return node


def decode_service_specific(node: ET.Element
                            ) -> "Tuple[int, OperatingPoint, Optional[NetworkDemand]]":
    """Decode Table 1 XML into ``(sla_id, operating point, network)``."""
    if node.tag != "Service-Specific":
        raise MessageError(f"expected <Service-Specific>, got <{node.tag}>")
    sla_id = int(child_text(node, "SLA-ID", default="0"))
    point: OperatingPoint = {}
    cpu_text = node.find("CPU-QoS")
    if cpu_text is not None and cpu_text.text:
        point[Dimension.CPU] = float(units.parse_cpu(cpu_text.text))
    memory_text = node.find("Memory-QoS")
    if memory_text is not None and memory_text.text:
        point[Dimension.MEMORY_MB] = units.parse_memory_mb(memory_text.text)
    disk_text = node.find("Disk-QoS")
    if disk_text is not None and disk_text.text:
        point[Dimension.DISK_MB] = units.parse_memory_mb(disk_text.text)
    network_node = node.find("Network_QoS")
    network = (_decode_network_demand(network_node)
               if network_node is not None else None)
    if network is not None:
        point[Dimension.BANDWIDTH_MBPS] = network.bandwidth_mbps
    return sla_id, point, network


def _decode_network_demand(node: ET.Element) -> NetworkDemand:
    loss_text = node.find("Packet_Loss")
    delay_text = node.find("Delay")
    return NetworkDemand(
        source_ip=child_text(node, "Source_IP"),
        dest_ip=child_text(node, "Dest_IP"),
        bandwidth_mbps=units.parse_bandwidth_mbps(
            child_text(node, "Bandwidth")),
        packet_loss_bound=(units.parse_bound(loss_text.text)
                           if loss_text is not None and loss_text.text
                           else None),
        delay_bound_ms=(units.parse_delay_ms(delay_text.text)
                        if delay_text is not None and delay_text.text
                        else None),
    )


# ----------------------------------------------------------------------
# Table 3: <QoS_Levels>
# ----------------------------------------------------------------------


def encode_qos_levels(sla: ServiceSLA, measured: MeasuredQoS) -> ET.Element:
    """Encode the SLA-conformance-test reply of Table 3."""
    root = element("QoS_Levels")
    subelement(root, "SLA-ID", str(sla.sla_id))
    network = sla.network
    if network is not None:
        node = subelement(root, "Measured_Network_QoS")
        subelement(node, "Source_IP", network.source_ip)
        subelement(node, "Dest_IP", network.dest_ip)
        bandwidth = measured.get(Dimension.BANDWIDTH_MBPS)
        if bandwidth is not None:
            subelement(node, "Bandwidth",
                       units.render_bandwidth_mbps(bandwidth))
        loss = measured.get(Dimension.PACKET_LOSS)
        if loss is not None and network.packet_loss_bound is not None:
            # The paper reports the measured loss against its bound
            # ("LessThan 10%") when the bound holds.
            bound = network.packet_loss_bound
            if bound.satisfied_by(loss):
                subelement(node, "Packet_Loss", units.render_bound(bound))
            else:
                subelement(node, "Packet_Loss",
                           units.render_percentage(loss))
        delay = measured.get(Dimension.DELAY_MS)
        if delay is not None:
            subelement(node, "Delay", units.render_delay_ms(delay))
    compute = subelement(root, "Measured_Computation_QoS")
    cpu = measured.get(Dimension.CPU)
    if cpu is not None:
        subelement(compute, "CPU", units.render_cpu(int(cpu)))
    memory = measured.get(Dimension.MEMORY_MB)
    if memory is not None:
        subelement(compute, "Memory", units.render_memory_mb(memory))
    return root


def decode_qos_levels(node: ET.Element) -> "Tuple[int, Dict[Dimension, float]]":
    """Decode Table 3 XML into ``(sla_id, measured values)``.

    A ``Packet_Loss`` reported in the worded-bound form decodes to the
    bound's value (the tightest claim the message makes).
    """
    if node.tag != "QoS_Levels":
        raise MessageError(f"expected <QoS_Levels>, got <{node.tag}>")
    sla_id = int(child_text(node, "SLA-ID"))
    values: Dict[Dimension, float] = {}
    network = node.find("Measured_Network_QoS")
    if network is not None:
        bandwidth = network.find("Bandwidth")
        if bandwidth is not None and bandwidth.text:
            values[Dimension.BANDWIDTH_MBPS] = units.parse_bandwidth_mbps(
                bandwidth.text)
        loss = network.find("Packet_Loss")
        if loss is not None and loss.text:
            text = loss.text.strip()
            if " " in text:
                values[Dimension.PACKET_LOSS] = units.parse_bound(text).value
            else:
                values[Dimension.PACKET_LOSS] = units.parse_percentage(text)
        delay = network.find("Delay")
        if delay is not None and delay.text:
            values[Dimension.DELAY_MS] = units.parse_delay_ms(delay.text)
    compute = node.find("Measured_Computation_QoS")
    if compute is not None:
        cpu = compute.find("CPU")
        if cpu is not None and cpu.text:
            values[Dimension.CPU] = float(units.parse_cpu(cpu.text))
        memory = compute.find("Memory")
        if memory is not None and memory.text:
            values[Dimension.MEMORY_MB] = units.parse_memory_mb(memory.text)
    return sla_id, values


# ----------------------------------------------------------------------
# Table 4: <Service_SLA>
# ----------------------------------------------------------------------


def encode_service_sla(sla: ServiceSLA) -> ET.Element:
    """Encode a negotiated SLA in the Table 4 shape."""
    root = element("Service_SLA")
    subelement(root, "SLA-ID", str(sla.sla_id))
    subelement(root, "Client", sla.client)
    subelement(root, "Service", sla.service_name)
    root.append(_encode_specification(sla.specification))
    subelement(root, "QoS_Class", sla.service_class.value)
    root.append(_encode_point("Agreed_QoS", sla.agreed_point))
    if sla.delivered_point != sla.agreed_point:
        # Not in the paper's Table 4 (which shows a freshly negotiated
        # SLA); needed so adapted sessions persist faithfully.
        root.append(_encode_point("Delivered_QoS", sla.delivered_point))
    window = subelement(root, "Validity")
    subelement(window, "Start", _number(sla.start))
    subelement(window, "End", _number(sla.end))
    subelement(root, "Price_Rate", _number(sla.price_rate))
    if sla.network is not None:
        root.append(_encode_network_demand(sla.network))
    options = subelement(root, "Adaptation_Options")
    for point in sla.adaptation.alternative_points:
        options.append(_encode_point("Alternative_QoS", point))
    subelement(options, "Promotion_Offer",
               "Accept" if sla.adaptation.accept_promotion else "Decline")
    subelement(options, "Degradation",
               "Accept" if sla.adaptation.accept_degradation else "Decline")
    subelement(options, "Termination",
               "Accept" if sla.adaptation.accept_termination else "Decline")
    return root


def render_service_sla(sla: ServiceSLA) -> str:
    """Render Table 4 XML as a compact string, byte-for-byte equal to
    ``ET.tostring(encode_service_sla(sla), encoding="unicode")``.

    This is the journal's hot path: every admission durably writes the
    full document, and building an ElementTree only to flatten it
    again costs ~10x the string assembly.  A property test pins the
    equality against the tree encoder, so the two cannot drift.
    """
    out: List[str] = ["<Service_SLA>"]
    add = out.append
    add(f"<SLA-ID>{sla.sla_id}</SLA-ID>")
    add(f"<Client>{_escape_text(sla.client)}</Client>")
    add(f"<Service>{_escape_text(sla.service_name)}</Service>")
    _render_specification(sla.specification, add)
    add(f"<QoS_Class>{sla.service_class.value}</QoS_Class>")
    _render_point("Agreed_QoS", sla.agreed_point, add)
    if sla.delivered_point != sla.agreed_point:
        _render_point("Delivered_QoS", sla.delivered_point, add)
    add(f"<Validity><Start>{_number(sla.start)}</Start>"
        f"<End>{_number(sla.end)}</End></Validity>")
    add(f"<Price_Rate>{_number(sla.price_rate)}</Price_Rate>")
    if sla.network is not None:
        _render_network_demand(sla.network, add)
    add("<Adaptation_Options>")
    for point in sla.adaptation.alternative_points:
        _render_point("Alternative_QoS", point, add)
    adaptation = sla.adaptation
    add(f"<Promotion_Offer>"
        f"{'Accept' if adaptation.accept_promotion else 'Decline'}"
        f"</Promotion_Offer>")
    add(f"<Degradation>"
        f"{'Accept' if adaptation.accept_degradation else 'Decline'}"
        f"</Degradation>")
    add(f"<Termination>"
        f"{'Accept' if adaptation.accept_termination else 'Decline'}"
        f"</Termination>")
    add("</Adaptation_Options></Service_SLA>")
    return "".join(out)


def _render_specification(spec: QoSSpecification, add) -> None:
    parameters = list(spec)
    if not parameters:
        add("<QoS_Specification />")
        return
    add("<QoS_Specification>")
    for parameter in parameters:
        add(f'<Parameter dimension="{parameter.dimension.value}" '
            f'form="{parameter.form.value}">')
        if parameter.form is Form.RANGE:
            add(f"<Low>{_number(parameter.low)}</Low>"
                f"<High>{_number(parameter.high)}</High>")
        else:
            for value in parameter.values:
                add(f"<Value>{_number(value)}</Value>")
        add("</Parameter>")
    add("</QoS_Specification>")


def _render_point(tag: str, point: OperatingPoint, add) -> None:
    if not point:
        add(f"<{tag} />")
        return
    add(f"<{tag}>")
    for dimension, (child_tag, renderer, _parser) in _POINT_TAGS.items():
        if dimension in point:
            add(f"<{child_tag}>{renderer(point[dimension])}</{child_tag}>")
    add(f"</{tag}>")


def _render_network_demand(network: NetworkDemand, add) -> None:
    add("<Network_QoS>")
    add(f"<Source_IP>{_escape_text(network.source_ip)}</Source_IP>")
    add(f"<Dest_IP>{_escape_text(network.dest_ip)}</Dest_IP>")
    add(f"<Bandwidth>"
        f"{units.render_bandwidth_mbps(network.bandwidth_mbps)}"
        f"</Bandwidth>")
    if network.packet_loss_bound is not None:
        add(f"<Packet_Loss>"
            f"{units.render_bound(network.packet_loss_bound)}"
            f"</Packet_Loss>")
    if network.delay_bound_ms is not None:
        add(f"<Delay>{units.render_delay_ms(network.delay_bound_ms)}"
            f"</Delay>")
    add("</Network_QoS>")


_POINT_TAGS = {
    Dimension.CPU: ("CPU", lambda v: units.render_cpu(int(v)),
                    lambda t: float(units.parse_cpu(t))),
    Dimension.MEMORY_MB: ("Memory", units.render_memory_mb,
                          units.parse_memory_mb),
    Dimension.DISK_MB: ("Disk", units.render_memory_mb,
                        units.parse_memory_mb),
    Dimension.BANDWIDTH_MBPS: ("Bandwidth", units.render_bandwidth_mbps,
                               units.parse_bandwidth_mbps),
    Dimension.PACKET_LOSS: ("Packet_Loss", units.render_percentage,
                            units.parse_percentage),
    Dimension.DELAY_MS: ("Delay", units.render_delay_ms,
                         units.parse_delay_ms),
}


def _encode_point(tag: str, point: OperatingPoint) -> ET.Element:
    node = element(tag)
    for dimension, (child_tag, renderer, _parser) in _POINT_TAGS.items():
        if dimension in point:
            subelement(node, child_tag, renderer(point[dimension]))
    return node


def _decode_point(node: ET.Element) -> OperatingPoint:
    point: OperatingPoint = {}
    for dimension, (child_tag, _renderer, parser) in _POINT_TAGS.items():
        child = node.find(child_tag)
        if child is not None and child.text:
            point[dimension] = parser(child.text)
    return point


def _encode_specification(spec: QoSSpecification) -> ET.Element:
    node = element("QoS_Specification")
    for parameter in spec:
        child = subelement(node, "Parameter",
                           dimension=parameter.dimension.value,
                           form=parameter.form.value)
        if parameter.form is Form.RANGE:
            subelement(child, "Low", _number(parameter.low))
            subelement(child, "High", _number(parameter.high))
        else:
            for value in parameter.values:
                subelement(child, "Value", _number(value))
    return node


def _decode_specification(node: ET.Element) -> QoSSpecification:
    parameters: List[QoSParameter] = []
    for child in node.findall("Parameter"):
        dimension = Dimension(child.get("dimension", ""))
        form = Form(child.get("form", ""))
        if form is Form.RANGE:
            parameters.append(range_parameter(
                dimension,
                float(child_text(child, "Low")),
                float(child_text(child, "High"))))
        else:
            values = [float(v.text) for v in child.findall("Value")
                      if v.text]
            if form is Form.EXACT:
                parameters.append(exact_parameter(dimension, values[0]))
            else:
                parameters.append(discrete_parameter(dimension, values))
    return QoSSpecification.from_iterable(parameters)


def decode_service_sla(node: ET.Element) -> ServiceSLA:
    """Decode a Table 4 ``<Service_SLA>`` back into a document."""
    if node.tag != "Service_SLA":
        raise MessageError(f"expected <Service_SLA>, got <{node.tag}>")
    options_node = require_child(node, "Adaptation_Options")
    alternatives = tuple(_decode_point(child)
                         for child in options_node.findall("Alternative_QoS"))
    adaptation = AdaptationOptions(
        alternative_points=alternatives,
        accept_promotion=child_text(
            options_node, "Promotion_Offer", default="Decline") == "Accept",
        accept_degradation=child_text(
            options_node, "Degradation", default="Decline") == "Accept",
        accept_termination=child_text(
            options_node, "Termination", default="Decline") == "Accept",
    )
    network_node = node.find("Network_QoS")
    window = require_child(node, "Validity")
    sla = ServiceSLA(
        sla_id=int(child_text(node, "SLA-ID")),
        client=child_text(node, "Client"),
        service_name=child_text(node, "Service"),
        service_class=ServiceClass.from_label(child_text(node, "QoS_Class")),
        specification=_decode_specification(
            require_child(node, "QoS_Specification")),
        agreed_point=_decode_point(require_child(node, "Agreed_QoS")),
        start=float(child_text(window, "Start")),
        end=float(child_text(window, "End")),
        price_rate=float(child_text(node, "Price_Rate", default="0")),
        network=(_decode_network_demand(network_node)
                 if network_node is not None else None),
        adaptation=adaptation,
    )
    delivered_node = node.find("Delivered_QoS")
    if delivered_node is not None:
        sla.delivered_point = _decode_point(delivered_node)
    return sla


# ----------------------------------------------------------------------
# Service requests and offers (the Figure 7 client messages)
# ----------------------------------------------------------------------


def encode_service_request(request) -> ET.Element:
    """Encode a client ``service_request`` message (Figure 7)."""
    assert isinstance(request, ServiceRequest)
    root = element("Service_Request")
    subelement(root, "Client", request.client)
    subelement(root, "Service", request.service_name)
    subelement(root, "QoS_Class", request.service_class.value)
    root.append(_encode_specification(request.specification))
    window = subelement(root, "Validity")
    subelement(window, "Start", _number(request.start))
    subelement(window, "End", _number(request.end))
    if request.budget_rate is not None:
        subelement(root, "Budget_Rate", _number(request.budget_rate))
    if request.network is not None:
        root.append(_encode_network_demand(request.network))
    options = subelement(root, "Adaptation_Options")
    for point in request.adaptation.alternative_points:
        options.append(_encode_point("Alternative_QoS", point))
    subelement(options, "Promotion_Offer",
               "Accept" if request.adaptation.accept_promotion
               else "Decline")
    subelement(options, "Degradation",
               "Accept" if request.adaptation.accept_degradation
               else "Decline")
    subelement(options, "Termination",
               "Accept" if request.adaptation.accept_termination
               else "Decline")
    return root


def decode_service_request(node: ET.Element):
    """Decode a ``service_request`` message into a ServiceRequest."""
    if node.tag != "Service_Request":
        raise MessageError(f"expected <Service_Request>, got <{node.tag}>")
    options_node = node.find("Adaptation_Options")
    adaptation = AdaptationOptions()
    if options_node is not None:
        adaptation = AdaptationOptions(
            alternative_points=tuple(
                _decode_point(child)
                for child in options_node.findall("Alternative_QoS")),
            accept_promotion=child_text(
                options_node, "Promotion_Offer", default="Decline")
            == "Accept",
            accept_degradation=child_text(
                options_node, "Degradation", default="Decline") == "Accept",
            accept_termination=child_text(
                options_node, "Termination", default="Decline") == "Accept",
        )
    network_node = node.find("Network_QoS")
    window = require_child(node, "Validity")
    budget_text = child_text(node, "Budget_Rate", default="")
    return ServiceRequest(
        client=child_text(node, "Client"),
        service_name=child_text(node, "Service"),
        service_class=ServiceClass.from_label(child_text(node, "QoS_Class")),
        specification=_decode_specification(
            require_child(node, "QoS_Specification")),
        start=float(child_text(window, "Start")),
        end=float(child_text(window, "End")),
        budget_rate=float(budget_text) if budget_text else None,
        network=(_decode_network_demand(network_node)
                 if network_node is not None else None),
        adaptation=adaptation,
    )


def encode_offers(negotiation_id: int, offers) -> ET.Element:
    """Encode the broker's ``service_offer`` reply (Figure 7)."""
    root = element("Service_Offer")
    subelement(root, "Negotiation-ID", str(negotiation_id))
    for index, offer in enumerate(offers):
        node = subelement(root, "Offer", index=str(index))
        node.append(_encode_point("QoS", offer.point))
        subelement(node, "Price_Rate", _number(offer.price_rate))
        if offer.note:
            subelement(node, "Note", offer.note)
    return root


def decode_offers(node: ET.Element):
    """Decode a ``service_offer`` reply into ``(negotiation_id, offers)``."""
    if node.tag != "Service_Offer":
        raise MessageError(f"expected <Service_Offer>, got <{node.tag}>")
    negotiation_id = int(child_text(node, "Negotiation-ID"))
    offers = []
    for child in node.findall("Offer"):
        offers.append(Offer(
            point=_decode_point(require_child(child, "QoS")),
            price_rate=float(child_text(child, "Price_Rate")),
            note=child_text(child, "Note", default="")))
    return negotiation_id, offers



# ----------------------------------------------------------------------
# Discovery query and records (core/discovery.py)
# ----------------------------------------------------------------------

def _encode_value(value: PropertyValue) -> "Tuple[str, str]":
    if isinstance(value, bool):
        return "bool", "true" if value else "false"
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "float", repr(value)
    return "str", str(value)


def _decode_value(type_name: str, text: str) -> PropertyValue:
    if type_name == "bool":
        return text == "true"
    if type_name == "int":
        return int(text)
    if type_name == "float":
        return float(text)
    return text


def _text(parent: ET.Element, tag: str, absent: str) -> str:
    """The exact text of child ``tag``: ``""`` when it is empty,
    ``absent`` only when there is no such child. Unlike ``child_text``
    it does not strip, so a padded name pattern stays the query the
    sender asked."""
    node = parent.find(tag)
    if node is None:
        return absent
    return node.text or ""


def encode_service_query(query: ServiceQuery) -> ET.Element:
    """Serialize a :class:`ServiceQuery` to a ``<Service_Query>``."""
    root = element("Service_Query")
    subelement(root, "Name_Pattern", query.name_pattern)
    for constraint in query.constraints:
        node = subelement(root, "Constraint")
        type_name, text = _encode_value(constraint.value)
        node.set("name", constraint.name)
        node.set("operator", constraint.operator)
        node.set("type", type_name)
        node.text = text
    if query.qos is not None:
        root.append(_encode_specification(query.qos))
    return root


def decode_service_query(node: ET.Element) -> ServiceQuery:
    """Parse a ``<Service_Query>`` back into a :class:`ServiceQuery`."""
    constraints = []
    for child in node.findall("Constraint"):
        constraints.append(PropertyConstraint(
            name=child.get("name", ""),
            operator=child.get("operator", "="),
            value=_decode_value(child.get("type", "str"), child.text or "")))
    qos_node = node.find("QoS_Specification")
    qos = _decode_specification(qos_node) if qos_node is not None else None
    return ServiceQuery(
        name_pattern=_text(node, "Name_Pattern", "*"),
        constraints=tuple(constraints), qos=qos)


def encode_service_records(records: "List[ServiceRecord]") -> ET.Element:
    """Serialize registry matches to a ``<Service_Records>``."""
    root = element("Service_Records")
    for record in records:
        node = subelement(root, "Service_Record")
        node.set("id", str(record.record_id))
        subelement(node, "Name", record.name)
        subelement(node, "Provider", record.provider)
        subelement(node, "Endpoint", record.endpoint)
        node.append(_encode_specification(record.capability))
        for name in sorted(record.properties):
            prop = subelement(node, "Property")
            type_name, text = _encode_value(record.properties[name])
            prop.set("name", name)
            prop.set("type", type_name)
            prop.text = text
    return root


def decode_service_records(node: ET.Element) -> "List[ServiceRecord]":
    """Parse a ``<Service_Records>`` document."""
    records = []
    for child in node.findall("Service_Record"):
        qos_node = child.find("QoS_Specification")
        capability = (_decode_specification(qos_node)
                      if qos_node is not None else QoSSpecification.of())
        properties: "Dict[str, PropertyValue]" = {}
        for prop in child.findall("Property"):
            properties[prop.get("name", "")] = _decode_value(
                prop.get("type", "str"), prop.text or "")
        records.append(ServiceRecord(
            record_id=int(child.get("id", "0")),
            name=_text(child, "Name", ""),
            provider=_text(child, "Provider", ""),
            endpoint=_text(child, "Endpoint", ""),
            capability=capability,
            properties=properties))
    return records


# ----------------------------------------------------------------------
# Federation bodies (federation/protocol.py)
# ----------------------------------------------------------------------

def request_body(tag: str, delegation_id: str, home: str,
                 request: ServiceRequest) -> ET.Element:
    """``<Federation_Bid_Request>`` or ``<Federation_Delegate>``."""
    root = element(tag)
    subelement(root, "Delegation-ID", delegation_id)
    subelement(root, "Home", home)
    root.append(encode_service_request(request))
    return root


def decode_request_body(node: ET.Element
                        ) -> "tuple[str, str, ServiceRequest]":
    request_node = node.find("Service_Request")
    if request_node is None:
        raise MessageError(f"<{node.tag}> carries no <Service_Request>")
    return (child_text(node, "Delegation-ID"),
            child_text(node, "Home"),
            decode_service_request(request_node))


def encode_confirm(delegation_id: str, sla_id: int) -> ET.Element:
    root = element("Federation_Confirm")
    subelement(root, "Delegation-ID", delegation_id)
    subelement(root, "SLA-ID", str(sla_id))
    return root


def encode_cancel(delegation_id: str) -> ET.Element:
    root = element("Federation_Cancel")
    subelement(root, "Delegation-ID", delegation_id)
    return root


def encode_heartbeat(observer: str) -> ET.Element:
    root = element("Federation_Heartbeat")
    subelement(root, "Observer", observer)
    return root


def decode_bid(node: ET.Element) -> FederationBid:
    """Parse a ``<Federation_Bid>`` reply."""
    return FederationBid(
        domain=child_text(node, "Domain"),
        accept=child_text(node, "Accept") == "yes",
        score=float(child_text(node, "Score", default="0")),
        price_rate=float(child_text(node, "Price_Rate", default="0")),
        headroom_after=float(child_text(node, "Headroom", default="0")),
        risk=float(child_text(node, "Risk", default="0")),
        reason=child_text(node, "Reason", default=""))


def decode_delegated(node: ET.Element) -> DelegationReply:
    """Parse a ``<Federation_Delegated>`` reply."""
    sla_text = child_text(node, "SLA-ID", default="")
    return DelegationReply(
        domain=child_text(node, "Domain"),
        accepted=child_text(node, "Accepted") == "yes",
        sla_id=int(sla_text) if sla_text else None,
        reason=child_text(node, "Reason", default=""))


def encode_bid(bid) -> ET.Element:
    """The ``<Federation_Bid>`` reply ``_on_bid`` built."""
    root = element("Federation_Bid")
    subelement(root, "Domain", bid.domain)
    subelement(root, "Accept", "yes" if bid.accept else "no")
    subelement(root, "Score", _number(bid.score))
    subelement(root, "Price_Rate", _number(bid.price_rate))
    subelement(root, "Headroom", _number(bid.headroom_after))
    subelement(root, "Risk", _number(bid.risk))
    if bid.reason:
        subelement(root, "Reason", bid.reason)
    return root


def encode_delegated(domain: str, accepted: bool, sla_id: Optional[int],
                     reason: str) -> ET.Element:
    """The ``<Federation_Delegated>`` reply ``_on_delegate`` built."""
    root = element("Federation_Delegated")
    subelement(root, "Domain", domain)
    subelement(root, "Accepted", "yes" if accepted else "no")
    if sla_id is not None:
        subelement(root, "SLA-ID", str(sla_id))
    if reason:
        subelement(root, "Reason", reason)
    return root


def encode_status(tag: str, delegation_id: str, status: str) -> ET.Element:
    """``<Federation_Confirmed>`` / ``<Federation_Cancelled>``."""
    root = element(tag)
    subelement(root, "Delegation-ID", delegation_id)
    subelement(root, "Status", status)
    return root


def encode_alive(domain: str, now: float) -> ET.Element:
    """The ``<Federation_Alive>`` heartbeat reply."""
    root = element("Federation_Alive")
    subelement(root, "Domain", domain)
    subelement(root, "Time", _number(now))
    return root


# ----------------------------------------------------------------------
# Gateway bodies, as the handlers and the client stub built them
# ----------------------------------------------------------------------

def encode_failure(tag: str, reason: str) -> ET.Element:
    """``<Service_Offer_Failure>`` or ``<Establishment_Failure>``."""
    failure = element(tag)
    subelement(failure, "Reason", reason)
    return failure


def encode_accept_offer(negotiation_id: int, offer_index: int) -> ET.Element:
    body = element("Accept_Offer")
    subelement(body, "Negotiation-ID", str(negotiation_id))
    subelement(body, "Offer-Index", str(offer_index))
    return body


def encode_negotiation_id(tag: str, negotiation_id: int) -> ET.Element:
    """``<Reject_Offer>`` or ``<Offer_Rejected>``."""
    body = element(tag)
    subelement(body, "Negotiation-ID", str(negotiation_id))
    return body


def encode_verify_sla(sla_id: int) -> ET.Element:
    body = element("Verify_SLA")
    subelement(body, "SLA-ID", str(sla_id))
    return body


# ----------------------------------------------------------------------
# Degradation notice (monitoring/relay.py)
# ----------------------------------------------------------------------

def encode_degradation_notice(notice: DegradationNotice) -> ET.Element:
    """Serialize a notice (and its report) to ``<Degradation_Notice>``."""
    root = element("Degradation_Notice")
    subelement(root, "SLA-ID", str(notice.sla_id))
    subelement(root, "Time", f"{notice.time:.12g}")
    subelement(root, "Source", notice.source)
    if notice.detail:
        subelement(root, "Detail", notice.detail)
    report = notice.report
    if report is not None:
        report_node = subelement(root, "Conformance_Report")
        report_node.set("sla-id", str(report.sla_id))
        report_node.set("time", f"{report.time:.12g}")
        for violation in report.violations:
            violation_node = subelement(report_node, "Violation")
            violation_node.set("dimension", violation.dimension.value)
            violation_node.set("expected", f"{violation.expected:.12g}")
            violation_node.set("measured", f"{violation.measured:.12g}")
            violation_node.set("severity", f"{violation.severity:.12g}")
        measured_node = subelement(report_node, "Measured")
        measured_node.set("time", f"{report.measured.time:.12g}")
        for dimension in sorted(report.measured.values,
                                key=lambda d: d.value):
            value_node = subelement(measured_node, "Value")
            value_node.set("dimension", dimension.value)
            value_node.text = f"{report.measured.values[dimension]:.12g}"
    return root


def decode_degradation_notice(node: ET.Element) -> DegradationNotice:
    """Parse a ``<Degradation_Notice>`` document."""
    sla_id = int(child_text(node, "SLA-ID"))
    time = float(child_text(node, "Time"))
    report: Optional[ConformanceReport] = None
    report_node = node.find("Conformance_Report")
    if report_node is not None:
        violations = tuple(
            Violation(
                sla_id=int(report_node.get("sla-id", "0")),
                dimension=Dimension(violation_node.get("dimension", "")),
                expected=float(violation_node.get("expected", "0")),
                measured=float(violation_node.get("measured", "0")),
                severity=float(violation_node.get("severity", "0")))
            for violation_node in report_node.findall("Violation"))
        measured_node = report_node.find("Measured")
        values = {}
        measured_time = 0.0
        if measured_node is not None:
            measured_time = float(measured_node.get("time", "0"))
            for value_node in measured_node.findall("Value"):
                values[Dimension(value_node.get("dimension", ""))] = \
                    float(value_node.text or "0")
        report = ConformanceReport(
            sla_id=int(report_node.get("sla-id", "0")),
            time=float(report_node.get("time", "0")),
            violations=violations,
            measured=MeasuredQoS(sla_id=sla_id, values=values,
                                 time=measured_time))
    return DegradationNotice(
        sla_id=sla_id, time=time,
        source=child_text(node, "Source", default=""),
        report=report,
        detail=child_text(node, "Detail", default=""))
