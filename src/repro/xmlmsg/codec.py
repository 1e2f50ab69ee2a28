"""Encoders/decoders for the paper's XML message schemas.

Three schemas come straight from the paper:

* Table 1 — ``<Service-Specific>``: the SLA portion relayed to the
  resource managers (CPU, memory, network block).
* Table 3 — ``<QoS_Levels>``: the reply to an SLA conformance test.
* Table 4 — ``<Service_SLA>``: a negotiated SLA with its
  ``<Adaptation_Options>`` (alternative QoS + promotion offer).

Round-tripping is exact for the information content; formatting follows
the paper's indented style via
:func:`~repro.xmlmsg.document.pretty_xml`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from xml.etree import ElementTree as ET

from .. import units
from ..errors import MessageError
from ..qos.classes import ServiceClass
from ..qos.parameters import (
    Dimension,
    Form,
    QoSParameter,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from ..qos.specification import OperatingPoint, QoSSpecification
from ..sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from ..sla.violations import MeasuredQoS
from .document import (_escape_text, _number, child_text, element,
                       pretty_xml, require_child, subelement)


# ----------------------------------------------------------------------
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


def render_service_specific(sla: ServiceSLA) -> str:
    """Render Table 1 XML as a compact string, byte-for-byte equal to
    ``ET.tostring(encode_service_specific(sla), encoding="unicode")``.

    The string-builder twin of :func:`render_service_sla`: the relay
    to a resource manager re-encodes the SLA portion per hop, and
    skipping the tree build keeps the message off the admission
    profile.  A property test pins the equality.
    """
    out: List[str] = ["<Service-Specific>"]
    add = out.append
    add(f"<SLA-ID>{sla.sla_id}</SLA-ID>")
    point = sla.agreed_point
    if Dimension.CPU in point:
        add(f"<CPU-QoS>{units.render_cpu(int(point[Dimension.CPU]))}"
            f"</CPU-QoS>")
    if Dimension.MEMORY_MB in point:
        add(f"<Memory-QoS>"
            f"{units.render_memory_mb(point[Dimension.MEMORY_MB])}"
            f"</Memory-QoS>")
    if Dimension.DISK_MB in point:
        add(f"<Disk-QoS>{units.render_memory_mb(point[Dimension.DISK_MB])}"
            f"</Disk-QoS>")
    if sla.network is not None:
        _render_network_demand(sla.network, add)
    add("</Service-Specific>")
    return "".join(out)


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


def render_qos_levels(sla: ServiceSLA, measured: MeasuredQoS) -> str:
    """Render Table 3 XML as a compact string, byte-for-byte equal to
    ``ET.tostring(encode_qos_levels(sla, measured), encoding="unicode")``.

    Conformance replies go out once per verifier poll per session, so
    at scale this is the chattiest message in the system; the string
    builder skips the tree entirely.  A property test pins the
    equality.
    """
    out: List[str] = ["<QoS_Levels>"]
    add = out.append
    add(f"<SLA-ID>{sla.sla_id}</SLA-ID>")
    network = sla.network
    if network is not None:
        add("<Measured_Network_QoS>")
        add(f"<Source_IP>{_escape_text(network.source_ip)}</Source_IP>")
        add(f"<Dest_IP>{_escape_text(network.dest_ip)}</Dest_IP>")
        bandwidth = measured.get(Dimension.BANDWIDTH_MBPS)
        if bandwidth is not None:
            add(f"<Bandwidth>{units.render_bandwidth_mbps(bandwidth)}"
                f"</Bandwidth>")
        loss = measured.get(Dimension.PACKET_LOSS)
        if loss is not None and network.packet_loss_bound is not None:
            bound = network.packet_loss_bound
            if bound.satisfied_by(loss):
                add(f"<Packet_Loss>{units.render_bound(bound)}"
                    f"</Packet_Loss>")
            else:
                add(f"<Packet_Loss>{units.render_percentage(loss)}"
                    f"</Packet_Loss>")
        delay = measured.get(Dimension.DELAY_MS)
        if delay is not None:
            add(f"<Delay>{units.render_delay_ms(delay)}</Delay>")
        add("</Measured_Network_QoS>")
    cpu = measured.get(Dimension.CPU)
    memory = measured.get(Dimension.MEMORY_MB)
    if cpu is None and memory is None:
        add("<Measured_Computation_QoS />")
    else:
        add("<Measured_Computation_QoS>")
        if cpu is not None:
            add(f"<CPU>{units.render_cpu(int(cpu))}</CPU>")
        if memory is not None:
            add(f"<Memory>{units.render_memory_mb(memory)}</Memory>")
        add("</Measured_Computation_QoS>")
    add("</QoS_Levels>")
    return "".join(out)


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
    from ..sla.negotiation import ServiceRequest
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
    from ..sla.negotiation import ServiceRequest
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
    from ..sla.negotiation import Offer
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


def render(node: ET.Element) -> str:
    """Pretty-print any codec output (paper-table style)."""
    return pretty_xml(node)
