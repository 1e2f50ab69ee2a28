"""Hypothesis round-trip property for the repository's XML persistence.

Crash recovery trusts ``SLARepository.export_xml`` / ``from_xml`` (the
snapshot format and the journal's ``sla_saved`` payload) to preserve a
document *exactly* — any lossy field silently changes what a recovered
broker believes it agreed to.  The property drives documents across
lifecycle states, degraded delivered points, adaptation options and
network demands, and requires perfect equality after a round trip.

Values are drawn from grammars the wire format can express exactly:
CPU counts are integral (the Table 1 ``"4 CPU"`` form has no
fractional rendering) and other quantities are eighths or hundredths,
which survive the codec's 12-significant-digit float rendering.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos.classes import ServiceClass
from repro.qos.parameters import (
    Dimension,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from repro.qos.specification import QoSSpecification
from repro.sla.document import (
    AdaptationOptions,
    NetworkDemand,
    ServiceSLA,
    SlaStatus,
)
from repro.sla.repository import SLARepository
from repro.units import parse_bound


def eighths(low: int, high: int):
    """Floats with power-of-two denominators: exact in binary and
    short in decimal, so they survive any faithful text codec — but
    only a faithful one.  A 64th like ``100.515625`` carries nine
    significant digits, well past the 6-digit ``%g`` rendering this
    property exists to keep out of the codec."""
    return st.integers(low * 64, high * 64).map(lambda n: n / 64.0)


_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_&<>",
                 min_size=1, max_size=12)
_fractions = st.integers(0, 100).map(lambda n: n / 100.0)
_ips = st.sampled_from(["10.10.10.3", "135.200.50.101",
                        "192.200.168.33"])
_bounds = st.builds(
    lambda word, percent: parse_bound(f"{word} {percent}%"),
    st.sampled_from(["LessThan", "AtMost", "GreaterThan", "AtLeast",
                     "Equals"]),
    st.integers(1, 99))


@st.composite
def network_demands(draw):
    return NetworkDemand(
        source_ip=draw(_ips), dest_ip=draw(_ips),
        bandwidth_mbps=draw(eighths(1, 622)),
        packet_loss_bound=draw(st.none() | _bounds),
        delay_bound_ms=draw(st.none() | eighths(1, 500)))


@st.composite
def service_slas(draw, sla_id: int) -> ServiceSLA:
    cpu_low = draw(st.integers(1, 8))
    cpu_high = draw(st.integers(cpu_low, 16))
    if cpu_low == cpu_high:
        cpu = exact_parameter(Dimension.CPU, cpu_low)
    else:
        cpu = range_parameter(Dimension.CPU, cpu_low, cpu_high)
    memory_low = draw(eighths(1, 512))
    memory = range_parameter(Dimension.MEMORY_MB, memory_low,
                             memory_low + draw(eighths(0, 512)))
    parameters = [cpu, memory]
    if draw(st.booleans()):
        losses = sorted({n / 100.0
                         for n in draw(st.lists(st.integers(1, 99),
                                                min_size=2, max_size=4,
                                                unique=True))})
        parameters.append(discrete_parameter(Dimension.PACKET_LOSS,
                                             losses))
    specification = QoSSpecification.from_iterable(parameters)
    service_class = draw(st.sampled_from([ServiceClass.GUARANTEED,
                                          ServiceClass.CONTROLLED_LOAD]))
    start = draw(eighths(0, 1000))
    adaptation = AdaptationOptions(
        alternative_points=tuple(
            [specification.worst_point()] if draw(st.booleans()) else []),
        accept_promotion=draw(st.booleans()),
        accept_degradation=draw(st.booleans()),
        accept_termination=draw(st.booleans()))
    sla = ServiceSLA(
        sla_id=sla_id,
        client=draw(_names),
        service_name=draw(_names),
        service_class=service_class,
        specification=specification,
        agreed_point=specification.best_point(),
        start=start,
        end=start + draw(eighths(1, 1000)),
        price_rate=draw(eighths(0, 100)),
        network=draw(st.none() | network_demands()),
        adaptation=adaptation)
    sla.status = draw(st.sampled_from(SlaStatus))
    if (service_class is ServiceClass.CONTROLLED_LOAD
            and draw(st.booleans())):
        # A squeezed session: the delivered point sits at the floor.
        sla.set_delivered_point(specification.worst_point())
    return sla


@st.composite
def repositories(draw) -> SLARepository:
    repository = SLARepository()
    count = draw(st.integers(0, 4))
    for offset in range(count):
        repository.save(draw(service_slas(sla_id=1000 + offset)))
    return repository


@given(repositories())
@settings(max_examples=60, deadline=None)
def test_repository_xml_roundtrip_is_lossless(repository):
    restored = SLARepository.from_xml(repository.export_xml())
    assert restored.all() == repository.all()


@given(repositories())
@settings(max_examples=20, deadline=None)
def test_restored_id_counter_never_collides(repository):
    restored = SLARepository.from_xml(repository.export_xml())
    taken = {sla.sla_id for sla in repository.all()}
    assert restored.next_id() not in taken
    assert restored.next_id() > max(taken, default=999)


@given(service_slas(sla_id=1077))
@settings(max_examples=60, deadline=None)
def test_compact_renderer_matches_the_tree_encoder(sla):
    """The journal's form is the compact ``<Service_SLA>`` the tree
    encoder the codec replaced serialised (kept in
    ``tests/xmlmsg/codec_reference.py``), byte for byte."""
    import xml.etree.ElementTree as ET

    from repro.xmlmsg.codec import encode_service_sla, render_service_sla

    from ..xmlmsg import codec_reference

    assert render_service_sla(sla) == encode_service_sla(sla) == ET.tostring(
        codec_reference.encode_service_sla(sla), encoding="unicode")


@given(service_slas(sla_id=1055))
@settings(max_examples=60, deadline=None)
def test_single_document_roundtrip_preserves_every_field(sla):
    repository = SLARepository()
    repository.save(sla)
    (restored,) = SLARepository.from_xml(repository.export_xml()).all()
    assert restored.sla_id == sla.sla_id
    assert restored.client == sla.client
    assert restored.service_name == sla.service_name
    assert restored.service_class is sla.service_class
    assert restored.specification == sla.specification
    assert restored.agreed_point == sla.agreed_point
    assert restored.delivered_point == sla.delivered_point
    assert restored.status is sla.status
    assert (restored.start, restored.end) == (sla.start, sla.end)
    assert restored.price_rate == sla.price_rate
    assert restored.network == sla.network
    assert restored.adaptation == sla.adaptation


@given(repositories())
@settings(max_examples=40, deadline=None)
def test_export_xml_matches_the_tree_encoder(repository):
    """The snapshot exporter's string assembly is pinned byte-identical
    to ``ET.tostring`` of the equivalent compact element tree."""
    import xml.etree.ElementTree as ET

    from ..xmlmsg.codec_reference import encode_service_sla
    from ..xmlmsg.trees import element, subelement

    root = element("SLA_Repository")
    for sla in repository.all():
        entry = subelement(root, "Entry", status=sla.status.value)
        entry.append(encode_service_sla(sla))
    assert repository.export_xml() == ET.tostring(root, encoding="unicode")
