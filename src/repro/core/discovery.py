"""Service discovery — direct, or over the bus with degradation.

The broker's Figure 2 "QueryNameSpace" step is a UDDIe lookup. Two
transports implement it behind one interface:

* :class:`DirectDiscovery` — an in-process call into the
  :class:`~repro.registry.uddie.UddieRegistry`. This is the default
  and is exactly the pre-chaos behaviour (no extra traffic, no extra
  trace records), so fault-free runs stay byte-identical.
* :class:`ResilientDiscovery` — discovery as a ``find_services``
  request to a :class:`RegistryEndpoint` on the message bus, through a
  :class:`~repro.xmlmsg.resilient.ResilientCaller`. When the registry
  becomes unreachable (retries exhausted, circuit open) it degrades
  gracefully: the last good answer for the same query is served from a
  stale cache with :attr:`DiscoveryResult.degraded` set, rather than
  failing the whole service request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

try:
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]
from xml.etree import ElementTree as ET

from ..errors import CircuitOpenError, RegistryError, TransientMessageError
from ..qos.specification import QoSSpecification
from ..registry.query import PropertyConstraint, PropertyValue, ServiceQuery
from ..registry.uddie import ServiceRecord, UddieRegistry
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.codec import _decode_specification, _encode_specification
from ..xmlmsg.document import child_text, element, subelement
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.resilient import ResilientCaller

#: Endpoint name the registry listens on when exposed over the bus.
REGISTRY_ENDPOINT = "uddie"


@dataclass
class DiscoveryResult:
    """The outcome of one discovery lookup.

    Attributes:
        records: The matching service records.
        degraded: True when the registry was unreachable and the
            records came from the stale cache — callers may proceed
            but should surface the marker (the broker counts and
            traces it).
        age: Staleness of a cached answer in sim time units.
    """

    records: "List[ServiceRecord]"
    degraded: bool = False
    age: float = 0.0


class DiscoveryService(Protocol):
    """What the broker needs from a discovery transport."""

    def find(self, query: ServiceQuery) -> DiscoveryResult:
        """Matching records for a query (possibly degraded)."""
        ...  # pragma: no cover - protocol signature


class DirectDiscovery:
    """In-process registry lookup (the perfect-transport default)."""

    def __init__(self, registry: UddieRegistry) -> None:
        self.registry = registry

    def find(self, query: ServiceQuery) -> DiscoveryResult:
        """Query the registry directly; never degraded."""
        return DiscoveryResult(self.registry.find(query))


# ----------------------------------------------------------------------
# Wire format for queries and records
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
        name_pattern=child_text(node, "Name_Pattern", default="*") or "*",
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
            name=child_text(child, "Name", default=""),
            provider=child_text(child, "Provider", default=""),
            endpoint=child_text(child, "Endpoint", default=""),
            capability=capability,
            properties=properties))
    return records


class RegistryEndpoint:
    """Exposes a :class:`UddieRegistry` as a bus endpoint.

    Handles ``find_services`` requests carrying a ``<Service_Query>``
    and replies with the matching ``<Service_Records>``.
    """

    def __init__(self, registry: UddieRegistry, bus: MessageBus, *,
                 endpoint_name: str = REGISTRY_ENDPOINT) -> None:
        self.registry = registry
        self.endpoint_name = endpoint_name
        endpoint = bus.endpoint(endpoint_name)
        endpoint.on("find_services", self._on_find_services)

    def _on_find_services(self, envelope: Envelope) -> Envelope:
        query = decode_service_query(envelope.body)
        matches = self.registry.find(query)
        return envelope.reply("service_records",
                              encode_service_records(matches))


class ResilientDiscovery:
    """Discovery over the bus, degrading to a stale cache.

    Args:
        bus: The transport (a :class:`RegistryEndpoint` must be
            registered on it).
        caller: Optional pre-configured resilient caller; a default
            one is built otherwise.
        client_name: Sender name stamped on the query envelopes.
        registry_name: The registry's endpoint name.
        trace: Optional recorder; degraded lookups are logged under
            the ``"discovery"`` category.
        metrics: Registry for the stale-hit counter; a private one is
            created when omitted (the broker swaps in its own when it
            adopts this transport).
    """

    def __init__(self, bus: MessageBus, *,
                 caller: Optional[ResilientCaller] = None,
                 client_name: str = "aqos-discovery",
                 registry_name: str = REGISTRY_ENDPOINT,
                 trace: Optional[TraceRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._bus = bus
        self.caller = caller if caller is not None \
            else ResilientCaller(bus, name=client_name)
        self.client_name = client_name
        self.registry_name = registry_name
        self._trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Last good answer per query: (time, records).
        self._cache: Dict[ServiceQuery,
                          Tuple[float, List[ServiceRecord]]] = {}

    @property
    def stale_hits(self) -> int:
        """Lookups served from the stale cache (registry-backed)."""
        return int(self.metrics.counter_value(
            "repro_discovery_stale_hits_total"))

    def find(self, query: ServiceQuery) -> DiscoveryResult:
        """Look up matches over the bus.

        On transport failure the last good answer for the same query
        is returned with ``degraded=True``; with no cached answer the
        lookup fails as a :class:`~repro.errors.RegistryError`.
        """
        envelope = Envelope(sender=self.client_name,
                            recipient=self.registry_name,
                            action="find_services",
                            body=encode_service_query(query))
        try:
            response = self.caller.call(envelope)
        except (CircuitOpenError, TransientMessageError) as error:
            cached = self._cache.get(query)
            if cached is None:
                raise RegistryError(
                    f"discovery unavailable and no cached answer: "
                    f"{error}") from error
            cached_at, records = cached
            age = self._bus.sim.now - cached_at
            self.metrics.counter(
                "repro_discovery_stale_hits_total").inc()
            if self._trace is not None:
                self._trace.record(
                    self._bus.sim.now, "discovery",
                    f"degraded: serving {len(records)} stale record(s) "
                    f"for {query.name_pattern!r}", age=age)
            return DiscoveryResult(list(records), degraded=True, age=age)
        records = decode_service_records(response.body)
        self._cache[query] = (self._bus.sim.now, records)
        return DiscoveryResult(records)
