"""Service discovery — direct, or over the bus with degradation.

The broker's Figure 2 "QueryNameSpace" step is a UDDIe lookup. Two
transports implement it behind one interface:

* :class:`DirectDiscovery` — an in-process call into the
  :class:`~repro.registry.uddie.UddieRegistry`. This is the default
  and is exactly the pre-chaos behaviour (no extra traffic, no extra
  trace records), so fault-free runs stay byte-identical.
* :class:`ResilientDiscovery` — discovery as a ``find_services``
  request to a :class:`RegistryEndpoint` on the message bus, through a
  :class:`~repro.xmlmsg.resilient.ResilientCaller`. It keeps the last
  good answer per query together with the registry validator it was
  sent with, and asks conditionally: when the registry has not changed
  since, the endpoint answers ``unchanged`` without decoding the query
  or searching, and the held answer is served again. When the registry
  becomes unreachable (retries exhausted, circuit open) it degrades
  gracefully: the same held answer is served with
  :attr:`DiscoveryResult.degraded` set, rather than failing the whole
  service request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

try:
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]
from xml.etree import ElementTree as ET

from ..errors import (CircuitOpenError, MessageError, RegistryError,
                      TransientMessageError)
from ..qos.specification import QoSSpecification
from ..registry.query import PropertyConstraint, PropertyValue, ServiceQuery
from ..registry.uddie import ServiceRecord, UddieRegistry
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.codec import _decode_specification, _encode_specification
from ..xmlmsg.document import element, subelement
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


def _text(parent: ET.Element, tag: str, absent: str) -> str:
    """The exact text of child ``tag``: ``""`` when it is empty,
    ``absent`` only when there is no such child. Unlike ``child_text``
    it does not strip, so a padded name pattern stays the query the
    sender asked."""
    node = parent.find(tag)
    if node is None:
        return absent
    return node.text or ""


def _exact(query: ServiceQuery) -> "Tuple[ServiceQuery, tuple]":
    """``query`` with its constraint values as the wire writes them.

    Query ``==`` is lossy where the answer is not: constraints on
    ``True``, ``1`` and ``1.0`` (or ``0.0`` and ``-0.0``) compare equal
    but match a string property differently. An answer is held under
    this key, so it only ever serves the exact query it was found for.
    """
    return query, tuple(_encode_value(constraint.value)
                        for constraint in query.constraints)


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


class RegistryEndpoint:
    """Exposes a :class:`UddieRegistry` as a bus endpoint.

    Handles ``find_services`` requests carrying a ``<Service_Query>``
    and replies with the matching ``<Service_Records>``, stamped with
    the registry's validator. A query that carries the current
    validator is answered ``<Service_Records validator=".."
    unchanged="true" />`` before it is decoded: the sender already holds
    this registry state's answer to it.
    """

    def __init__(self, registry: UddieRegistry, bus: MessageBus, *,
                 endpoint_name: str = REGISTRY_ENDPOINT) -> None:
        self.registry = registry
        self.endpoint_name = endpoint_name
        endpoint = bus.endpoint(endpoint_name)
        endpoint.on("find_services", self._on_find_services)

    def _on_find_services(self, envelope: Envelope) -> Envelope:
        validator = self.registry.validator
        if envelope.body.get("validator") == validator:
            return envelope.reply("service_records", element(
                "Service_Records", validator=validator, unchanged="true"))
        reply = encode_service_records(
            self.registry.find(decode_service_query(envelope.body)))
        reply.set("validator", validator)
        return envelope.reply("service_records", reply)


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
        #: Last good answer per query: (time, validator, records).
        #: Revalidated by every lookup, served alone when degraded.
        self._cache: Dict[tuple, Tuple[float, Optional[str],
                                       List[ServiceRecord]]] = {}

    @property
    def stale_hits(self) -> int:
        """Lookups served from the stale cache (registry-backed)."""
        return int(self.metrics.counter_value(
            "repro_discovery_stale_hits_total"))

    def find(self, query: ServiceQuery) -> DiscoveryResult:
        """Look up matches over the bus.

        The query carries the validator of the answer held for it, if
        any; an ``unchanged`` reply serves that answer again. On
        transport failure the last good answer for the same query is
        returned with ``degraded=True``; with no cached answer the
        lookup fails as a :class:`~repro.errors.RegistryError`.

        Raises:
            MessageError: When the registry answers ``unchanged`` to a
                validator this client did not send.
        """
        key = _exact(query)
        held = self._cache.get(key)
        sent = held[1] if held is not None else None
        body = encode_service_query(query)
        if sent is not None:
            body.set("validator", sent)
        envelope = Envelope(sender=self.client_name,
                            recipient=self.registry_name,
                            action="find_services", body=body)
        try:
            response = self.caller.call(envelope)
        except (CircuitOpenError, TransientMessageError) as error:
            cached = self._cache.get(key)
            if cached is None:
                raise RegistryError(
                    f"discovery unavailable and no cached answer: "
                    f"{error}") from error
            cached_at, _, records = cached
            age = self._bus.sim.now - cached_at
            self.metrics.counter(
                "repro_discovery_stale_hits_total").inc()
            if self._trace is not None:
                self._trace.record(
                    self._bus.sim.now, "discovery",
                    f"degraded: serving {len(records)} stale record(s) "
                    f"for {query.name_pattern!r}", age=age)
            return DiscoveryResult(list(records), degraded=True, age=age)
        reply = response.body
        validator = reply.get("validator")
        if reply.get("unchanged") != "true":
            records = decode_service_records(reply)
        elif held is not None and sent is not None and validator == sent:
            records = held[2]
        else:
            raise MessageError(
                f"registry answered 'unchanged' for "
                f"{query.name_pattern!r} under validator {validator!r}, "
                f"which holds no answer here")
        self._cache[key] = (self._bus.sim.now, validator, records)
        return DiscoveryResult(list(records))
