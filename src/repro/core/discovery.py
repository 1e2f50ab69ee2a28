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
from operator import itemgetter
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
from ..xmlmsg.codec import SPECIFICATION
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.resilient import ResilientCaller
from ..xmlmsg.schema import INT, TEXT, Field, Message

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


def _exact(query: ServiceQuery) -> "Tuple[ServiceQuery, tuple]":
    """``query`` with its constraint values as the wire writes them.

    Query ``==`` is lossy where the answer is not: constraints on
    ``True``, ``1`` and ``1.0`` (or ``0.0`` and ``-0.0``) compare equal
    but match a string property differently. An answer is held under
    this key, so it only ever serves the exact query it was found for.
    """
    return query, tuple(_encode_value(constraint.value)
                        for constraint in query.constraints)


#: A typed property value: ``type`` attribute, value as text content.
#: A constraint is written from the row ``(name, operator, type,
#: text)``, a record's property from ``(name, type, text)``.
CONSTRAINT = Message("Constraint", [
    Field("name", TEXT, "name", get=itemgetter(0), attribute=True,
          default=""),
    Field("operator", TEXT, "operator", get=itemgetter(1), attribute=True,
          default="="),
    Field("type", TEXT, "type", get=itemgetter(2), attribute=True,
          default="str"),
    Field(None, TEXT, "text", get=itemgetter(3), default=""),
], build=lambda values: PropertyConstraint(
    values["name"], values["operator"],
    _decode_value(values["type"], values["text"])))

PROPERTY = Message("Property", [
    Field("name", TEXT, "name", get=itemgetter(0), attribute=True,
          default=""),
    Field("type", TEXT, "type", get=itemgetter(1), attribute=True,
          default="str"),
    Field(None, TEXT, "text", get=itemgetter(2), default=""),
], build=lambda values: (values["name"],
                         _decode_value(values["type"], values["text"])))

#: Written from ``(query, validator)``; the name pattern is read
#: unstripped, so a padded pattern stays the query the sender asked.
SERVICE_QUERY = Message("Service_Query", [
    Field("validator", TEXT, get=itemgetter(1), attribute=True),
    Field("Name_Pattern", TEXT, "name_pattern",
          get=lambda body: body[0].name_pattern, default="*"),
    Field("Constraint", CONSTRAINT, "constraints", repeated=True,
          get=lambda body: [
              (constraint.name, constraint.operator,
               *_encode_value(constraint.value))
              for constraint in body[0].constraints]),
    Field("QoS_Specification", SPECIFICATION, "qos",
          get=lambda body: body[0].qos, optional=True),
], build=lambda values: ServiceQuery(**values))

SERVICE_RECORD = Message("Service_Record", [
    Field("id", INT, "record_id", attribute=True, default=0),
    Field("Name", TEXT, "name", default=""),
    Field("Provider", TEXT, "provider", default=""),
    Field("Endpoint", TEXT, "endpoint", default=""),
    Field("QoS_Specification", SPECIFICATION, "capability",
          default=QoSSpecification.of()),
    Field("Property", PROPERTY, "properties", repeated=True,
          get=lambda record: [
              (name, *_encode_value(record.properties[name]))
              for name in sorted(record.properties)]),
], build=lambda values: ServiceRecord(
    values["record_id"], values["name"], values["provider"],
    values["endpoint"], values["capability"], dict(values["properties"])))

#: Written from ``(records, validator, unchanged)``: an ``unchanged``
#: reply tells a sender holding this registry state's answer to keep
#: it, and carries no records.
SERVICE_RECORDS = Message("Service_Records", [
    Field("validator", TEXT, get=itemgetter(1), attribute=True),
    Field("unchanged", TEXT, get=lambda body: "true" if body[2] else None,
          attribute=True),
    Field("Service_Record", SERVICE_RECORD, "records", repeated=True,
          get=itemgetter(0)),
], build=lambda values: list(values["records"]))


def encode_service_query(query: ServiceQuery,
                         validator: Optional[str] = None) -> str:
    """A :class:`ServiceQuery` as a compact ``<Service_Query>``,
    carrying the validator of the answer the sender holds, if any."""
    return SERVICE_QUERY.write((query, validator))


def decode_service_query(node: ET.Element) -> ServiceQuery:
    """Parse a ``<Service_Query>`` back into a :class:`ServiceQuery`."""
    return SERVICE_QUERY.read(node)


def encode_service_records(records: "List[ServiceRecord]",
                           validator: Optional[str] = None) -> str:
    """Registry matches as a compact ``<Service_Records>``, stamped
    with the registry's validator."""
    return SERVICE_RECORDS.write((records, validator, False))


def decode_service_records(node: ET.Element) -> "List[ServiceRecord]":
    """Parse a ``<Service_Records>`` document."""
    return SERVICE_RECORDS.read(node)


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
            return envelope.reply("service_records", SERVICE_RECORDS.write(
                ((), validator, True)))
        return envelope.reply("service_records", encode_service_records(
            self.registry.find(decode_service_query(envelope.body)),
            validator))


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
        envelope = Envelope(sender=self.client_name,
                            recipient=self.registry_name,
                            action="find_services",
                            body=encode_service_query(query, sent))
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
