"""Conditional discovery over the bus, held to the direct lookup.

:class:`~repro.core.discovery.ResilientDiscovery` keeps the last answer
per query with the registry validator it came under, and the
:class:`~repro.core.discovery.RegistryEndpoint` answers ``unchanged``
when that validator is still current. The answer must never differ
from asking the registry in process: a state machine drives both
transports over one registry through registrations (twins of a
registered record too, so an earlier answer grows), generated queries (empty and space-padded patterns, property
constraints of every value type, QoS floors), repeats of earlier
queries, their twins under ``==`` with differently typed values, and a
registry swapped behind the endpoint, and compares the
two record lists after every lookup. The counted tests below pin what
goes on the wire: one ``<Service_Record>`` set per registry state and
query, not per lookup.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.core import discovery
from repro.core.discovery import (
    DirectDiscovery,
    RegistryEndpoint,
    ResilientDiscovery,
)
from repro.errors import MessageError, RegistryError
from repro.qos.parameters import Dimension, range_parameter
from repro.qos.specification import QoSSpecification
from repro.registry.query import PropertyConstraint, ServiceQuery
from repro.registry.uddie import UddieRegistry
from repro.sim.engine import Simulator
from repro.sim.random import RandomSource
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.document import parse_xml
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.faults import FaultPlan, FaultRule

from ..xmlmsg.trees import element

# ----------------------------------------------------------------------
# Generated registrations and queries
# ----------------------------------------------------------------------

#: Names and patterns share one small alphabet so that patterns match;
#: it carries the space the old decoder stripped and the XML escapes.
_NAME_TEXT = st.text(alphabet="rs -&<", max_size=5)
_NAMES = st.one_of(st.sampled_from(["render", " render", "render ",
                                    "store", ""]), _NAME_TEXT)
_PATTERNS = st.one_of(st.just("*"),
                      st.sampled_from(["", " *", "render*",
                                       " render", "r?nder", "[rs]*"]),
                      st.text(alphabet="rs *?-", max_size=5))
_KEYS = st.sampled_from(["os", "nodes"])
#: Every wire type. Most are values that compare equal across types
#: (``True``, ``1``, ``1.0``; ``False``, ``0``, ``0.0``, ``-0.0``) but
#: render apart, and the strings they render to.
_VALUES = st.sampled_from([
    True, False, 1, 0, 1.0, 0.0, -0.0, 2, -1, 0.5, float("inf"), 1e300,
    "1", "True", "1.0", "0", "0.0", "-0.0", "False", "", " a", "a "])
#: Integer-valued so the capability's ``.12g`` wire form is exact.
_BOUNDS = st.integers(min_value=0, max_value=64)


@st.composite
def _specifications(draw):
    parameters = []
    for dimension in (Dimension.CPU, Dimension.BANDWIDTH_MBPS):
        if draw(st.booleans()):
            low, high = sorted((draw(_BOUNDS), draw(_BOUNDS)))
            parameters.append(range_parameter(dimension, low, high))
    return QoSSpecification.from_iterable(parameters)


#: A capability every generated QoS floor fits under.
_WIDEST = QoSSpecification.of(
    range_parameter(Dimension.CPU, 0, 64),
    range_parameter(Dimension.BANDWIDTH_MBPS, 0, 64))
_CONSTRAINTS = st.builds(
    PropertyConstraint, _KEYS,
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _VALUES)
#: Half the queries constrain nothing but the name, so that most of
#: them match something a later mutation can change.
_QUERIES = st.builds(
    ServiceQuery, _PATTERNS,
    st.one_of(st.just(()),
              st.lists(_CONSTRAINTS, min_size=1, max_size=2).map(tuple)),
    st.one_of(st.none(), _specifications()))
_REGISTRATIONS = st.tuples(
    _NAMES, st.sampled_from(["acme", " acme", "cardiff", ""]),
    st.sampled_from(["", "rm", " rm "]), _specifications(),
    st.dictionaries(_KEYS, _VALUES, max_size=3))


def _retyped(value):
    """A value ``==`` to ``value`` that renders differently, cycling
    ``True -> 1 -> 1.0 -> True`` and ``False -> 0 -> 0.0 -> -0.0 ->
    False``; anything else is returned as it is."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float) and value == 0.0 \
            and math.copysign(1.0, value) > 0:
        return -0.0
    if isinstance(value, float) and value in (0.0, 1.0):
        return bool(value)
    return value


def _outcome(finder, query):
    """The records a lookup returns, or the error type it raises."""
    try:
        result = finder.find(query)
    except RegistryError as error:
        return type(error)
    assert not result.degraded
    return result.records


def _populate(registry, registrations):
    for name, provider, endpoint, capability, properties in registrations:
        try:
            registry.register(name, provider, endpoint=endpoint,
                              capability=capability, properties=properties)
        except RegistryError:
            pass  # a duplicate (name, provider) pair


class DiscoveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        bus = MessageBus(Simulator())
        self.registry = UddieRegistry()
        self.endpoint = RegistryEndpoint(self.registry, bus)
        self.direct = DirectDiscovery(self.registry)
        self.remote = ResilientDiscovery(bus)
        self.asked: list = []
        self.twins = 0

    @rule(registration=_REGISTRATIONS)
    def register(self, registration):
        _populate(self.registry, [registration])

    @precondition(lambda self: any(query.constraints
                                   for query in self.asked))
    @rule(index=st.integers(min_value=0), name=_NAMES)
    def register_as_asked(self, index, name):
        """Register a service whose property is the text an earlier
        constraint value renders to, so typed and textual values meet."""
        constrained = [query for query in self.asked if query.constraints]
        query = constrained[index % len(constrained)]
        constraint = query.constraints[0]
        _populate(self.registry, [(
            name, "acme", "", _WIDEST,
            {constraint.name: str(constraint.value)})])

    @precondition(lambda self: len(self.registry) > 0)
    @rule(index=st.integers(min_value=0))
    def register_twin(self, index):
        """Register a registered record again under a new provider:
        every answer that holds the record grows by its twin."""
        records = self.registry.records()
        record = records[index % len(records)]
        self.twins += 1
        self.registry.register(record.name, f"twin-{self.twins}",
                               endpoint=record.endpoint,
                               capability=record.capability,
                               properties=dict(record.properties))

    @rule(registrations=st.lists(_REGISTRATIONS, max_size=4))
    def replace_registry(self, registrations):
        """Swap a different registry in behind the endpoint."""
        registry = UddieRegistry()
        _populate(registry, registrations)
        self.registry = registry
        self.endpoint.registry = registry
        self.direct.registry = registry

    @rule(query=_QUERIES)
    def find(self, query):
        self.asked.append(query)
        self._compare(query)

    @precondition(lambda self: self.asked)
    @rule(index=st.integers(min_value=0))
    def find_again(self, index):
        """Repeat an earlier query: the revalidated path."""
        self._compare(self.asked[index % len(self.asked)])

    @precondition(lambda self: self.asked)
    @rule(index=st.integers(min_value=0))
    def find_retyped(self, index):
        """An earlier query's twin under ``==`` with differently typed
        constraint values: it must not be served the twin's answer."""
        query = self.asked[index % len(self.asked)]
        twin = dataclasses.replace(query, constraints=tuple(
            dataclasses.replace(constraint, value=_retyped(constraint.value))
            for constraint in query.constraints))
        self.asked.append(twin)
        self._compare(twin)

    def _compare(self, query):
        assert _outcome(self.remote, query) == \
            _outcome(self.direct, query)


DiscoveryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestDiscoveryStateMachine = DiscoveryMachine.TestCase


# ----------------------------------------------------------------------
# What goes on the wire, counted
# ----------------------------------------------------------------------

class Wire:
    """A bus with one registry behind it and a counter on every
    ``<Service_Records>`` set the endpoint encodes."""

    def __init__(self, monkeypatch):
        self.sim = Simulator()
        self.bus = MessageBus(self.sim)
        self.registry = UddieRegistry()
        for name in ("render-farm", "render-cache", "storage"):
            self.registry.register(name, "acme")
        self.endpoint = RegistryEndpoint(self.registry, self.bus)
        self.finder = ResilientDiscovery(self.bus)
        self.record_sets = 0
        encode = discovery.encode_service_records

        def counted(records, validator=None):
            self.record_sets += 1
            return encode(records, validator)
        monkeypatch.setattr(discovery, "encode_service_records", counted)


@pytest.fixture
def wire(monkeypatch):
    return Wire(monkeypatch)


QUERY = ServiceQuery(name_pattern="render*")


class TestRevalidation:
    def test_repeated_lookups_send_the_records_once(self, wire):
        answers = [wire.finder.find(QUERY).records for _ in range(5)]
        assert wire.record_sets == 1
        assert all(answer == answers[0] for answer in answers)
        assert [record.name for record in answers[0]] == \
            ["render-farm", "render-cache"]

    def test_each_mutation_costs_one_more_record_set(self, wire):
        wire.finder.find(QUERY)
        wire.registry.register("render-node", "acme")
        for _ in range(3):
            assert len(wire.finder.find(QUERY).records) == 3
        assert wire.record_sets == 2
        wire.registry.register("render-node", "cardiff")
        for _ in range(3):
            assert len(wire.finder.find(QUERY).records) == 4
        assert wire.record_sets == 3

    def test_a_mutation_outside_the_answer_still_resends_it(self, wire):
        """The validator names the registry, not the answer: a
        registration the query does not match sends the set again."""
        wire.finder.find(QUERY)
        wire.registry.register("storage-2", "acme")
        wire.finder.find(QUERY)
        assert wire.record_sets == 2

    def test_a_revalidation_is_one_request_and_a_shorter_reply(
            self, wire, monkeypatch):
        sizes, bodies = [], []
        to_xml = Envelope.to_xml

        def measured(self):
            text = to_xml(self)
            sizes.append(len(text))
            bodies.append(len(self.body))
            return text
        monkeypatch.setattr(Envelope, "to_xml", measured)
        wire.finder.find(QUERY)
        (full_request, full_reply), (_, full_records) = sizes, bodies
        sizes.clear()
        bodies.clear()
        wire.finder.find(QUERY)
        (revalidation_request, revalidation_reply), (_, unchanged) = (
            sizes, bodies)
        # The compact frame is the same few hundred bytes either way;
        # what the revalidation saves is the record set in the body.
        assert revalidation_reply < full_reply
        assert unchanged < full_records / 2
        assert revalidation_request > full_request  # the validator

    def test_each_lookup_returns_a_fresh_list(self, wire):
        first = wire.finder.find(QUERY).records
        first.clear()
        assert len(wire.finder.find(QUERY).records) == 2

    def test_registered_records_are_read_only(self, wire):
        record = wire.finder.find(QUERY).records[0]
        with pytest.raises(TypeError):
            record.properties["os"] = "linux"  # type: ignore[index]
        registered = wire.registry.records()[0]
        with pytest.raises(TypeError):
            registered.properties["os"] = "linux"  # type: ignore[index]

    def test_a_registration_does_not_alias_its_properties(self):
        registry = UddieRegistry()
        properties = {"os": "linux"}
        record = registry.register("render", "acme", properties=properties)
        properties["os"] = "irix"
        assert record.properties["os"] == "linux"


class TestValidator:
    def test_every_mutation_draws_a_new_validator(self):
        registry = UddieRegistry()
        seen = [registry.validator]
        registry.register("render", "acme")
        seen.append(registry.validator)
        registry.register("render", "cardiff")
        seen.append(registry.validator)
        assert len(set(seen)) == 3

    def test_no_two_registries_share_a_validator(self):
        registries = [UddieRegistry() for _ in range(3)]
        for registry in registries:
            registry.register("render", "acme")
        validators = [registry.validator for registry in registries]
        assert len(set(validators)) == 3

    def test_a_failed_mutation_keeps_the_validator(self):
        registry = UddieRegistry()
        registry.register("render", "acme")
        before = registry.validator
        with pytest.raises(RegistryError):
            registry.register("render", "acme")
        assert registry.validator == before

    def test_a_replaced_registry_is_asked_in_full(self, wire):
        """Same number of mutations, different records: the held
        validator must not match the newcomer's."""
        assert len(wire.finder.find(QUERY).records) == 2
        other = UddieRegistry()
        for name in ("render-x", "render-y", "render-z"):
            other.register(name, "acme")
        wire.endpoint.registry = other
        assert [record.name for record in wire.finder.find(QUERY).records] \
            == ["render-x", "render-y", "render-z"]

    def test_queries_equal_under_eq_are_held_apart(self, wire):
        """``1``, ``1.0`` and ``True`` compare equal but match a string
        property differently; each keeps its own answer."""
        wire.registry.register("render-ok", "acme",
                               properties={"flag": "1"})
        direct = DirectDiscovery(wire.registry)
        for value in (1, True, 1.0, 1, True):
            query = ServiceQuery(constraints=(
                PropertyConstraint("flag", "=", value),))
            assert wire.finder.find(query).records == \
                direct.find(query).records


def _claims_unchanged(envelope):
    """A registry handler that always says nothing changed."""
    return envelope.reply("service_records", element(
        "Service_Records", validator="0", unchanged="true"))


class TestUnchangedReply:
    def test_unchanged_without_a_held_answer_is_a_message_error(self):
        bus = MessageBus(Simulator())
        bus.endpoint("uddie").on("find_services", _claims_unchanged)
        with pytest.raises(MessageError):
            ResilientDiscovery(bus).find(QUERY)

    def test_unchanged_under_a_validator_not_sent_is_a_message_error(
            self, wire):
        wire.finder.find(QUERY)
        endpoint = wire.bus._endpoints["uddie"]  # noqa: SLF001
        endpoint.on("find_services", _claims_unchanged)
        with pytest.raises(MessageError):
            wire.finder.find(QUERY)

    def test_the_endpoint_skips_decode_and_search_when_unchanged(
            self, wire, monkeypatch):
        wire.finder.find(QUERY)

        def forbidden(*args, **kwargs):
            raise AssertionError("revalidation decoded or searched")
        monkeypatch.setattr(discovery, "decode_service_query", forbidden)
        monkeypatch.setattr(wire.registry, "find", forbidden)
        assert len(wire.finder.find(QUERY).records) == 2

    def test_a_query_with_a_stale_validator_is_answered_in_full(self, wire):
        wire.finder.find(QUERY)
        envelope = Envelope(sender="probe", recipient="uddie",
                            action="find_services",
                            body=discovery.encode_service_query(
                                QUERY, "stale"))
        reply = wire.bus.request(envelope).body
        assert reply.get("unchanged") is None
        assert reply.get("validator") == wire.registry.validator
        assert len(discovery.decode_service_records(reply)) == 2


class TestDegradedAfterRevalidation:
    def test_dropped_reply_serves_the_revalidated_answer_with_its_age(
            self, wire):
        first = wire.finder.find(QUERY).records
        wire.sim.advance(5.0)
        wire.finder.find(QUERY)  # revalidated: held answer is now t=5
        wire.sim.advance(3.0)
        wire.bus.install_faults(FaultPlan(
            RandomSource(1).stream("faults"),
            [FaultRule(recipient="aqos-discovery", drop=1.0)]))
        stale = wire.finder.find(QUERY)
        assert stale.degraded
        assert stale.records == first
        # The retries waited out their timeouts on the sim clock; the
        # age counts from the revalidation at t=5, not the fetch at 0.
        assert wire.sim.now > 8.0
        assert stale.age == pytest.approx(wire.sim.now - 5.0)
        assert wire.finder.metrics.counter_value(
            "repro_discovery_stale_hits_total") == 1


class TestVerbatimQuery:
    """The bus decodes the query the broker sent, not a stripped one."""

    @pytest.mark.parametrize("pattern", ["", " render-farm", "render* ",
                                         "  "])
    def test_pattern_round_trips(self, pattern):
        query = ServiceQuery(name_pattern=pattern)
        assert discovery.decode_service_query(
            parse_xml(discovery.encode_service_query(query))) == query

    def test_absent_pattern_still_means_every_service(self):
        assert discovery.decode_service_query(
            element("Service_Query")).name_pattern == "*"

    def test_record_text_round_trips(self):
        registry = UddieRegistry()
        record = registry.register(" render ", "", endpoint=" rm")
        assert discovery.decode_service_records(
            parse_xml(discovery.encode_service_records([record]))) == [record]
