"""Tests for the UDDIe registry (repro.registry)."""

from __future__ import annotations

import pytest

from repro.errors import RegistryError, ServiceNotFound
from repro.qos.parameters import Dimension, range_parameter
from repro.qos.specification import QoSSpecification
from repro.registry.query import PropertyConstraint, ServiceQuery
from repro.registry.uddie import UddieRegistry


@pytest.fixture
def registry():
    registry = UddieRegistry()
    registry.register(
        "render-service", "cardiff",
        capability=QoSSpecification.of(
            range_parameter(Dimension.CPU, 0, 64),
            range_parameter(Dimension.BANDWIDTH_MBPS, 0, 622)),
        properties={"os": "linux", "nodes": 64, "secure": True})
    registry.register(
        "render-service", "soton",
        capability=QoSSpecification.of(
            range_parameter(Dimension.CPU, 0, 8)),
        properties={"os": "irix", "nodes": 8})
    registry.register(
        "storage-service", "cardiff",
        capability=QoSSpecification.of(
            range_parameter(Dimension.DISK_MB, 0, 1_000_000)),
        properties={"protocol": "gridftp"})
    return registry


class TestRegistration:
    def test_register_assigns_ids(self, registry):
        records = registry.records()
        assert len(records) == 3
        assert len({record.record_id for record in records}) == 3

    def test_duplicate_name_provider_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.register("render-service", "cardiff")

    def test_same_name_different_provider_allowed(self, registry):
        providers = {record.provider
                     for record in registry.find(
                         ServiceQuery(name_pattern="render-service"))}
        assert providers == {"cardiff", "soton"}

    def test_get_unknown(self, registry):
        with pytest.raises(ServiceNotFound):
            registry.get(999_999)


class TestNameQueries:
    def test_glob_pattern(self, registry):
        assert len(registry.find(ServiceQuery(name_pattern="render*"))) == 2
        assert len(registry.find(ServiceQuery(name_pattern="*-service"))) == 3
        assert registry.find(ServiceQuery(name_pattern="nothing*")) == []


class TestPropertyQueries:
    def test_string_equality(self, registry):
        query = ServiceQuery(constraints=(
            PropertyConstraint("os", "=", "linux"),))
        assert [r.provider for r in registry.find(query)] == ["cardiff"]

    def test_numeric_comparison(self, registry):
        query = ServiceQuery(constraints=(
            PropertyConstraint("nodes", ">=", 32),))
        matches = registry.find(query)
        assert len(matches) == 1
        assert matches[0].properties["nodes"] == 64

    def test_missing_property_fails_constraint(self, registry):
        query = ServiceQuery(constraints=(
            PropertyConstraint("gpu", "=", "yes"),))
        assert registry.find(query) == []

    def test_multiple_constraints_conjunct(self, registry):
        query = ServiceQuery(constraints=(
            PropertyConstraint("os", "=", "linux"),
            PropertyConstraint("nodes", ">", 100),))
        assert registry.find(query) == []

    def test_invalid_operator_rejected(self):
        with pytest.raises(RegistryError):
            PropertyConstraint("x", "~", 1)

    def test_ordering_operator_on_strings_raises(self, registry):
        query = ServiceQuery(constraints=(
            PropertyConstraint("os", ">", "linux"),))
        with pytest.raises(RegistryError):
            registry.find(query)


class TestQoSQueries:
    def test_capability_must_dominate_request(self, registry):
        demanding = ServiceQuery(
            name_pattern="render*",
            qos=QoSSpecification.of(range_parameter(Dimension.CPU, 16, 32)))
        matches = registry.find(demanding)
        assert [record.provider for record in matches] == ["cardiff"]

    def test_modest_request_matches_both(self, registry):
        modest = ServiceQuery(
            name_pattern="render*",
            qos=QoSSpecification.of(range_parameter(Dimension.CPU, 1, 4)))
        assert len(registry.find(modest)) == 2

    def test_dimension_not_advertised_fails(self, registry):
        query = ServiceQuery(
            name_pattern="storage*",
            qos=QoSSpecification.of(range_parameter(Dimension.CPU, 1, 2)))
        assert registry.find(query) == []

    def test_combined_name_property_qos(self, registry):
        query = ServiceQuery(
            name_pattern="render*",
            constraints=(PropertyConstraint("secure", "=", True),),
            qos=QoSSpecification.of(
                range_parameter(Dimension.BANDWIDTH_MBPS, 100, 622)))
        matches = registry.find(query)
        assert len(matches) == 1
        assert matches[0].provider == "cardiff"
