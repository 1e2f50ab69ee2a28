"""Registry behavior of the workload atlas."""

import pytest

from repro.errors import ValidationError
from itertools import accumulate

from repro.workloads import (FAMILIES, get_scenario, register_scenario,
                             scenarios)
from repro.workloads.arrivals import ConstantRate
from repro.workloads.durations import ExponentialDuration
from repro.workloads.scenarios import ScenarioSpec, TenantProfile


def test_every_family_has_a_builtin_scenario():
    assert {spec.family for spec in scenarios()} == set(FAMILIES)


def test_names_are_unique_and_ordered():
    names = [spec.name for spec in scenarios()]
    assert len(names) == len(set(names))
    assert names[0] == "diurnal_day"


def test_get_scenario_round_trips():
    for spec in scenarios():
        assert get_scenario(spec.name) is spec


def test_get_scenario_unknown_name_lists_registered():
    with pytest.raises(ValidationError) as excinfo:
        get_scenario("no_such_scenario")
    assert "diurnal_day" in str(excinfo.value)


def test_register_duplicate_name_rejected():
    existing = get_scenario("diurnal_day")
    with pytest.raises(ValidationError):
        register_scenario(existing)


def test_builtin_scenarios_compile_nonempty():
    for spec in scenarios():
        compiled = spec.compile(2003)
        assert len(compiled.workload) > 0
        assert compiled.workload.horizon == spec.horizon
        assert compiled.offered_load() > 0.0


def test_rack_cascade_overwhelms_the_reserve():
    """The correlated-failure scenario is sized so the peak loss
    exceeds the paper's Ca=6 — otherwise it would never force
    broker-level adaptation."""
    spec = get_scenario("rack_failure_cascade")
    peak_nodes_down = max(accumulate(
        -delta for _time, delta in spec.failure_events()))
    assert peak_nodes_down > spec.partition[1]


def test_scenario_validation():
    tenant = TenantProfile(name="t", arrivals=ConstantRate(rate=0.1),
                           durations=ExponentialDuration(mean_duration=5.0))
    with pytest.raises(ValidationError):
        ScenarioSpec(name="x", family="not_a_family", description="d",
                     horizon=10.0, tenants=(tenant,))
    with pytest.raises(ValidationError):
        ScenarioSpec(name="x", family="diurnal", description="d",
                     horizon=10.0, tenants=())
    with pytest.raises(ValidationError):
        ScenarioSpec(name="x", family="diurnal", description="d",
                     horizon=10.0, tenants=(tenant, tenant))


def test_scaled_preserves_offered_load_by_default():
    spec = get_scenario("flash_crowd_release")
    compressed = spec.scaled(time_factor=0.5)
    assert compressed.horizon == pytest.approx(spec.horizon * 0.5)
    full = spec.compile(11).offered_load()
    small = compressed.compile(11).offered_load()
    # Same seed, compressed time, doubled rate: offered load is a
    # statistical quantity so allow a wide band around equality.
    assert small == pytest.approx(full, rel=0.5)


def test_tenant_name_with_dash_rejected():
    with pytest.raises(ValidationError):
        TenantProfile(name="bad-name", arrivals=ConstantRate(rate=0.1),
                      durations=ExponentialDuration(mean_duration=5.0))
