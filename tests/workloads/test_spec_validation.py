"""What an atlas scenario declaration refuses, and the derived
quantities it offers (repro.workloads.scenarios)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.workloads.arrivals import ConstantRate
from repro.workloads.durations import ExponentialDuration
from repro.workloads.scenarios import (FailureTrack, ScenarioSpec,
                                       TenantProfile)


def tenant(name="t", **overrides) -> TenantProfile:
    return TenantProfile(name=name, arrivals=ConstantRate(rate=0.1),
                         durations=ExponentialDuration(mean_duration=5.0),
                         **overrides)


def spec(**overrides) -> ScenarioSpec:
    fields = dict(name="x", family="diurnal", description="d",
                  horizon=100.0, tenants=(tenant(),))
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestTenantProfile:
    @pytest.mark.parametrize("overrides", [
        {"class_mix": (0.5, 0.5)},
        {"class_mix": (0.5, -0.1, 0.6)},
        {"class_mix": (0.0, 0.0, 0.0)},
        {"guaranteed_cpu": (0, 4)},
        {"controlled_cpu_floor": (4, 2)},
        {"best_effort_cpu": (-1, 2)},
        {"memory_mb": (512, 64)},
        {"controlled_stretch": 0.9},
        {"degradable_fraction": 1.5},
        {"terminable_fraction": -0.1},
        {"promotion_fraction": 2.0},
    ], ids=["mix-length", "mix-negative", "mix-zero", "guaranteed-range",
            "controlled-range", "best-effort-range", "memory-range",
            "stretch", "degradable", "terminable", "promotion"])
    def test_rejected(self, overrides):
        with pytest.raises(ValidationError):
            tenant(**overrides)

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            tenant(name="")

    def test_mean_cpu_weights_each_class(self):
        profile = tenant(class_mix=(1.0, 2.0, 1.0), guaranteed_cpu=(2, 6),
                         controlled_cpu_floor=(2, 2), controlled_stretch=3.0,
                         best_effort_cpu=(1, 3))
        # Guaranteed 4, controlled (2 + 6) / 2 = 4, best-effort 2.
        assert profile.mean_cpu() == pytest.approx((4 + 2 * 4 + 2) / 4)

    def test_scaled_rescales_arrivals_and_durations(self):
        profile = tenant().scaled(time_factor=0.5, rate_factor=3.0)
        assert profile.arrivals.rate == pytest.approx(0.3)
        assert profile.durations.mean() == pytest.approx(2.5)
        assert profile.class_mix == tenant().class_mix


class TestFailureTrack:
    @pytest.mark.parametrize("domain, events", [
        ("", ((1.0, -1),)),
        ("rack-a", ()),
        ("rack-a", ((5.0, -1), (2.0, 1))),
        ("rack-a", ((-1.0, -1),)),
        ("rack-a", ((1.0, 0),)),
        ("rack-a", ((1.0, -1), (2.0, 2))),
    ], ids=["no-domain", "no-events", "out-of-order", "negative-time",
            "zero-delta", "over-repair"])
    def test_rejected(self, domain, events):
        with pytest.raises(ValidationError):
            FailureTrack(domain=domain, events=events)

    def test_episode_fails_then_repairs(self):
        track = FailureTrack.episode("rack-a", start=10.0, duration=5.0,
                                     nodes=3)
        assert track.events == ((10.0, -3), (15.0, 3))

    @pytest.mark.parametrize("duration, nodes", [(0.0, 2), (5.0, 0)])
    def test_empty_episode_rejected(self, duration, nodes):
        with pytest.raises(ValidationError):
            FailureTrack.episode("rack-a", start=1.0, duration=duration,
                                 nodes=nodes)

    def test_scaled_compresses_event_times(self):
        track = FailureTrack.episode("rack-a", start=10.0, duration=6.0,
                                     nodes=2)
        assert track.scaled(time_factor=0.5).events == ((5.0, -2), (8.0, 2))
        with pytest.raises(ValidationError):
            track.scaled(time_factor=0.0)


class TestScenarioSpec:
    @pytest.mark.parametrize("overrides", [
        {"name": ""},
        {"horizon": 0.0},
        {"partition": (15, -1, 5, 2)},
        {"partition": (0, 0, 0, 0)},
        {"partition": (15, 6, 5, 6)},
        {"partition": (15, 6, 5, -1)},
        {"failures": (FailureTrack.episode("rack-a", start=90.0,
                                           duration=20.0, nodes=1),)},
    ], ids=["no-name", "horizon", "negative-pool", "no-capacity",
            "floor-above-pool", "negative-floor", "failure-past-horizon"])
    def test_rejected(self, overrides):
        with pytest.raises(ValidationError):
            spec(**overrides)

    def test_capacity_and_failure_flags(self):
        plain = spec(partition=(10, 4, 3, 1))
        assert plain.total_capacity == 17.0
        assert not plain.has_failures
        assert plain.failure_events() == ()

    def test_failures_merge_before_repairs_at_one_instant(self):
        early = FailureTrack.episode("rack-a", start=10.0, duration=10.0,
                                     nodes=2)
        late = FailureTrack.episode("rack-b", start=20.0, duration=5.0,
                                    nodes=1)
        merged = spec(failures=(early, late))
        assert merged.has_failures
        assert merged.failure_events() == (
            (10.0, -2), (20.0, -1), (20.0, 2), (25.0, 1))

    def test_scaled_with_explicit_load_factor(self):
        track = FailureTrack.episode("rack-a", start=40.0, duration=20.0,
                                     nodes=1)
        small = spec(failures=(track,)).scaled(time_factor=0.5,
                                               load_factor=1.0)
        assert small.horizon == 50.0
        assert small.tenants[0].arrivals.rate == pytest.approx(0.1)
        assert small.failures[0].events == ((20.0, -1), (30.0, 1))

    def test_scaled_default_load_factor_needs_positive_time(self):
        with pytest.raises(ValidationError):
            spec().scaled(time_factor=0.0)
