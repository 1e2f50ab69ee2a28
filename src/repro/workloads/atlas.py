"""The workload atlas: a registry of named scenario families.

Six built-in families map the traffic landscape the ROADMAP calls for
(each grounded in the provisioning literature — Mazzucco et al.'s
revenue-vs-SLA tradeoff only emerges under varied offered load):

* ``diurnal`` — sinusoidal day/night arrivals (non-homogeneous
  Poisson via thinning);
* ``flash_crowd`` — baseline traffic with multiplicative burst
  windows (a release day);
* ``heavy_tailed`` — lognormal and capped-Pareto session durations;
* ``multi_tenant`` — three tenants with distinct class mixes and SLA
  shapes interleaved into one arrival stream;
* ``correlated_failure`` — rack-scoped outage tracks that overlap
  into a loss exceeding the adaptive reserve;
* ``best_effort_flood`` — a long-running best-effort flood under a
  small guaranteed population.

Every scenario is a :class:`~repro.workloads.scenarios.ScenarioSpec`
compiled deterministically from a seed; the regression suite
(``tests/workloads/test_atlas_regression.py``) holds one test per
family and the meta-test fails if a registered scenario lacks
regression coverage or an EXPERIMENTS.md row.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ValidationError
from .arrivals import ConstantRate, DiurnalRate, FlashCrowdRate
from .durations import (ExponentialDuration, LognormalDuration,
                        ParetoDuration)
from .scenarios import FailureTrack, ScenarioSpec, TenantProfile

__all__ = [
    "DEFAULT_SEED",
    "get_scenario",
    "register_scenario",
    "scenarios",
]

#: The seed headline atlas numbers are reported at (the paper's year).
DEFAULT_SEED = 2003

_REGISTRY: "Dict[str, ScenarioSpec]" = {}
#: Registration order, for deterministic iteration.
_ORDER: "List[str]" = []


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the atlas (names are unique).

    Raises:
        ValidationError: When the name is already registered.
    """
    if spec.name in _REGISTRY:
        raise ValidationError(
            f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    _ORDER.append(spec.name)
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name.

    Raises:
        ValidationError: For unknown names (the message lists what is
            registered, so typos fail helpfully).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValidationError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(_ORDER)}")
    return spec


def scenarios() -> "Tuple[ScenarioSpec, ...]":
    """Registered specs in registration order."""
    return tuple(_REGISTRY[name] for name in _ORDER)


# ----------------------------------------------------------------------
# Built-in scenarios — one per family, the paper's 15/6/5 partition.
# ----------------------------------------------------------------------

register_scenario(ScenarioSpec(
    name="diurnal_day",
    family="diurnal",
    description=("Two day/night cycles of sinusoidal arrivals; offered "
                 "load swings from ~0.2x to ~2x capacity at the crest"),
    horizon=480.0,
    tenants=(
        TenantProfile(
            name="portal",
            arrivals=DiurnalRate(base_rate=0.18, amplitude=0.8,
                                 period=240.0, phase=-60.0),
            durations=ExponentialDuration(mean_duration=40.0)),
    ),
))

register_scenario(ScenarioSpec(
    name="flash_crowd_release",
    family="flash_crowd",
    description=("Quiet baseline with two burst windows (6x and 8x) — "
                 "a dataset release followed by a bigger rush"),
    horizon=300.0,
    tenants=(
        TenantProfile(
            name="press",
            arrivals=FlashCrowdRate(
                base_rate=0.1,
                bursts=((60.0, 90.0, 6.0), (180.0, 210.0, 8.0))),
            durations=ExponentialDuration(mean_duration=30.0)),
    ),
))

register_scenario(ScenarioSpec(
    name="heavy_tailed_sessions",
    family="heavy_tailed",
    description=("Lognormal interactive sessions next to capped-Pareto "
                 "simulation runs: a few sessions pin capacity for a "
                 "large multiple of the median"),
    horizon=400.0,
    tenants=(
        TenantProfile(
            name="interactive",
            arrivals=ConstantRate(rate=0.25),
            durations=LognormalDuration(median=8.0, sigma=1.2)),
        TenantProfile(
            name="simulation",
            arrivals=ConstantRate(rate=0.08),
            durations=ParetoDuration(shape=1.6, scale=10.0, cap=300.0),
            class_mix=(0.5, 0.3, 0.2)),
    ),
))

register_scenario(ScenarioSpec(
    name="multi_tenant_mix",
    family="multi_tenant",
    description=("Three tenants with distinct SLA shapes: a "
                 "guaranteed-heavy enterprise, a degradation-tolerant "
                 "lab, and a best-effort batch farm"),
    horizon=400.0,
    tenants=(
        TenantProfile(
            name="enterprise",
            arrivals=ConstantRate(rate=0.06),
            durations=ExponentialDuration(mean_duration=60.0),
            class_mix=(0.8, 0.2, 0.0),
            guaranteed_cpu=(3, 8),
            degradable_fraction=0.3,
            terminable_fraction=0.05,
            promotion_fraction=0.2),
        TenantProfile(
            name="lab",
            arrivals=ConstantRate(rate=0.12),
            durations=ExponentialDuration(mean_duration=35.0),
            class_mix=(0.1, 0.8, 0.1),
            controlled_stretch=3.0,
            degradable_fraction=0.95,
            terminable_fraction=0.4,
            promotion_fraction=0.6),
        TenantProfile(
            name="batch",
            arrivals=ConstantRate(rate=0.1),
            durations=ExponentialDuration(mean_duration=50.0),
            class_mix=(0.0, 0.1, 0.9),
            best_effort_cpu=(1, 4),
            degradable_fraction=1.0,
            terminable_fraction=0.8),
    ),
))

register_scenario(ScenarioSpec(
    name="rack_failure_cascade",
    family="correlated_failure",
    description=("Steady mixed load hit by two overlapping rack "
                 "outages (6 + 4 nodes); the 10-node peak exceeds the "
                 "paper's Ca=6 reserve, so adaptation must degrade "
                 "opted-in sessions"),
    horizon=360.0,
    tenants=(
        TenantProfile(
            name="steady",
            arrivals=ConstantRate(rate=0.12),
            durations=ExponentialDuration(mean_duration=50.0),
            class_mix=(0.5, 0.35, 0.15),
            degradable_fraction=0.8),
    ),
    failures=(
        FailureTrack.episode("rack_a", start=120.0, duration=60.0,
                             nodes=6),
        FailureTrack.episode("rack_b", start=150.0, duration=45.0,
                             nodes=4),
    ),
))

register_scenario(ScenarioSpec(
    name="best_effort_flood",
    family="best_effort_flood",
    description=("A long-running best-effort flood (~3.7x capacity in "
                 "offered load) under a small guaranteed population — "
                 "the floor Cb protects the flood's minimum share, the "
                 "flood must never touch a guarantee"),
    horizon=300.0,
    tenants=(
        TenantProfile(
            name="science",
            arrivals=ConstantRate(rate=0.05),
            durations=ExponentialDuration(mean_duration=60.0),
            class_mix=(0.7, 0.3, 0.0),
            guaranteed_cpu=(3, 8)),
        TenantProfile(
            name="flood",
            arrivals=ConstantRate(rate=0.6),
            durations=ExponentialDuration(mean_duration=80.0),
            class_mix=(0.0, 0.0, 1.0),
            best_effort_cpu=(1, 3)),
    ),
))
