"""Per-scenario QoS regression suite over the workload atlas.

One test per registered scenario replays it end to end through the
full testbed (batched admission, telemetry, verifier polling) at the
atlas seed and asserts:

* the family's QoS invariants (:func:`repro.workloads.check_invariants`):
  capacity conservation at every checkpoint, no slot-table overcommit,
  degradation confined to consenting sessions, nobody below floor,
  zero guaranteed-class violations absent injected failures, no
  stranded shortfall at the end;
* the pinned :class:`RegressionProfile` — session count, workload
  fingerprint, per-class acceptance and §5.3 revenue. These are golden
  values: a diff means the generators, the admission pipeline or the
  adaptation changed behaviorally, and the change must be reviewed
  (then re-pinned), never absorbed silently;
* byte-determinism of the full canonical metric report (two in-process
  replays; the cross-process leg lives in ``test_properties``).

The meta-test (``test_meta.py``) fails when a registered scenario has
no profile here, so the suite cannot drift behind the registry.
"""

from dataclasses import dataclass

import pytest

from repro.workloads import (DEFAULT_SEED, check_invariants, get_scenario,
                             replay_scenario, scenarios)


@dataclass(frozen=True)
class RegressionProfile:
    """Pinned headline numbers for one (scenario, DEFAULT_SEED) replay."""

    sessions: int
    fingerprint: str
    guaranteed_accepted: int
    controlled_accepted: int
    best_effort_granted: int
    revenue: float


#: Golden values at seed 2003 — reviewed, not regenerated blindly.
REGRESSION_PROFILES = {
    "diurnal_day": RegressionProfile(
        sessions=82,
        fingerprint="26f9b7189bbe1a2991655da1af347105ddce0567"
                    "a75697cbce00033616cc6898",
        guaranteed_accepted=13,
        controlled_accepted=32,
        best_effort_granted=21,
        revenue=6705.611847032),
    "flash_crowd_release": RegressionProfile(
        sessions=54,
        fingerprint="22f336d87ef4af491c0e4d2cdf89af3482c22fb0"
                    "db8eed55d0fa7854f18ebd0c",
        guaranteed_accepted=8,
        controlled_accepted=22,
        best_effort_granted=10,
        revenue=4075.28081441),
    "heavy_tailed_sessions": RegressionProfile(
        sessions=140,
        fingerprint="48f5b0a18bc9e404b87851e8131beadcd71a00d7"
                    "2ac8b3ce70c8ed0819a4af41",
        guaranteed_accepted=29,
        controlled_accepted=41,
        best_effort_granted=32,
        revenue=7004.213436517),
    "multi_tenant_mix": RegressionProfile(
        sessions=108,
        fingerprint="577e5afb93b71e6c0b1d8306cd9cd6be16809c78"
                    "0471ab02dfc6045158b5b042",
        guaranteed_accepted=12,
        controlled_accepted=33,
        best_effort_granted=25,
        revenue=7222.893798614),
    "rack_failure_cascade": RegressionProfile(
        sessions=47,
        fingerprint="e30c6b180d1f86d054af88e8ae8e9b884399abb9"
                    "b99487c04bf67bc5a8a323f9",
        guaranteed_accepted=14,
        controlled_accepted=18,
        best_effort_granted=5,
        revenue=6584.316333699),
    "best_effort_flood": RegressionProfile(
        sessions=200,
        fingerprint="797641c3f027a0e6ca220b781deea4738c8e3e43"
                    "4fc803abc11caa7cce9a01f2",
        guaranteed_accepted=8,
        controlled_accepted=3,
        best_effort_granted=59,
        revenue=3643.960923295),
}


@pytest.fixture(scope="module")
def replays():
    """Each scenario replayed once at the atlas seed (shared across
    the per-scenario asserts — replays are pure functions of the
    seed, so sharing loses nothing)."""
    return {spec.name: replay_scenario(spec, seed=DEFAULT_SEED)
            for spec in scenarios()}


@pytest.mark.parametrize("name", sorted(REGRESSION_PROFILES))
def test_scenario_holds_qos_invariants(name, replays):
    assert check_invariants(replays[name]) == [], \
        f"{name} broke its QoS invariants"


@pytest.mark.parametrize("name", sorted(REGRESSION_PROFILES))
def test_scenario_matches_pinned_profile(name, replays):
    report = replays[name].report
    profile = REGRESSION_PROFILES[name]
    assert report["sessions"] == profile.sessions
    assert report["workload_fingerprint"] == profile.fingerprint
    assert report["guaranteed_accepted"] == profile.guaranteed_accepted
    assert report["controlled_accepted"] == profile.controlled_accepted
    assert report["best_effort_granted"] == profile.best_effort_granted
    assert report["revenue"] == pytest.approx(profile.revenue)


@pytest.mark.parametrize("name", sorted(REGRESSION_PROFILES))
def test_scenario_report_is_byte_deterministic(name, replays):
    again = replay_scenario(name, seed=DEFAULT_SEED)
    assert again.report_json() == replays[name].report_json()


def test_failure_scenarios_actually_adapt(replays):
    """The correlated-failure family must exercise adaptation: the
    cascade produces violations AND restorations, and ends clean."""
    report = replays["rack_failure_cascade"].report
    assert report["violations_detected"] > 0
    assert report["restorations"] > 0
    assert report["final_shortfall"] == 0.0


def test_flood_never_touches_a_guarantee(replays):
    """The best-effort flood is rationed, never served at a
    guarantee's expense."""
    report = replays["best_effort_flood"].report
    assert report["best_effort_requests"] > \
        report["best_effort_granted"]
    assert report["guaranteed_violations"] == 0
    assert report["violations_detected"] == 0


@pytest.mark.parametrize("seed", (11, 12, 13))
def test_atlas_full_sweep_extra_seeds(seed):
    """Every scenario's invariants, including every testbed fact of
    :func:`repro.invariants.check`, at three seeds beyond the pinned
    atlas seed."""
    for spec in scenarios():
        result = replay_scenario(spec, seed=seed)
        assert check_invariants(result) == [], \
            f"{spec.name} broke invariants at seed {seed}"
