"""Multi-domain atlas replay regression (satellite scenario).

``rack_failure_cascade`` and ``multi_tenant_mix`` replayed across
three failure domains with ``d2`` crashed mid-run and rejoined later.
The pinned profiles are golden values at the atlas seed — a diff means
the federation's routing, the delegation protocol or the recovery
path changed behaviorally and must be reviewed, never absorbed
silently. The guaranteed-class availability read from each surviving
domain's SLO engine must not fall below the single-domain baseline:
carving the same capacity into failure domains may not cost the
guaranteed class its availability even with a broker down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.federation.replay import replay_federated
from repro.workloads import DEFAULT_SEED, get_scenario, replay_scenario


@dataclass(frozen=True)
class FederatedProfile:
    """Pinned headline numbers for one (scenario, DEFAULT_SEED,
    3 domains, d2 crashed) federated replay."""

    sessions: int
    delegated: int
    rerouted: int
    rejected: int
    report_sha256: str


#: Golden values at seed 2003 — reviewed, not regenerated blindly.
FEDERATED_PROFILES = {
    "rack_failure_cascade": FederatedProfile(
        sessions=47,
        delegated=4,
        rerouted=4,
        rejected=1,
        report_sha256="c2c03dae704b283ee0ee714ab6459ca4147e9fad"
                      "3383630443dbbec0ce644ed7"),
    "multi_tenant_mix": FederatedProfile(
        sessions=108,
        delegated=3,
        rerouted=11,
        rejected=8,
        report_sha256="8243c4395fc379654e7db2a3d24ec75476a56363"
                      "aa1aa525984a763ccdcd1830"),
}


@pytest.fixture(scope="module", params=sorted(FEDERATED_PROFILES))
def federated(request):
    """One federated replay per pinned scenario (module-cached)."""
    result = replay_federated(request.param, domains=3,
                              seed=DEFAULT_SEED, crash_domain="d2")
    return request.param, result


class TestPinnedProfiles:
    def test_headline_numbers_match(self, federated):
        name, result = federated
        profile = FEDERATED_PROFILES[name]
        federation = result.report["federation"]
        assert result.report["sessions"] == profile.sessions
        assert federation["delegated"] == profile.delegated
        assert federation["rerouted"] == profile.rerouted
        assert federation["rejected"] == profile.rejected

    def test_report_bytes_are_pinned(self, federated):
        name, result = federated
        digest = hashlib.sha256(
            result.report_json().encode("utf-8")).hexdigest()
        assert digest == FEDERATED_PROFILES[name].report_sha256

    def test_replay_is_byte_deterministic(self, federated):
        name, result = federated
        again = replay_federated(name, domains=3, seed=DEFAULT_SEED,
                                 crash_domain="d2")
        assert again.report_json() == result.report_json()


class TestCrashSchedule:
    def test_crash_and_rejoin_happened(self, federated):
        _, result = federated
        assert result.report["crash"]["domain"] == "d2"
        assert result.report["crash_events"] == 1
        # The broker rejoined: nothing is still down at the end.
        assert result.report["crashed_at_end"] == []

    def test_workload_matches_the_single_domain_replay(self, federated):
        # Same seed, same compiled workload: the federation changes
        # where sessions land, never what arrives.
        name, result = federated
        baseline = replay_scenario(get_scenario(name), seed=DEFAULT_SEED)
        assert result.report["workload_fingerprint"] \
            == baseline.report["workload_fingerprint"]


def _surviving_guaranteed_availability(report) -> float:
    """Worst guaranteed-class availability across the domains up at the
    end of the run."""
    values = [entry["slo_guaranteed_availability"]
              for name, entry in report["per_domain"].items()
              if name not in report["crashed_at_end"]]
    return min(values) if values else 1.0


class TestGuaranteedAvailability:
    def test_surviving_domains_hold_the_single_domain_bar(self, federated):
        name, result = federated
        baseline = replay_scenario(get_scenario(name), seed=DEFAULT_SEED)
        single = float(baseline.report["slo"]["classes"]
                       ["Guaranteed"]["availability"])
        assert _surviving_guaranteed_availability(result.report) >= single

    def test_guaranteed_class_rides_through_the_crash(self, federated):
        _, result = federated
        assert _surviving_guaranteed_availability(result.report) == 1.0
