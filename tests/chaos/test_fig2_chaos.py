"""The Figure 2 sequence under seeded fault injection.

Each test replays the request → offer → accept → verify → complete
sequence over a bus whose transport drops, duplicates, delays,
reorders or error-replies messages — then asserts the safety
invariants (capacity conservation, no double-booking, no wedged
protocol state) and, where the plan is survivable, liveness (the
guaranteed SLA completes).
"""

from __future__ import annotations

import pytest

from repro.errors import CircuitOpenError
from repro.invariants import check
from repro.sla.document import SlaStatus

from .conftest import (
    assert_all_invariants,
    guaranteed_request,
    make_chaos_testbed,
    normalize_trace,
)

#: One plan per fault family, plus an everything-at-once plan.
PLANS = {
    "drop": {"drop": 0.15},
    "duplicate": {"duplicate": 0.3},
    "delay": {"delay": 0.4},
    "reorder": {"reorder": 0.3},
    "error": {"error": 0.15},
    "mixed": {"drop": 0.1, "duplicate": 0.1, "delay": 0.1,
              "error": 0.05, "reorder": 0.1},
}


def drive_session(testbed, *, client_name: str = "client1",
                  cpu: int = 10):
    """Negotiate and accept one Figure 2 session (no final sim run);
    returns the SLA id, or None when the transport defeated the
    client (retries advance the clock a little either way)."""
    client = testbed.client(client_name)
    try:
        negotiation_id, offers, _reason = client.request_service(
            guaranteed_request(client=client_name, cpu=cpu))
        if negotiation_id is not None and offers:
            sla, _failure = client.accept_offer(negotiation_id)
            if sla is not None:
                client.verify_sla(sla.sla_id)
                return sla.sla_id
    except CircuitOpenError:
        # Retries exhausted: the session is abandoned client-side;
        # invariants must still hold server-side.
        pass
    return None


def run_session(testbed, *, client_name: str = "client1", cpu: int = 10):
    """Drive one full session and run the world to completion."""
    sla_id = drive_session(testbed, client_name=client_name, cpu=cpu)
    testbed.sim.run(until=150.0)
    return sla_id


class TestFaultFamilies:
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("chaos_seed", [3, 11, 29])
    def test_invariants_hold_under_every_plan(self, plan_name, chaos_seed):
        testbed = make_chaos_testbed(chaos_seed, **PLANS[plan_name])
        sla_id = run_session(testbed)
        assert_all_invariants(testbed)
        if sla_id is not None:
            assert testbed.repository.get(sla_id).status \
                is SlaStatus.COMPLETED

    @pytest.mark.parametrize("chaos_seed", [5, 17])
    def test_duplicates_never_double_reserve(self, chaos_seed):
        """A duplicated accept_offer must not book capacity twice."""
        testbed = make_chaos_testbed(chaos_seed, duplicate=0.5)
        sla_id = run_session(testbed, cpu=10)
        assert sla_id is not None  # duplication alone never loses data
        # Exactly one holding of exactly 10 CPUs was admitted.
        testbed.sim.run(until=150.0)
        assert check(testbed) == []
        slas = [sla for sla in testbed.repository.all()
                if sla.client == "client1"]
        assert len(slas) == 1
        # Partition fully released after the session completed.
        assert testbed.partition.committed_total() == pytest.approx(0.0)
        assert len(testbed.compute_rm.slot_table) == 0

    def test_two_clients_under_mixed_chaos(self):
        testbed = make_chaos_testbed(23, **PLANS["mixed"])
        first = drive_session(testbed, client_name="client1", cpu=8)
        second = drive_session(testbed, client_name="client2", cpu=5)
        testbed.sim.run(until=150.0)
        assert_all_invariants(testbed)
        for sla_id in (first, second):
            if sla_id is not None:
                assert testbed.repository.get(sla_id).status \
                    in {SlaStatus.COMPLETED, SlaStatus.ACTIVE,
                        SlaStatus.TERMINATED}


class TestDeterminism:
    @pytest.mark.parametrize("plan_name", ["drop", "mixed"])
    def test_same_seed_same_normalized_trace(self, plan_name):
        """Two in-process runs at one seed agree event-for-event once
        process-global counters (msg ids, GARA handles) are masked;
        the CLI test proves byte-identity across fresh processes."""
        outcomes = []
        for _ in range(2):
            testbed = make_chaos_testbed(41, **PLANS[plan_name])
            sla_id = run_session(testbed)
            outcomes.append((
                sla_id is not None,
                testbed.faults.stats.as_dict(),
                len(testbed.bus.dead_letters),
                normalize_trace(testbed.trace.render()),
            ))
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_diverge(self):
        """Sanity: the chaos seed actually matters (a constant fault
        schedule would trivially pass the determinism test)."""
        stats = []
        for chaos_seed in (1, 2, 3, 4, 5):
            testbed = make_chaos_testbed(chaos_seed, **PLANS["mixed"])
            run_session(testbed)
            stats.append(tuple(sorted(
                testbed.faults.stats.as_dict().items())))
        assert len(set(stats)) > 1


class TestDropSweep:
    @pytest.mark.parametrize("drop", [0.05, 0.1, 0.15, 0.2])
    def test_guaranteed_slas_survive_drop_sweep(self, drop):
        """Acceptance criterion: up to 20% drop probability, every
        established guaranteed SLA completes with zero conservation
        or double-booking violations."""
        completed = 0
        established = 0
        for chaos_seed in (7, 19, 31):
            testbed = make_chaos_testbed(chaos_seed, drop=drop)
            sla_id = run_session(testbed)
            assert check(testbed) == []
            if sla_id is not None:
                established += 1
                assert testbed.repository.get(sla_id).status \
                    is SlaStatus.COMPLETED
                completed += 1
        assert completed == established
        # With 4 attempts per call a 20% drop rate should essentially
        # never defeat the whole ladder at these seeds.
        assert established >= 2
