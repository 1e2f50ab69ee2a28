"""The Section 5.6 worked example driven over a lossy control plane.

The paper's timeline (a 10-node compute sub-SLA, a second 4-node
guaranteed user, a 3-node failure at ``t3`` repaired at ``t4``) is
replayed as a *live* gateway session instead of a pure partition
recast: SLAs are negotiated over XML envelopes under fault injection,
the node failure is injected mid-run, and the paper's anchors must
survive the chaos — guarantees honored through the failure, capacity
conserved at every instant, everything released at the end.
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
)

#: Sim times mirroring the t1..t5 instants.
T_FAIL, T_REPAIR, T_END = 30.0, 60.0, 100.0


def drive_example56(testbed):
    """Establish SLA3 (10 nodes) and the 4-node co-tenant, inject the
    3-node failure/repair, and sample invariants at each instant.
    Returns the established SLA ids (sla3, other)."""
    sim = testbed.sim
    sim.schedule_at(T_FAIL, lambda: testbed.machine.fail_nodes(3),
                    label="inject:t3-failure")
    sim.schedule_at(T_REPAIR, lambda: testbed.machine.repair_nodes(),
                    label="inject:t4-repair")

    checkpoints = []

    def sample(instant):
        def audit():
            assert check(testbed) == []
            checkpoints.append((instant, sim.now))
        return audit

    for instant, time in (("t2", 20.0), ("t3", 45.0), ("t4", 75.0),
                          ("t5", 110.0)):
        sim.schedule_at(time, sample(instant), label=f"sample:{instant}")

    ids = []
    for client_name, cpu in (("sla3-client", 10), ("other-client", 4)):
        client = testbed.client(client_name)
        try:
            negotiation_id, offers, _reason = client.request_service(
                guaranteed_request(client=client_name, cpu=cpu,
                                   end=T_END, with_network=False))
            if negotiation_id is None or not offers:
                ids.append(None)
                continue
            sla, _failure = client.accept_offer(negotiation_id)
            ids.append(sla.sla_id if sla is not None else None)
        except CircuitOpenError:
            ids.append(None)
    sim.run(until=130.0)
    assert len(checkpoints) == 4, "an invariant sample never fired"
    return ids


@pytest.mark.parametrize("chaos_seed", [2, 13, 37])
def test_example56_anchors_survive_chaos(chaos_seed):
    testbed = make_chaos_testbed(chaos_seed, drop=0.1, duplicate=0.1,
                                 delay=0.1, error=0.05, reorder=0.05)
    sla3_id, other_id = drive_example56(testbed)
    assert_all_invariants(testbed)
    # Both sessions fit Cg=15 (10 + 4); whichever established must
    # have completed its validity period despite the t3 failure.
    for sla_id in (sla3_id, other_id):
        if sla_id is not None:
            assert testbed.repository.get(sla_id).status \
                is SlaStatus.COMPLETED
    # t5: all capacity released.
    assert testbed.partition.committed_total() == pytest.approx(0.0)
    assert len(testbed.compute_rm.slot_table) == 0
    assert testbed.partition.failed == pytest.approx(0.0)


def test_example56_chaos_is_replayable():
    """Same chaos seed → same establishment outcome and fault counts."""
    runs = []
    for _ in range(2):
        testbed = make_chaos_testbed(13, drop=0.1, duplicate=0.1,
                                     delay=0.1, error=0.05, reorder=0.05)
        ids = drive_example56(testbed)
        runs.append((tuple(sla_id is not None for sla_id in ids),
                     testbed.faults.stats.as_dict(),
                     len(testbed.bus.dead_letters)))
    assert runs[0] == runs[1]


def test_example56_perfect_transport_matches_direct_flow():
    """With the control plane attached but no faults, the bus adds no
    behaviour: both sessions establish and complete, guarantees are
    never shorted."""
    testbed = make_chaos_testbed(0, drop=0.0)  # plan exists, all-zero
    sla3_id, other_id = drive_example56(testbed)
    assert sla3_id is not None and other_id is not None
    assert testbed.faults.stats.dropped == 0
    for sla_id in (sla3_id, other_id):
        assert testbed.repository.get(sla_id).status is SlaStatus.COMPLETED
