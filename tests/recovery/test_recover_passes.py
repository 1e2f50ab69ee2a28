"""A restart restores the whole partition inside one deferred window.

``recover()`` used to run one water-fill per restored SLA; it now
re-admits every holding inside the deferred window batch admission
uses, so the number of passes does not depend on the live count.
"""

from __future__ import annotations

import pytest

from repro.core.capacity import CapacityPartition
from repro.core.testbed import build_testbed
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.invariants import check
from repro.recovery.crashpoints import crash
from repro.recovery.recover import install_journal, recover
from repro.recovery.snapshot import take_snapshot
from repro.sla.document import AdaptationOptions
from repro.sla.negotiation import ServiceRequest


def _request(index: int) -> ServiceRequest:
    """Alternately a guaranteed 1-CPU SLA and a controlled-load one
    running at 2 CPUs over a 1-CPU floor (one unit of excess)."""
    if index % 2:
        service_class = ServiceClass.CONTROLLED_LOAD
        cpu = range_parameter(Dimension.CPU, 1, 2)
    else:
        service_class = ServiceClass.GUARANTEED
        cpu = exact_parameter(Dimension.CPU, 1)
    return ServiceRequest(
        client=f"user{index}", service_name="simulation-service",
        service_class=service_class,
        specification=QoSSpecification.of(
            cpu, exact_parameter(Dimension.MEMORY_MB, 64)),
        start=0.0, end=10_000.0,
        adaptation=AdaptationOptions(accept_degradation=True))


def _loaded_testbed(live: int):
    """``live`` SLAs near full load: Σ excess is ``live / 2`` against
    ``Ca = 0.35 × live``, so the excess line is contended."""
    cg, ca, cb = round(1.3 * live), round(0.35 * live), round(0.05 * live)
    total = cg + ca + cb
    testbed = build_testbed(
        total_cpu=total, guaranteed_cpu=cg, adaptive_cpu=ca,
        best_effort_cpu=cb, machine_nodes=total,
        memory_mb=128.0 * total, disk_mb=256.0 * total)
    install_journal(testbed)
    outcomes = testbed.broker.request_services(
        [_request(index) for index in range(live)])
    assert all(outcome.accepted for outcome in outcomes)
    return testbed


def _holdings(testbed):
    return [(holding.user, holding.committed, holding.demand,
             holding.served, holding.from_g, holding.from_a, holding.from_b)
            for holding in testbed.partition.guaranteed_holdings()]


@pytest.mark.parametrize("from_snapshot", [False, True])
def test_restart_makes_the_same_few_passes_at_any_live_count(
        monkeypatch, from_snapshot):
    passes = []
    rebalance = CapacityPartition.rebalance

    def counting(partition):
        passes[-1] += 1
        return rebalance(partition)
    monkeypatch.setattr(CapacityPartition, "rebalance", counting)

    for live in (40, 160):
        passes.append(0)
        testbed = _loaded_testbed(live)
        before = _holdings(testbed)
        assert len(before) == live
        assert testbed.partition.last_report.pools[0].excess > 0
        snapshot = (take_snapshot(testbed.broker, journal=testbed.journal)
                    if from_snapshot else None)
        durable = testbed.journal.last_lsn

        crash(testbed)
        assert _holdings(testbed) == []
        passes[-1] = 0
        report = recover(testbed, snapshot=snapshot)

        assert report.slas_restored == live
        assert report.slas_rolled_back == 0
        # Every holding is back exactly as the crash found it, and the
        # crash sweep's audit (owners, conservation, strictly
        # increasing LSNs) is clean.
        assert _holdings(testbed) == before
        assert check(testbed) == []
        # The restore itself journals nothing: RECOVERED is the one
        # record a clean restart adds.
        assert testbed.journal.last_lsn == durable + 1
    # Wipe, repair, and the window's one water-fill.
    assert passes == [3, 3]
