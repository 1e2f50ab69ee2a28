"""Control-plane resilience under a message-drop sweep.

Replays a three-client Figure 2 workload at drop probabilities from 0
to 0.2 (every other fault family off, three chaos seeds per point) and
records, per point: how many sessions established, how many of those
completed, how many retries/timeouts the resilient callers spent, and
how many notifications dead-lettered. The acceptance anchor is that up
to 20% drop probability every *established* guaranteed SLA still
completes — the retry/dedup machinery converts transport loss into
latency, never into a violated guarantee. The sweep's table is
printed with ``-s``.
"""

from __future__ import annotations


from repro.core.testbed import build_testbed, install_chaos
from repro.errors import CircuitOpenError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import SlaStatus
from repro.sla.negotiation import ServiceRequest

from .conftest import report

DROP_PROBABILITIES = (0.0, 0.05, 0.1, 0.15, 0.2)
CHAOS_SEEDS = (7, 19, 31)
CLIENTS = (("user1", 6), ("user2", 5), ("user3", 4))


def _request(client: str, cpu: int) -> ServiceRequest:
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 1024))
    return ServiceRequest(client=client, service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=0.0, end=100.0)


def _run_point(drop: float, chaos_seed: int) -> "dict[str, float]":
    testbed = build_testbed()
    install_chaos(testbed, chaos_seed, drop=drop, duplicate=0.0,
                  delay=0.0, error=0.0, reorder=0.0)
    sla_ids = []
    retries = timeouts = 0
    for name, cpu in CLIENTS:
        client = testbed.client(name)
        try:
            negotiation_id, offers, _reason = client.request_service(
                _request(name, cpu))
            if negotiation_id is not None and offers:
                sla, _failure = client.accept_offer(negotiation_id)
                if sla is not None:
                    sla_ids.append(sla.sla_id)
        except CircuitOpenError:
            pass
        retries += client.caller.stats.retries
        timeouts += client.caller.stats.timeouts
    testbed.sim.run(until=150.0)
    completed = sum(
        1 for sla_id in sla_ids
        if testbed.repository.get(sla_id).status is SlaStatus.COMPLETED)
    effective_g, effective_a, effective_b = testbed.partition.effective_sizes()
    conserved = abs((effective_g + effective_a + effective_b)
                    - (testbed.partition.total - testbed.partition.failed)) \
        < 1e-9
    return {
        "established": len(sla_ids),
        "completed": completed,
        "retries": retries,
        "timeouts": timeouts,
        "dead_letters": len(testbed.bus.dead_letters),
        "faults_injected": testbed.faults.stats.dropped,
        "capacity_conserved": conserved,
    }


def test_bus_chaos_drop_sweep_artifact():
    points = []
    for drop in DROP_PROBABILITIES:
        per_seed = [_run_point(drop, seed) for seed in CHAOS_SEEDS]
        established = sum(row["established"] for row in per_seed)
        completed = sum(row["completed"] for row in per_seed)
        point = {
            "drop": drop,
            "established": established,
            "completed": completed,
            "completion_rate": (completed / established
                                if established else 1.0),
            "retries": sum(row["retries"] for row in per_seed),
            "timeouts": sum(row["timeouts"] for row in per_seed),
            "dead_letters": sum(row["dead_letters"] for row in per_seed),
            "faults_injected": sum(row["faults_injected"]
                                   for row in per_seed),
            "capacity_conserved": all(row["capacity_conserved"]
                                      for row in per_seed),
        }
        points.append(point)

    lines = [f"{'drop':>6} {'estab':>6} {'compl':>6} {'rate':>6} "
             f"{'retries':>8} {'timeouts':>9} {'dead':>5}"]
    for point in points:
        lines.append(
            f"{point['drop']:>6.2f} {point['established']:>6} "
            f"{point['completed']:>6} {point['completion_rate']:>6.2f} "
            f"{point['retries']:>8} {point['timeouts']:>9} "
            f"{point['dead_letters']:>5}")
    report("Bus chaos — SLA completion & retry cost vs drop probability",
           "\n".join(lines))

    for point in points:
        assert point["capacity_conserved"], point["drop"]
        # The acceptance anchor: established guarantees always complete.
        assert point["completed"] == point["established"], point["drop"]
    # The sweep must actually exercise the retry machinery...
    assert points[-1]["retries"] > 0
    assert points[-1]["faults_injected"] > 0
    # ...and a fault-free run must spend none of it.
    assert points[0]["retries"] == 0
    assert points[0]["established"] == \
        3 * len(CHAOS_SEEDS)
