"""X5 — cross-domain request overflow (Figure 1).

When a broker's own domain is full, Figure 1's AQoS-to-AQoS
interconnections let it hand requests to its neighbors: the federation
plane's delegation. The series compares acceptance of a burst homed at
``d1`` in a federation of one, two and three domains as the burst grows
past a single domain's capacity.
"""

from __future__ import annotations

from repro.experiments.reporting import format_table
from repro.federation.plane import FederatedControlPlane
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest

from .conftest import report


def burst(count: int, cpu: int = 5):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, cpu))
    return [ServiceRequest(client=f"client-{index}",
                           service_name="simulation-service",
                           service_class=ServiceClass.GUARANTEED,
                           specification=spec, start=0.0, end=100.0)
            for index in range(count)]


def admitted_through_domain1(count: int, *, domains: int) -> int:
    plane = FederatedControlPlane(domains=domains)
    return sum(1 for request in burst(count)
               if plane.request_service(request, home="d1").accepted)


def test_x5_overflow_series():
    rows = []
    for count in (2, 4, 6, 8, 10):
        alone = admitted_through_domain1(count, domains=1)
        two = admitted_through_domain1(count, domains=2)
        three = admitted_through_domain1(count, domains=3)
        rows.append([count, alone, two, three])
    report("X5 — request overflow via delegation (5-CPU guaranteed "
           "requests homed at d1, Cg=15 per domain)",
           format_table(["offered", "1 domain", "2 domains", "3 domains"],
                        rows))
    by_count = {row[0]: row for row in rows}
    # A single domain saturates at floor(15/5) = 3 sessions.
    assert by_count[6][1] == 3
    # Delegation doubles / triples the admissible burst.
    assert by_count[6][2] == 6
    assert by_count[10][3] == 9
    # Monotonicity: more domains never admit fewer.
    assert all(row[1] <= row[2] <= row[3] for row in rows)


def test_x5_forwarding_benchmark(benchmark):
    def run():
        return admitted_through_domain1(6, domains=2)

    admitted = benchmark(run)
    assert admitted == 6
