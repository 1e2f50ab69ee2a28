"""Shared helpers for the chaos suite.

Every chaos test drives a real control-plane session over the message
bus with seeded fault injection, then asserts the *invariants* that
must hold no matter what the transport did:

* every testbed invariant of :func:`repro.invariants.check` —
  capacity conservation, no double-booking, no leaked slot or flow,
  SLA atomicity;
* no wedged protocol state — after a final sweep the gateway holds no
  pending negotiation, and every SLA that was established reached a
  terminal-or-active status.
"""

from __future__ import annotations

import re

import pytest

from repro.core.testbed import Testbed, attach_control_plane, build_testbed, \
    install_chaos
from repro.invariants import check
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, SlaStatus
from repro.sla.negotiation import ServiceRequest
from repro.units import parse_bound

#: Statuses an established SLA may legitimately end a run in.
SETTLED = {SlaStatus.ACTIVE, SlaStatus.COMPLETED, SlaStatus.TERMINATED,
           SlaStatus.EXPIRED}

#: Volatile identifiers that differ between in-process runs because
#: they come from module-global counters (message ids, GARA handles,
#: negotiation ids, job/flow ids). Normalized away before comparing
#: two same-seed runs executed in one interpreter; a fresh process
#: (the CLI determinism test) needs no normalization at all.
_VOLATILE = [
    (re.compile(r"\bmsg-\d+\b"), "msg-N"),
    (re.compile(r"\bgara-\d+\b"), "gara-N"),
    (re.compile(r"\bnegotiation \d+\b"), "negotiation N"),
    (re.compile(r"\bpid \d+\b"), "pid N"),
    (re.compile(r"\bpid=\d+\b"), "pid=N"),
    (re.compile(r"\bjob \d+\b"), "job N"),
    (re.compile(r"\bflow \d+\b"), "flow N"),
]


def normalize_trace(text: str) -> str:
    """Strip process-global counter values from a rendered trace."""
    for pattern, replacement in _VOLATILE:
        text = pattern.sub(replacement, text)
    return text


def guaranteed_request(client: str = "client1", cpu: int = 10,
                       end: float = 100.0,
                       with_network: bool = True) -> ServiceRequest:
    """The Figure 2 guaranteed request the suite replays."""
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 2048))
    network = None
    if with_network:
        network = NetworkDemand("135.200.50.101", "192.200.168.33",
                                100.0, parse_bound("LessThan 10%"))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=end, network=network)


def make_chaos_testbed(chaos_seed: int, *, drop: float = 0.0,
                       duplicate: float = 0.0, delay: float = 0.0,
                       error: float = 0.0, reorder: float = 0.0,
                       seed: int = 0) -> Testbed:
    """A testbed with the control plane on the bus and faults armed."""
    testbed = build_testbed(seed=seed)
    install_chaos(testbed, chaos_seed, drop=drop, duplicate=duplicate,
                  delay=delay, error=error, reorder=reorder)
    return testbed


def assert_protocol_settled(testbed: Testbed) -> None:
    """No wedged negotiation; every established SLA is settled."""
    assert testbed.gateway is not None
    testbed.gateway.sweep_stale(0.0)
    assert not testbed.gateway._negotiations
    for sla in testbed.repository.all():
        assert sla.status in SETTLED, \
            f"SLA {sla.sla_id} wedged in {sla.status}"


def assert_all_invariants(testbed: Testbed) -> None:
    """The full post-run invariant bundle."""
    assert check(testbed) == []
    assert_protocol_settled(testbed)


@pytest.fixture
def control_plane_testbed() -> Testbed:
    """A bus-wired testbed with NO faults (perfect transport)."""
    return attach_control_plane(build_testbed())
