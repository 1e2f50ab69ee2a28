"""Atlas-under-chaos: every scenario family survives a faulty bus.

One scenario per family is replayed with PR-3 fault injection armed on
the control plane, across a drop/delay sweep. Whatever the transport
does — dropped admissions, delayed replies — the run must end with:

* every testbed invariant of :func:`repro.invariants.check` (which
  ``check_invariants`` runs) and no wedged protocol state;
* no stranded guaranteed SLA: every guaranteed session settled, and
  any still-active one served its full entitlement;
* the atlas's own replay invariants (consent-confined degradation,
  nobody below floor, no terminal shortfall).

Scenarios are time-compressed 2x so the sweep stays inside the tier-1
budget; the fault rates, not the traffic volume, are what this suite
varies.
"""

import pytest

from repro.qos.classes import ServiceClass
from repro.workloads import check_invariants, replay_scenario, scenarios
from repro.workloads.scenarios import FAMILIES

from .conftest import SETTLED, assert_protocol_settled

#: The (drop, delay) fault sweep each family is replayed under.
FAULT_SWEEP = ((0.05, 0.0), (0.15, 0.25))


def family_scenario(family: str):
    """The family's first registered scenario, time-compressed 2x."""
    spec = next(spec for spec in scenarios() if spec.family == family)
    return spec.scaled(time_factor=0.5, load_factor=1.0)


def assert_no_stranded_guaranteed_sla(testbed) -> None:
    """Every guaranteed SLA settled; active ones fully served."""
    for sla in testbed.repository.all():
        if sla.service_class is not ServiceClass.GUARANTEED:
            continue
        assert sla.status in SETTLED, \
            f"guaranteed SLA {sla.sla_id} stranded in {sla.status}"
        holding = testbed.broker.partition_holding(sla.sla_id)
        if holding is not None:
            assert holding.shortfall <= 1e-9, \
                f"guaranteed SLA {sla.sla_id} ends short by " \
                f"{holding.shortfall}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("drop,delay", FAULT_SWEEP)
def test_family_survives_chaos(family, drop, delay):
    result = replay_scenario(family_scenario(family), seed=23,
                             chaos_seed=101, drop=drop, delay=delay)
    testbed = result.testbed
    assert_protocol_settled(testbed)
    assert_no_stranded_guaranteed_sla(testbed)
    assert check_invariants(result) == [], \
        f"{family} broke replay invariants under chaos " \
        f"(drop={drop}, delay={delay})"


def test_chaos_runs_are_seed_deterministic():
    """Same workload seed + same chaos seed → byte-identical report."""
    spec = family_scenario("flash_crowd")
    first = replay_scenario(spec, seed=23, chaos_seed=7,
                            drop=0.1, delay=0.1).report_json()
    second = replay_scenario(spec, seed=23, chaos_seed=7,
                             drop=0.1, delay=0.1).report_json()
    assert first == second
