"""Every testbed-level invariant, stated once.

The paper's guarantees (``Σ g(u) ≤ Cg``, conservation across
squeeze/promote/restore) and the journal's (nothing double-booked or
orphaned across a crash) are facts about one testbed's state. Each is
one function returning its violations at the tolerance of
:func:`repro.units.isclose`. Every driver calls :func:`check`; a
timed replay audits only the :data:`PARTITION_FACTS`, at each tick.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from .gara.reservation import ReservationState
from .sla.document import SlaStatus
from .units import isclose

__all__ = ["FACTS", "PARTITION_FACTS", "check"]


def _exceeds(value: float, bound: float) -> bool:
    return value > bound and not isclose(value, bound)


def conservation(testbed) -> "List[str]":
    """The effective pool sizes sum to ``C - failed``."""
    partition = testbed.partition
    effective = sum(partition.effective_sizes())
    surviving = partition.total - partition.failed
    return ([] if isclose(effective, surviving) else
            [f"effective sizes sum {effective:g} != surviving capacity "
             f"{surviving:g}"])


def commitment(testbed) -> "List[str]":
    """Committed guarantees stay within ``Cg``."""
    partition = testbed.partition
    committed = partition.committed_total()
    return ([f"committed {committed:g} exceeds Cg {partition.cg:g}"]
            if _exceeds(committed, partition.cg) else [])


def served(testbed) -> "List[str]":
    """What the pools serve fits the surviving capacity."""
    partition = testbed.partition
    total = partition.total_served()
    surviving = partition.total - partition.failed
    return ([f"served {total:g} exceeds surviving capacity {surviving:g}"]
            if _exceeds(total, surviving) else [])


def slot_index(testbed) -> "List[str]":
    """The slot table's index matches a recount at now + 0, 1, 10, 40."""
    table = testbed.compute_rm.slot_table
    entries = table.entries()
    problems: "List[str]" = []
    for offset in (0.0, 1.0, 10.0, 40.0):
        sample = testbed.sim.now + offset
        naive = sum(entry.demand.cpu for entry in entries
                    if entry.active_at(sample))
        indexed = table.usage_at(sample).cpu
        if not isclose(naive, indexed):
            problems.append(f"usage at t={sample:g} diverges from the "
                            f"naive recount: {indexed:g} != {naive:g}")
    return problems


def slot_overcommit(testbed) -> "List[str]":
    """The slot table fits its capacity at each entry's start and middle."""
    table = testbed.compute_rm.slot_table
    probes = {time for entry in table.entries()
              for time in (entry.start, (entry.start + entry.end) / 2.0)
              if not math.isinf(time)}
    return [f"overcommitted at t={probe:g} by "
            f"{table.overcommitment_at(probe)}"
            for probe in sorted(probes)
            if not table.overcommitment_at(probe).is_zero()]


def slot_entries(testbed) -> "List[str]":
    """The slot table holds exactly the live reservations' entries."""
    gara = testbed.compute_rm.gara
    live = {r.entry.entry_id for r in gara.live_reservations()}
    booked = {entry.entry_id for entry in gara.slot_table.entries()}
    return ([f"entry {orphan} booked by no live reservation (leaked slot)"
             for orphan in sorted(booked - live)]
            + [f"live reservation entry {missing} missing from the table"
               for missing in sorted(live - booked)])


def ownership(testbed) -> "List[str]":
    """Every live GARA reservation and every active NRM flow is owned
    by exactly one open session."""
    owners = testbed.broker.allocation.owners()
    held = ([("reservation", reservation.handle.value) for reservation
             in testbed.compute_rm.gara.live_reservations()]
            + [("flow", flow.flow_id) for flow in testbed.nrm.flows()])
    return ([f"{kind} {key} owned by more than one session"
             for (kind, key), count in sorted(owners.items()) if count > 1]
            + [f"{kind} {key} owned by no session (leaked)"
               for kind, key in held if (kind, key) not in owners])


def sla_atomicity(testbed) -> "List[str]":
    """A live SLA has a session with a confirmed composite, its GARA
    reservation held and, while active, a holding; no other SLA has a
    session (nor a holding: :func:`holding_owner`)."""
    broker = testbed.broker
    gara = testbed.compute_rm.gara
    live = broker.repository.live()
    live_ids = {sla.sla_id for sla in live}
    problems = [f"SLA {resources.sla_id} has a session but is not live"
                for resources in broker.allocation.open_sessions()
                if resources.sla_id not in live_ids]
    for sla in live:
        sla_id = sla.sla_id
        composite = (broker.allocation.get(sla_id).reservation
                     if broker.allocation.has(sla_id) else None)
        if composite is None or not composite.confirmed:
            problems.append(f"live SLA {sla_id} has no session with a "
                            f"confirmed composite")
            continue
        if composite.compute_handle is not None:
            state = gara.reservation_status(composite.compute_handle).state
            if state not in (ReservationState.COMMITTED,
                             ReservationState.BOUND):
                problems.append(f"live SLA {sla_id}'s reservation is "
                                f"{state.value}, not committed/bound")
        if (sla.status is SlaStatus.ACTIVE
                and broker.partition_holding(sla_id) is None
                and sla.floor_demand().cpu > 0):
            problems.append(f"active SLA {sla_id} holds no capacity")
    return problems


def holding_owner(testbed) -> "List[str]":
    """Every guaranteed holding belongs to a live SLA."""
    live = {f"sla-{sla.sla_id}" for sla in testbed.repository.live()}
    return [f"guaranteed holding {holding.user!r} has no live SLA "
            f"behind it"
            for holding in testbed.partition.guaranteed_holdings()
            if holding.user not in live]


def journal_lsn(testbed) -> "List[str]":
    """Journal LSNs strictly increase, across a crash too."""
    if testbed.journal is None:
        return []
    lsns = [record.lsn for record in testbed.journal.records()]
    return [f"LSN {lsn} after {previous}, not strictly increasing"
            for previous, lsn in zip([0] + lsns, lsns) if lsn <= previous]


#: The facts cheap enough to audit at every tick of a timed replay:
#: three reads of the partition's running sums.
PARTITION_FACTS: "Tuple[Callable, ...]" = (conservation, commitment, served)

#: Every fact; :func:`check` reports each under its function's name.
FACTS: "Tuple[Callable, ...]" = PARTITION_FACTS + (
    slot_index, slot_overcommit, slot_entries, ownership,
    sla_atomicity, holding_owner, journal_lsn)


def check(testbed) -> "List[str]":
    """Every violated invariant, prefixed with its fact's name."""
    return [f"{fact.__name__}: {problem}"
            for fact in FACTS for problem in fact(testbed)]
