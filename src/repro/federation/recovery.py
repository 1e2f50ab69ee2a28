"""Rejoin reconciliation: what a recovered broker owes the federation.

The PR-5 ``recover()`` rebuilds a crashed domain's *local* state from
its journal; this module settles its *cross-domain* obligations. The
delegation protocol journals four record types on both sides
(``delegation_begin`` / ``accepted`` / ``confirmed`` / ``cancelled``),
so :func:`scan_delegations` can fold any journal into one state per
delegation id and :func:`reconcile_delegations` can classify every
booking a crash interrupted:

* **peer role, confirmed** — the delegation completed end-to-end; the
  booking stays and the volatile tracking tables are rebuilt.
* **peer role, unconfirmed** — *half-delegated*: the home never sealed
  it (it timed out and rerouted while this broker was dark), so
  keeping the booking would double-admit the client. Rolled back.
* **peer role, begun but never linked** — the crash landed between
  the admission's own commit and the ``delegation_accepted`` link;
  the orphaned live SLA is found by the recorded client name and
  rolled back the same way.
* **home role, in flight** — this broker died between ``begin`` and
  ``confirmed``; the outgoing delegation is cancelled in the journal
  and a best-effort ``fed_cancel`` tells the peer (whose own
  confirm-timeout janitor covers the case where the cancel is lost).

:func:`federation_invariants` is the sweep's oracle: per-domain
``verify_recovered`` plus the two federation-level guarantees — no
delegation live in two domains (double admission) and no live booking
the home side has disowned (orphaned booking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import BrokerCrash, CircuitOpenError, TransientMessageError
from ..recovery.crashpoints import verify_recovered
from ..recovery.journal import (DELEGATION_ACCEPTED, DELEGATION_BEGIN,
                                DELEGATION_CANCELLED, DELEGATION_CONFIRMED)
from .protocol import IncomingDelegation, encode_cancel

__all__ = [
    "DelegationState",
    "FederationRecovery",
    "RejoinReport",
    "federation_invariants",
    "reconcile_delegations",
    "scan_delegations",
]

_DELEGATION_TYPES = frozenset({
    DELEGATION_BEGIN, DELEGATION_ACCEPTED,
    DELEGATION_CONFIRMED, DELEGATION_CANCELLED,
})


@dataclass
class DelegationState:
    """One delegation's journaled lifecycle, folded oldest-first."""

    delegation_id: str
    role: str = ""
    counterpart: str = ""
    client: str = ""
    opened_at: float = 0.0
    sla_id: Optional[int] = None
    confirmed: bool = False
    cancelled: bool = False

    @property
    def in_flight(self) -> bool:
        """Begun but neither confirmed nor cancelled."""
        return not self.confirmed and not self.cancelled


@dataclass(frozen=True)
class FederationRecovery:
    """What reconciliation did on one rejoin."""

    cancelled_incoming: int = 0
    cancelled_outgoing: int = 0
    restored: int = 0
    notes: "List[str]" = field(default_factory=list)


@dataclass(frozen=True)
class RejoinReport:
    """A rejoined domain's local recovery plus its reconciliation."""

    domain: str
    recovery: object
    federation: FederationRecovery


def scan_delegations(journal) -> "Dict[str, DelegationState]":
    """Fold a journal's delegation records into per-id states."""
    states: "Dict[str, DelegationState]" = {}
    for record in journal.records():
        if record.type not in _DELEGATION_TYPES:
            continue
        payload = record.payload
        delegation_id = str(payload.get("delegation_id", ""))
        state = states.setdefault(
            delegation_id, DelegationState(delegation_id=delegation_id))
        if record.type == DELEGATION_BEGIN:
            state.role = str(payload.get("role", ""))
            state.counterpart = str(payload.get("peer")
                                    or payload.get("home") or "")
            state.client = str(payload.get("client", ""))
            state.opened_at = record.time
        elif record.type == DELEGATION_ACCEPTED:
            state.sla_id = payload.get("sla_id")
        elif record.type == DELEGATION_CONFIRMED:
            state.confirmed = True
            if state.sla_id is None:
                state.sla_id = payload.get("sla_id")
        elif record.type == DELEGATION_CANCELLED:
            state.cancelled = True
            if state.sla_id is None:
                state.sla_id = payload.get("sla_id")
    return states


def reconcile_delegations(plane, domain) -> FederationRecovery:
    """Settle a rejoining domain's delegations (see module docs)."""
    journal = domain.testbed.journal
    if journal is None:
        return FederationRecovery()
    states = scan_delegations(journal)
    repository = domain.testbed.repository
    live_ids = {sla.sla_id for sla in repository.live()}
    linked = {state.sla_id for state in states.values()
              if state.sla_id is not None}
    cancelled_in = cancelled_out = restored = 0
    notes: "List[str]" = []
    for delegation_id in sorted(states):
        state = states[delegation_id]
        if state.role == "peer":
            done = _reconcile_incoming(plane, domain, state, live_ids,
                                       linked, notes)
            if done == "cancelled":
                cancelled_in += 1
            elif done == "restored":
                restored += 1
        elif state.role == "home" and state.in_flight:
            _cancel_outgoing(plane, domain, state, notes)
            cancelled_out += 1
    return FederationRecovery(cancelled_incoming=cancelled_in,
                              cancelled_outgoing=cancelled_out,
                              restored=restored, notes=notes)


def _reconcile_incoming(plane, domain, state: DelegationState,
                        live_ids, linked, notes: "List[str]") -> str:
    """Settle one peer-role delegation; returns what happened."""
    delegation_id = state.delegation_id
    testbed = domain.testbed
    sla_id = state.sla_id
    if sla_id is None and not state.cancelled:
        # The crash beat the delegation_accepted link: the admission
        # may still have committed. Adopt the oldest live SLA for the
        # recorded client that no delegation already owns.
        orphans = sorted(sla.sla_id for sla in testbed.repository.live()
                         if sla.client == state.client
                         and sla.sla_id not in linked)
        if orphans:
            sla_id = orphans[0]
            linked.add(sla_id)
            notes.append(f"{delegation_id}: adopted unlinked SLA "
                         f"{sla_id} for client {state.client}")
    if state.cancelled:
        # The cancel intent landed but the crash may have interrupted
        # the rollback itself; finish it.
        if sla_id in live_ids:
            testbed.broker.terminate_session(
                sla_id, cause="delegation-rollback",
                note=f"{delegation_id}: finishing interrupted rollback")
            notes.append(f"{delegation_id}: finished interrupted rollback "
                         f"of SLA {sla_id}")
            return "cancelled"
        return "noop"
    if state.confirmed:
        if sla_id is not None and sla_id in live_ids:
            domain.incoming[delegation_id] = IncomingDelegation(
                sla_id=sla_id, home=state.counterpart,
                opened_at=state.opened_at)
            domain.confirmed.add(delegation_id)
            return "restored"
        return "noop"
    # Half-delegated: the home never confirmed. By now it has timed
    # out and rerouted, so keeping the booking would double-admit.
    if sla_id is not None and sla_id in live_ids:
        domain.probe.append(
            DELEGATION_CANCELLED, role="peer",
            delegation_id=delegation_id, sla_id=sla_id,
            reason="half-delegated at crash")
        testbed.broker.terminate_session(
            sla_id, cause="delegation-rollback",
            note=f"{delegation_id}: home never confirmed")
        live_ids.discard(sla_id)
        domain.probe.decide("federation", "reconcile_rollback",
                            subject=f"delegation {delegation_id}",
                            sla_id=sla_id,
                            reason="half-delegated booking rolled back "
                                   "on rejoin")
        notes.append(f"{delegation_id}: rolled back half-delegated "
                     f"SLA {sla_id}")
        return "cancelled"
    domain.probe.append(
        DELEGATION_CANCELLED, role="peer", delegation_id=delegation_id,
        reason="no booking survived the crash")
    return "noop"


def _cancel_outgoing(plane, domain, state: DelegationState,
                     notes: "List[str]") -> None:
    """Cancel one home-role delegation left in flight by the crash."""
    delegation_id = state.delegation_id
    peer = state.counterpart
    domain.probe.append(
        DELEGATION_CANCELLED, role="home", delegation_id=delegation_id,
        peer=peer, reason="in flight when this broker crashed")
    notes.append(f"{delegation_id}: outgoing delegation to {peer} "
                 f"cancelled after crash")
    if peer not in plane.domains or plane.chaos.is_crashed(peer):
        return
    envelope = encode_cancel(f"fed:{domain.name}", f"fed:{peer}",
                             delegation_id)
    try:
        domain.caller.call(envelope)
    except BrokerCrash:
        plane._note_crash(peer, "died servicing a reconcile cancel")
    except (TransientMessageError, CircuitOpenError):
        # Best effort: the peer's confirm-timeout janitor (or its own
        # rejoin reconciliation) retires the booking without us.
        plane.health.observe_failure(domain.name, peer)


def federation_invariants(plane) -> "List[str]":
    """The sweep's oracle: every violated guarantee, or nothing.

    Covers each live domain's local PR-5 invariants plus the two
    federation-level ones — no delegation live in more than one
    domain, and no live booking whose home journal has disowned it.
    """
    problems: "List[str]" = []
    live = [name for name in plane.names
            if not plane.chaos.is_crashed(name)]
    for name in live:
        for problem in verify_recovered(plane.domains[name].testbed):
            problems.append(f"{name}: {problem}")
    owners: "Dict[str, List[str]]" = {}
    for name in live:
        domain = plane.domains[name]
        live_ids = {sla.sla_id for sla in domain.testbed.repository.live()}
        for delegation_id in sorted(domain.incoming):
            if domain.incoming[delegation_id].sla_id in live_ids:
                owners.setdefault(delegation_id, []).append(name)
    for delegation_id in sorted(owners):
        holders = owners[delegation_id]
        if len(holders) > 1:
            problems.append(f"double admission: delegation "
                            f"{delegation_id} live in {holders}")
    home_scans: "Dict[str, Dict[str, DelegationState]]" = {}
    for name in live:
        domain = plane.domains[name]
        live_ids = {sla.sla_id for sla in domain.testbed.repository.live()}
        for delegation_id in sorted(domain.incoming):
            entry = domain.incoming[delegation_id]
            if entry.sla_id not in live_ids:
                continue
            home = plane.domains.get(entry.home)
            if home is None or home.testbed.journal is None:
                continue
            if entry.home not in home_scans:
                home_scans[entry.home] = scan_delegations(
                    home.testbed.journal)
            state = home_scans[entry.home].get(delegation_id)
            if state is None:
                problems.append(
                    f"{name}: orphaned booking {delegation_id} — home "
                    f"{entry.home} never journaled it")
            elif state.cancelled and delegation_id in domain.confirmed:
                problems.append(
                    f"{name}: orphaned booking {delegation_id} — home "
                    f"{entry.home} cancelled it but it is live and "
                    f"confirmed here")
    return problems
