"""Broker crash mid cross-domain delegation (satellite scenario).

The window under test is the delegation protocol's most dangerous:
the peer has journaled ``delegation_accepted`` (the bid was accepted
and a booking committed) but the home's confirm has not landed. Crash
the peer exactly there and the federation must (a) reroute the request
to a survivor at the home side, and (b) roll the half-delegated
booking back when the peer rejoins — one admission total, capacity
conserved, nothing orphaned.
"""

from __future__ import annotations

import pytest

from repro.federation.recovery import scan_delegations
from repro.recovery.journal import DELEGATION_ACCEPTED, DELEGATION_CANCELLED

from .conftest import run_delegation_episode


def accepted_lsn_in_clean_episode(domain: str = "d2") -> int:
    """The LSN of the domain's first ``delegation_accepted`` write in
    an unperturbed run of the scripted episode."""
    clean = run_delegation_episode(seed=0)
    journal = clean.plane.domains[domain].testbed.journal
    assert journal is not None
    records = [record for record in journal.records()
               if record.type == DELEGATION_ACCEPTED]
    assert records, "the clean episode never delegated to d2"
    return records[0].lsn


@pytest.fixture(scope="module")
def episode():
    """The episode with d2 crashed right after its ``accepted`` write
    (so: after the bid was taken, before the home's confirm)."""
    return run_delegation_episode(
        crash_domain="d2", crash_lsn=accepted_lsn_in_clean_episode("d2"),
        mode="after", seed=0)


class TestCrashAfterAcceptBeforeConfirm:
    def test_the_crash_fired_mid_delegation(self, episode):
        assert episode.crashed == ["d2"]
        states = scan_delegations(
            episode.plane.domains["d2"].testbed.journal)
        half = [state for state in states.values()
                if state.role == "peer" and state.sla_id is not None]
        assert half, "d2 never reached the accepted-but-unconfirmed state"
        assert all(not state.confirmed for state in half)

    def test_home_rerouted_to_a_survivor(self, episode):
        outcome = next(o for o in episode.outcomes
                       if o.request.client == "fed-big-1")
        assert outcome.accepted
        assert outcome.domain == "d3"
        assert "d2" in outcome.rerouted
        assert episode.plane.stats["rerouted"] >= 1

    def test_home_journal_disowns_the_abandoned_delegation(self, episode):
        journal = episode.plane.domains["d1"].testbed.journal
        cancelled = [record for record in journal.records()
                     if record.type == DELEGATION_CANCELLED
                     and record.payload.get("role") == "home"
                     and record.payload.get("peer") == "d2"]
        assert cancelled

    def test_rejoin_rolls_the_half_delegated_booking_back(self, episode):
        assert episode.plane.stats["reconciled_cancellations"] >= 1
        states = scan_delegations(
            episode.plane.domains["d2"].testbed.journal)
        half = [state for state in states.values()
                if state.role == "peer" and not state.confirmed]
        assert half and all(state.cancelled for state in half)

    def test_no_double_admission(self, episode):
        # The rerouted client holds at most one live SLA federation-wide
        # (zero once the session naturally completes before the horizon).
        live_domains = [
            name for name in episode.plane.names
            for sla in episode.plane.domains[name].testbed
                                                  .repository.live()
            if sla.client == "fed-big-1"]
        assert len(live_domains) <= 1
        accepted = [o for o in episode.outcomes
                    if o.request.client == "fed-big-1" and o.accepted]
        assert len(accepted) == 1

    def test_conservation_and_invariants(self, episode):
        assert episode.problems == []
        assert episode.ok
