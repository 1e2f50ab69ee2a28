"""The cold-restart summary ``repro recover`` prints
(repro.recovery.recover.summarize_journal)."""

from __future__ import annotations

from repro.core.reservation_system import booking_flow_ids
from repro.core.testbed import build_testbed
from repro.recovery.journal import (
    BEST_EFFORT_SET,
    CAPACITY_REBALANCED,
    SLA_SAVED,
    FileJournalStore,
)
from repro.recovery.recover import install_journal, summarize_journal

from ..chaos.conftest import guaranteed_request


def write_journal(path):
    """Three guaranteed admissions — one with a network leg, one closed
    again — and two best-effort demands of which one is withdrawn.

    Returns the journal and the legs each live SLA holds."""
    testbed = build_testbed()
    journal = install_journal(testbed, FileJournalStore(path))
    broker = testbed.broker
    outcomes = [broker.request_service(guaranteed_request(
        client, cpu=2, with_network=network))
        for client, network in (("user1", True), ("user2", False),
                                ("user3", False))]
    assert all(outcome.accepted for outcome in outcomes)
    broker.terminate_session(outcomes[1].sla.sla_id, cause="client-request")
    journal.append(BEST_EFFORT_SET, user="be-1", demand=2.5)
    journal.append(BEST_EFFORT_SET, user="be-2", demand=1.0)
    journal.append(BEST_EFFORT_SET, user="be-2", demand=0.0)
    legs = {}
    for resources in broker.allocation.open_sessions():
        composite = resources.reservation
        legs[resources.sla_id] = (composite.compute_handle.value,
                                  booking_flow_ids(composite.network_booking))
    return journal, legs


def test_every_live_sla_is_named_with_its_legs(tmp_path):
    path = tmp_path / "journal.bin"
    _, legs = write_journal(path)
    lines = summarize_journal(str(path)).splitlines()
    assert sorted(legs) == [1000, 1002]
    assert len(legs[1000][1]) == 1 and legs[1002][1] == []
    for sla_id, (handle, flows) in legs.items():
        assert (f"  legs of SLA {sla_id}: handle={handle}, flows={flows}"
                in lines)
    # The closed SLA keeps its status line and names no legs.
    assert "  SLA 1001 ('user2'): terminated" in lines
    assert not any(line.startswith("  legs of SLA 1001") for line in lines)
    assert "  best-effort 'be-1': 2.5 node(s)" in lines
    assert not any("be-2" in line for line in lines)


def test_the_header_counts_records_by_type(tmp_path):
    path = tmp_path / "journal.bin"
    journal, _ = write_journal(path)
    lines = summarize_journal(str(path)).splitlines()
    assert lines[0] == (f"journal {path}: {journal.last_lsn} durable "
                        f"record(s)")
    # Three establishments, three activations and one termination;
    # four partition passes; three best-effort writes.
    assert journal.last_lsn == 14
    counts = dict(line.strip().split(": ") for line in lines[2:5])
    assert counts == {BEST_EFFORT_SET: "3", CAPACITY_REBALANCED: "4",
                      SLA_SAVED: "7"}
    assert list(counts) == sorted(counts)
    assert "replayed state (14 record(s) folded)" in lines


def test_an_empty_journal_summarizes_to_no_state(tmp_path):
    path = tmp_path / "missing.bin"
    lines = summarize_journal(str(path)).splitlines()
    assert lines[0] == f"journal {path}: 0 durable record(s)"
    assert lines[-1] == "-" * 70
    assert "replayed state (0 record(s) folded)" in lines
