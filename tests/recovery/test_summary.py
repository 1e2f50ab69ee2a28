"""The cold-restart summary ``repro recover`` prints
(repro.recovery.recover.summarize_journal)."""

from __future__ import annotations

from repro.recovery.journal import (
    BEST_EFFORT_SET,
    CANCEL,
    COMPUTE_BOOKED,
    CONFIRM,
    NETWORK_BOOKED,
    RESERVE_BEGIN,
    RESERVE_END,
    FileJournalStore,
    Journal,
)
from repro.recovery.recover import summarize_journal


def write_journal(path):
    """Four composites, one per disposition, and two best-effort
    demands of which one is withdrawn."""
    journal = Journal(FileJournalStore(path))
    for sla_id in (1001, 1002, 1003, 1004):
        journal.append(RESERVE_BEGIN, sla_id=sla_id)
        journal.append(COMPUTE_BOOKED, sla_id=sla_id, handle=sla_id - 1000)
    journal.append(NETWORK_BOOKED, sla_id=1001, flows=[7, 8])
    for sla_id in (1001, 1003, 1004):
        journal.append(RESERVE_END, sla_id=sla_id)
    journal.append(CONFIRM, sla_id=1001)
    journal.append(CANCEL, sla_id=1003)
    journal.append(BEST_EFFORT_SET, user="be-1", demand=2.5)
    journal.append(BEST_EFFORT_SET, user="be-2", demand=1.0)
    journal.append(BEST_EFFORT_SET, user="be-2", demand=0.0)
    return journal


def test_every_composite_disposition_is_named(tmp_path):
    path = tmp_path / "journal.bin"
    write_journal(path)
    lines = summarize_journal(str(path)).splitlines()
    assert ("  composite for SLA 1001: confirmed (handle=1, flows=[7, 8])"
            in lines)
    assert ("  composite for SLA 1002: ORPHANED (reserve never completed) "
            "(handle=2, flows=[])" in lines)
    assert "  composite for SLA 1003: cancelled (handle=3, flows=[])" \
        in lines
    assert "  composite for SLA 1004: unconfirmed (handle=4, flows=[])" \
        in lines
    assert "  best-effort 'be-1': 2.5 node(s)" in lines
    assert not any("be-2" in line for line in lines)


def test_the_header_counts_records_by_type(tmp_path):
    path = tmp_path / "journal.bin"
    journal = write_journal(path)
    lines = summarize_journal(str(path)).splitlines()
    assert lines[0] == (f"journal {path}: {journal.last_lsn} durable "
                        f"record(s)")
    assert journal.last_lsn == 17
    counts = dict(line.strip().split(": ") for line in lines[2:9])
    assert counts == {BEST_EFFORT_SET: "3", CANCEL: "1",
                      COMPUTE_BOOKED: "4", CONFIRM: "1",
                      NETWORK_BOOKED: "1", RESERVE_BEGIN: "4",
                      RESERVE_END: "3"}
    assert list(counts) == sorted(counts)
    assert "replayed state (17 record(s) folded)" in lines


def test_an_empty_journal_summarizes_to_no_state(tmp_path):
    path = tmp_path / "missing.bin"
    lines = summarize_journal(str(path)).splitlines()
    assert lines[0] == f"journal {path}: 0 durable record(s)"
    assert lines[-1] == "-" * 70
    assert "replayed state (0 record(s) folded)" in lines
