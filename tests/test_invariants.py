"""Every testbed invariant catches its own corruption (repro.invariants).

One row per fact (two for ``ownership``: a flow and a reservation): a
clean, small testbed is corrupted directly in the one way that fact
forbids, and :func:`check` must name that fact. Three more rows run a
driver that missed a fact before it called :func:`check` — the
atlas's ``check_invariants``, the crash sweep's check of a recovered
episode, and ``federation_invariants`` — against a corruption only
that fact sees. Every clean scene reports nothing.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from repro.core.testbed import build_testbed
from repro.experiments.quickstart import quickstart_request
from repro.federation.plane import FederatedControlPlane
from repro.federation.recovery import federation_invariants
from repro.invariants import FACTS, check
from repro.qos.vector import ResourceVector
from repro.recovery.crashpoints import run_episode
from repro.recovery.journal import CONFIRM, JournalRecord, encode_record
from repro.recovery.recover import install_journal
from repro.rsl.builder import reservation_rsl
from repro.workloads import check_invariants, replay_scenario

from .federation.conftest import guaranteed_request


def session():
    """One guaranteed session with a network leg, journaled, at t=10."""
    testbed = build_testbed()
    install_journal(testbed)
    assert testbed.broker.request_service(quickstart_request()).accepted
    testbed.sim.run(until=10.0)
    return testbed, testbed


def replay():
    result = replay_scenario("rack_failure_cascade", seed=2003)
    return result, result.testbed


def recovered_episode():
    """A crash-sweep cell, with the recovered broker serving again."""
    result = run_episode(crash_lsn=5, mode="before")
    assert result.crashed
    result.testbed.broker.request_best_effort("late", 2.0, duration=10.0)
    return result.testbed, result.testbed


def plane():
    federation = FederatedControlPlane(domains=2, seed=0)
    assert federation.request_service(guaranteed_request("c1", 4),
                                      home="d1").accepted
    return federation, federation.domains["d1"].testbed


# ----------------------------------------------------------------------
# Corruptions, each aimed at one fact
# ----------------------------------------------------------------------

def invent_capacity(testbed):
    partition = testbed.partition
    sizes = partition.effective_sizes()
    partition.effective_sizes = lambda: (sizes[0] + 1.0, *sizes[1:])


def overcommit_cg(testbed):
    testbed.partition._committed = testbed.partition.cg + 1.0


def lose_every_node_unseen(testbed):
    # The machine is gone but no pass ran: the pools still serve.
    testbed.partition._failed = testbed.partition.total


def skew_the_index(testbed):
    table = testbed.compute_rm.slot_table
    table._cpu[table._times.index(0.0)] += 1.0


def shrink_the_table(testbed):
    testbed.compute_rm.slot_table.set_capacity(ResourceVector.zero())


def leak_a_slot(testbed):
    far = testbed.sim.now + 1_000.0
    testbed.compute_rm.slot_table.reserve(ResourceVector(cpu=1.0), far,
                                          far + 10.0)


def leak_a_flow(testbed):
    testbed.nrm.allocate("siteB", "siteA", 1.0, 0.0, 50.0)


def leak_a_reservation(testbed):
    gara = testbed.compute_rm.gara
    handle = gara.reservation_create(reservation_rsl(
        ResourceVector(cpu=1.0), 0.0, 50.0, service_name="leak"))
    gara.reservation_commit(handle)


def drop_a_session(testbed):
    testbed.broker.allocation.close_session(
        testbed.repository.live()[0].sla_id)


def hold_for_nobody(testbed):
    testbed.partition.admit_guaranteed("sla-99999", 1.0)


def rewind_the_journal(testbed):
    testbed.journal.store.append(encode_record(JournalRecord(
        lsn=1, time=0.0, type=CONFIRM, payload={})))


class Row(NamedTuple):
    scene: Callable
    corrupt: Callable
    driver: Callable
    fact: str


ROWS = {
    "conservation": Row(session, invent_capacity, check, "conservation"),
    "commitment": Row(session, overcommit_cg, check, "commitment"),
    "served": Row(session, lose_every_node_unseen, check, "served"),
    "slot-index": Row(session, skew_the_index, check, "slot_index"),
    "slot-overcommit": Row(session, shrink_the_table, check,
                           "slot_overcommit"),
    "slot-entries": Row(session, leak_a_slot, check, "slot_entries"),
    "leaked-flow": Row(session, leak_a_flow, check, "ownership"),
    "leaked-reservation": Row(session, leak_a_reservation, check,
                              "ownership"),
    "sla-atomicity": Row(session, drop_a_session, check, "sla_atomicity"),
    "holding-owner": Row(session, hold_for_nobody, check, "holding_owner"),
    "journal-lsn": Row(session, rewind_the_journal, check, "journal_lsn"),
    # Facts a driver did not check before it called check().
    "replay-leaked-slot": Row(replay, leak_a_slot, check_invariants,
                              "slot_entries"),
    "crash-sweep-served": Row(recovered_episode, lose_every_node_unseen,
                              check, "served"),
    "federation-overcommit": Row(plane, shrink_the_table,
                                 federation_invariants, "slot_overcommit"),
}


def test_every_fact_has_a_row():
    assert {row.fact for row in ROWS.values()} \
        == {fact.__name__ for fact in FACTS}


@pytest.mark.parametrize("scene", [session, replay, recovered_episode,
                                   plane])
def test_a_clean_scene_reports_nothing(scene):
    driver = next(row.driver for row in ROWS.values() if row.scene is scene)
    subject, _testbed = scene()
    assert driver(subject) == []


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_driver_names_the_corrupted_fact(name):
    row = ROWS[name]
    subject, testbed = row.scene()
    row.corrupt(testbed)
    problems = row.driver(subject)
    assert any(row.fact in problem.split(": ") for problem in problems), \
        problems
