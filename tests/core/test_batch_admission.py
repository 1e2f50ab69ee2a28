"""Batched admission: byte-identical to sequential, crash-safe, fast.

``AQoSBroker.request_services`` amortizes the capacity rebalance and
the journal commit across a batch, but its *decisions* must be
indistinguishable from feeding the same requests one at a time through
``request_service``.  The differential property here drives random
mixed batches (fitting, oversized, networked) through both paths on
twin testbeds and compares everything an observer could see: the
accept/reject outcomes, the guaranteed holdings, the partition
snapshot, the journal-visible record stream (up to rebalance
coalescing — the one documented difference), and the post-crash
recovered state.

The crash sweep kills the broker at every write point *inside* a
group commit, in both torn-write modes, and checks the recovery
invariants — the acceptance criterion's "crash-point run through a
group-commit boundary".
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broker import ServiceRequest
from repro.core.testbed import build_testbed
from repro.errors import BrokerCrash
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.crashpoints import (CRASH_MODES, CrashingJournalStore,
                                        crash, verify_recovered)
from repro.recovery.journal import CAPACITY_REBALANCED, DeferredValue
from repro.recovery.recover import install_journal, recover
from repro.sla.document import NetworkDemand
from repro.units import parse_bound

from .partition_oracle import count_entitled_reads


def _request(index: int, cpu: int, *, networked: bool = False,
             start: float = 0.0, end: float = 100.0) -> ServiceRequest:
    network = None
    if networked:
        network = NetworkDemand(
            source_ip="135.200.50.101", dest_ip="192.200.168.33",
            bandwidth_mbps=10.0,
            packet_loss_bound=parse_bound("LessThan 10%"))
    return ServiceRequest(
        client=f"user{index}", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=QoSSpecification.from_iterable([
            exact_parameter(Dimension.CPU, cpu),
            exact_parameter(Dimension.MEMORY_MB, 64),
        ]),
        start=start, end=end, network=network)


#: Per-request shape: (cpu, networked).  cpu=50 exceeds the default
#: testbed's Cg=15, so those requests are rejected — partial-rejection
#: batches are the interesting case for fallback semantics.
_shapes = st.tuples(st.sampled_from([1, 2, 3, 8, 50]), st.booleans())


def _journaled_testbed():
    testbed = build_testbed()
    install_journal(testbed)
    return testbed


def _visible_records(testbed):
    """(type, payload) stream, rebalance records excluded.

    Batch admission coalesces the per-admission rebalance records into
    one per batch; every other record must match the sequential run
    exactly, in order.
    """
    def concrete(payload):
        return {key: (value.resolve()
                      if isinstance(value, DeferredValue) else value)
                for key, value in payload.items()}

    return [(record.type, concrete(record.payload))
            for record in testbed.journal.store._records
            if record.type != CAPACITY_REBALANCED]


def _holdings(testbed):
    return [(h.user, h.committed, h.demand, h.served)
            for h in testbed.partition.guaranteed_holdings()]


class TestBatchSequentialEquivalence:
    @given(shapes=st.lists(_shapes, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_batch_is_byte_identical_to_sequential(self, shapes):
        batch_bed = _journaled_testbed()
        seq_bed = _journaled_testbed()
        requests = [_request(i, cpu, networked=networked)
                    for i, (cpu, networked) in enumerate(shapes)]

        batch_out = batch_bed.broker.request_services(requests)
        seq_out = [seq_bed.broker.request_service(r) for r in requests]

        assert ([(o.accepted, o.reason) for o in batch_out]
                == [(o.accepted, o.reason) for o in seq_out])
        assert _holdings(batch_bed) == _holdings(seq_bed)
        assert (batch_bed.partition.snapshot()
                == seq_bed.partition.snapshot())
        assert _visible_records(batch_bed) == _visible_records(seq_bed)
        assert (batch_bed.broker.repository.export_xml()
                == seq_bed.broker.repository.export_xml())

        # Journal-visible state survives a crash identically: recovery
        # replays only durable records, so the recovered repositories
        # and partitions must also agree.
        for testbed in (batch_bed, seq_bed):
            crash(testbed)
            recover(testbed)
        assert (batch_bed.broker.repository.export_xml()
                == seq_bed.broker.repository.export_xml())
        assert _holdings(batch_bed) == _holdings(seq_bed)

    def test_batch_writes_one_rebalance_record(self):
        batch_bed = _journaled_testbed()
        seq_bed = _journaled_testbed()
        requests = [_request(i, 2) for i in range(5)]
        batch_bed.broker.request_services(requests)
        for request in requests:
            seq_bed.broker.request_service(request)

        def rebalances(testbed):
            return sum(1 for r in testbed.journal.store._records
                       if r.type == CAPACITY_REBALANCED)

        assert rebalances(batch_bed) == 1
        assert rebalances(seq_bed) == len(requests)

    def test_lsns_stay_contiguous_across_group_commits(self):
        testbed = _journaled_testbed()
        testbed.broker.request_services([_request(i, 1) for i in range(4)])
        testbed.broker.request_services([_request(9, 50)])  # rejected
        testbed.broker.request_services([_request(5, 1)])
        lsns = [record.lsn for record in testbed.journal.store._records]
        assert lsns == list(range(1, len(lsns) + 1))


class TestGroupCommitCrashPoints:
    def _episode_write_points(self):
        """How many byte appends one reference batch produces."""
        testbed = build_testbed()
        counter = CrashingJournalStore(crash_lsn=0)
        install_journal(testbed, counter)
        self._run_episode(testbed)
        return counter.appends

    def _run_episode(self, testbed):
        """Two group commits with a partial rejection in the second."""
        broker = testbed.broker
        broker.request_services([_request(i, 2, networked=(i % 2 == 0))
                                 for i in range(3)])
        broker.request_services([_request(3, 2), _request(4, 50),
                                 _request(5, 2)])

    def test_crash_at_every_point_inside_the_group_commit(self):
        """Kill the broker at every record of every group, both modes.

        Group records only reach the store inside ``commit_group``, so
        every one of these crash points tears a group commit — some
        mid-group, leaving a durable prefix of the batch.  Recovery
        must land on an invariant-clean state from any of them.
        """
        write_points = self._episode_write_points()
        assert write_points >= 8, "episode too small to sweep"
        crashes = 0
        for mode in CRASH_MODES:
            for crash_lsn in range(1, write_points + 1):
                testbed = build_testbed()
                store = CrashingJournalStore(crash_lsn=crash_lsn, mode=mode)
                install_journal(testbed, store)
                try:
                    self._run_episode(testbed)
                except BrokerCrash:
                    crashes += 1
                    crash(testbed)
                recover(testbed)
                problems = verify_recovered(testbed)
                assert problems == [], (
                    f"crash at write point {crash_lsn} ({mode}): "
                    + "; ".join(problems))
                # The recovered broker keeps admitting — in batches.
                outcomes = testbed.broker.request_services(
                    [_request(90, 1), _request(91, 1)])
                assert [o.accepted for o in outcomes] == [True, True]
        assert crashes == 2 * write_points


class TestAdmissionWork:
    def test_sequential_admission_work_does_not_grow_with_live_holdings(
            self, monkeypatch):
        """Tier-1 guard, not a benchmark (that is
        ``benchmarks/bench_throughput.py`` and the layer ledger): a
        plain sequential admission re-draws the holding it touched and
        no other, so the partition does the same work per admission at
        1 000 live holdings as at 4 000 — counted, not timed, so a
        noisy box cannot flake it. Batching no longer buys speed; what
        it still owes is one rebalance record per batch."""
        testbed = build_testbed(
            total_cpu=9000, guaranteed_cpu=6000, adaptive_cpu=1800,
            best_effort_cpu=1200, machine_nodes=18000,
            memory_mb=1_000_000.0, disk_mb=2_000_000.0)
        install_journal(testbed)
        broker = testbed.broker
        reads = count_entitled_reads(monkeypatch)
        admitted = 0

        def preload(live):
            nonlocal admitted
            while admitted < live:
                outcomes = broker.request_services(
                    [_request(admitted + i, 1) for i in range(250)])
                assert all(o.accepted for o in outcomes)
                admitted += 250

        def reads_per_sequential_admission():
            nonlocal admitted
            before = reads[0]
            for _ in range(8):
                assert broker.request_service(
                    _request(admitted, 1)).accepted
                admitted += 1
            return (reads[0] - before) / 8

        preload(1000)
        at_1k = reads_per_sequential_admission()
        preload(4000)
        at_4k = reads_per_sequential_admission()
        assert at_1k == at_4k
        assert at_4k < 10

        def rebalances():
            return sum(1 for r in testbed.journal.store._records
                       if r.type == CAPACITY_REBALANCED)

        before = rebalances()
        outcomes = broker.request_services(
            [_request(admitted + i, 1) for i in range(64)])
        assert all(o.accepted for o in outcomes)
        assert rebalances() == before + 1
