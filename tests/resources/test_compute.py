"""Tests for the compute RM (repro.resources.compute)."""

from __future__ import annotations

import pytest

from repro.errors import ResourceError
from repro.gara.reservation import ReservationState
from repro.qos.vector import ResourceVector
from repro.resources.compute import ComputeResourceManager, JobState
from repro.resources.machine import Machine
from repro.rsl.builder import reservation_rsl


@pytest.fixture
def rm(sim):
    machine = Machine("m", 32, grid_nodes=26, memory_mb=10240,
                      disk_mb=50000)
    return ComputeResourceManager(sim, machine)


def reserve(rm, cpu=10, end=100.0):
    handle = rm.gara.reservation_create(
        reservation_rsl(ResourceVector(cpu=cpu, memory_mb=1024), 0.0, end))
    rm.gara.reservation_commit(handle)
    return handle


class TestAvailability:
    def test_available_at_matches_window_query(self, rm):
        reserve(rm, cpu=10, end=100.0)
        assert rm.available_at(0.0).cpu == 16
        assert rm.available_at(0.0) == rm.available(0.0, 0.0 + 1e-9)
        assert rm.available_at(100.0).cpu == 26


class TestLaunch:
    def test_launch_binds_pid(self, rm):
        handle = reserve(rm)
        job = rm.launch("simulation", handle)
        reservation = rm.gara.reservation_status(handle)
        assert reservation.state is ReservationState.BOUND
        assert reservation.bound_pid == job.pid

    def test_job_completes_after_duration(self, rm, sim):
        handle = reserve(rm)
        job = rm.launch("simulation", handle, duration=50.0)
        sim.run(until=51.0)
        assert rm.job(job.job_id).state is JobState.COMPLETED
        # Completion cancels the reservation and frees capacity.
        assert rm.available(60, 100).cpu == 26

    def test_completion_listener_fires(self, rm, sim):
        ended = []
        rm.subscribe_job_end(lambda job: ended.append(job.state))
        handle = reserve(rm)
        rm.launch("svc", handle, duration=10.0)
        sim.run(until=11.0)
        assert ended == [JobState.COMPLETED]

    def test_kill_frees_resources(self, rm, sim):
        handle = reserve(rm)
        job = rm.launch("svc", handle)
        rm.kill(job.job_id)
        assert rm.job(job.job_id).state is JobState.KILLED
        assert rm.available(0, 100).cpu == 26

    def test_kill_unknown_job(self, rm):
        with pytest.raises(ResourceError):
            rm.kill(424242)

    def test_dsrt_contract_opened_and_released(self, rm, sim):
        handle = reserve(rm)
        job = rm.launch("svc", handle, duration=10.0, dsrt_fraction=0.5)
        assert rm.dsrt.contract(job.pid).reserved_fraction == 0.5
        sim.run(until=11.0)
        with pytest.raises(ResourceError):
            rm.dsrt.contract(job.pid)

    def test_running_jobs(self, rm, sim):
        first = rm.launch("a", reserve(rm, cpu=5), duration=10.0)
        second = rm.launch("b", reserve(rm, cpu=5), duration=99.0)
        sim.run(until=20.0)
        running = rm.running_jobs()
        assert [job.job_id for job in running] == [second.job_id]
        assert first.finished_at == 10.0


class TestCapacityTracking:
    def test_node_failure_shrinks_slot_table(self, rm):
        rm.machine.fail_nodes(3)
        assert rm.capacity().cpu == 23

    def test_capacity_listener_gets_delta(self, rm):
        deltas = []
        rm.subscribe_capacity(deltas.append)
        rm.machine.fail_nodes(3)
        rm.machine.repair_nodes()
        assert deltas == [-3, 3]

    def test_utilization(self, rm):
        reserve(rm, cpu=13)
        assert rm.utilization() == pytest.approx(0.5)


class TestContractResize:
    def test_resize_job_contract_tracks_booking(self, rm):
        handle = reserve(rm, cpu=10)
        job = rm.launch("svc", handle, dsrt_fraction=0.8)
        assert rm.dsrt.reserved_total() == pytest.approx(8.0)
        rm.resize_job_contract(job, 4.0)
        assert rm.dsrt.contract(job.pid).nodes == 4
        assert rm.dsrt.reserved_total() == pytest.approx(3.2)

    def test_resize_without_contract_is_a_noop(self, rm):
        handle = reserve(rm, cpu=4)
        job = rm.launch("svc", handle)  # no dsrt_fraction
        rm.resize_job_contract(job, 2.0)  # must not raise
        assert rm.dsrt.reserved_total() == 0.0

    def test_resize_after_completion_is_a_noop(self, rm, sim):
        handle = reserve(rm, cpu=4)
        job = rm.launch("svc", handle, duration=5.0, dsrt_fraction=0.8)
        sim.run(until=10.0)
        assert job.state is JobState.COMPLETED
        rm.resize_job_contract(job, 2.0)  # contract already released
        assert rm.dsrt.reserved_total() == 0.0

    def test_squeeze_then_launch_no_longer_strands_capacity(self, rm):
        """The cross-layer drift the atlas exposed: a squeezed booking
        must free DSRT capacity, or later launches die on a phantom
        CapacityError while the slot table shows room."""
        first = reserve(rm, cpu=24)
        job = rm.launch("svc", first, dsrt_fraction=0.8)
        assert rm.dsrt.free_capacity() == pytest.approx(26.0 - 19.2)
        # The broker squeeze: booking 24 -> 4, contract follows.
        rm.gara.reservation_modify(
            first, ResourceVector(cpu=4, memory_mb=1024), force=True)
        rm.resize_job_contract(job, 4.0)
        second = reserve(rm, cpu=12)
        other = rm.launch("svc2", second, dsrt_fraction=0.8)
        assert other.state is JobState.RUNNING
        assert rm.dsrt.reserved_total() == pytest.approx(3.2 + 9.6)
