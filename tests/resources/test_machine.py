"""Tests for the failable machine model (repro.resources.machine)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testbed import build_testbed
from repro.errors import ResourceError
from repro.resources.machine import Machine

from .machine_reference import ReferenceMachine


@pytest.fixture
def sgi():
    """The Section 5.6 machine: 64 nodes, 26 exposed to the Grid."""
    return Machine("sgi-siteA", 64, grid_nodes=26, memory_mb=10240)


class TestConstruction:
    def test_paper_machine(self, sgi):
        assert sgi.total_nodes == 64
        assert sgi.grid_nodes == 26
        assert sgi.available_grid_nodes() == 26
        assert sgi.grid_capacity().cpu == 26
        assert sgi.grid_capacity().memory_mb == 10240

    def test_grid_nodes_default_to_all(self):
        machine = Machine("m", 8)
        assert machine.grid_nodes == 8

    def test_zero_nodes_rejected(self):
        with pytest.raises(ResourceError):
            Machine("m", 0)

    def test_grid_nodes_exceeding_total_rejected(self):
        with pytest.raises(ResourceError):
            Machine("m", 8, grid_nodes=10)


class TestFailures:
    def test_three_node_failure_from_example(self, sgi):
        failed = sgi.fail_nodes(3)
        assert len(failed) == 3
        assert sgi.available_grid_nodes() == 23
        assert sgi.up_nodes() == 61

    def test_repair_restores(self, sgi):
        ids = sgi.fail_nodes(3)
        assert sgi.repair_nodes(ids) == 3
        assert sgi.available_grid_nodes() == 26

    def test_repair_all(self, sgi):
        sgi.fail_nodes(5)
        assert sgi.repair_nodes() == 5

    def test_cannot_fail_more_than_up(self):
        machine = Machine("m", 2)
        machine.fail_nodes(2)
        with pytest.raises(ResourceError):
            machine.fail_nodes(1)

    def test_failures_beyond_local_partition_hit_grid(self):
        # 64 total, 26 exposed: the first 38 failures are absorbed by
        # the model only insofar as the grid partition shrinks first.
        machine = Machine("m", 64, grid_nodes=26)
        machine.fail_nodes(30)
        assert machine.available_grid_nodes() == 0


class TestListeners:
    def test_failure_notifies_with_negative_delta(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        sgi.fail_nodes(3)
        sgi.repair_nodes()
        assert deltas == [-3, 3]

    def test_repair_with_nothing_down_is_silent(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        assert sgi.repair_nodes() == 0
        assert deltas == []


class TestNegativeCount:
    def test_negative_count_is_refused(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        sgi.fail_nodes(3)
        with pytest.raises(ResourceError):
            sgi.fail_nodes(-2)
        assert sgi.up_nodes() == 61
        assert deltas == [-3]

    def test_negative_count_repairs_nothing_in_the_testbed(self):
        # A "failure" of -2 nodes used to take nothing down yet notify
        # +2, so the partition and slot table "repaired" 2 units.
        testbed = build_testbed()
        testbed.machine.fail_nodes(3)
        with pytest.raises(ResourceError):
            testbed.machine.fail_nodes(-2)
        assert testbed.machine.up_nodes() == 61
        assert testbed.compute_rm.capacity().cpu == 23
        assert testbed.partition.failed == 3.0

    def test_zero_count_still_notifies_zero(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        assert sgi.fail_nodes(0) == []
        assert deltas == [0]


class TestFailureBookkeeping:
    """The down-set is the machine's only record of node state."""

    @staticmethod
    def _down_ids(machine):
        return sorted(machine._down)

    def test_victims_are_the_lowest_up_ids(self, sgi):
        assert sgi.fail_nodes(3) == [0, 1, 2]
        assert sgi.repair_nodes([1]) == 1
        # Node 1 is up again, so it is the next victim, then 3 and 4.
        assert sgi.fail_nodes(3) == [1, 3, 4]
        assert self._down_ids(sgi) == [0, 1, 2, 3, 4]
        assert sgi.up_nodes() == 59

    def test_repeated_fail_and_repair_with_explicit_ids(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        for _ in range(3):
            ids = sgi.fail_nodes(4)
            assert ids == [0, 1, 2, 3]
            assert sgi.repair_nodes(ids[:2]) == 2
            assert self._down_ids(sgi) == [2, 3]
            assert sgi.repair_nodes(ids[2:]) == 2
            assert sgi.up_nodes() == 64
        assert deltas == [-4, 2, 2] * 3

    def test_ids_already_up_are_ignored(self, sgi):
        deltas = []
        sgi.subscribe(lambda machine, delta: deltas.append(delta))
        sgi.fail_nodes(2)
        assert sgi.repair_nodes([1, 5, 6]) == 1
        assert sgi.repair_nodes([1, 5, 6]) == 0
        assert self._down_ids(sgi) == [0]
        assert sgi.up_nodes() == 63
        assert deltas == [-2, 1]

    def test_duplicate_and_unknown_ids_count_once(self, sgi):
        sgi.fail_nodes(3)
        assert sgi.repair_nodes([2, 2, 0, 2, 999]) == 2
        assert self._down_ids(sgi) == [1]
        assert sgi.available_grid_nodes() == 25


# One step: ("fail", count), ("repair", ids) or ("repair_all", None).
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("repair"),
              st.lists(st.integers(min_value=-2, max_value=20),
                       max_size=6)),
    st.tuples(st.just("repair_all"), st.none())), max_size=30)


class TestAgainstTheNodeWalkingMachine:
    """The down-set machine against the one that kept a node object per
    processor (``machine_reference.py``): same ids, same deltas, same
    counts after every step."""

    @settings(max_examples=150, deadline=None)
    @given(total=st.integers(min_value=1, max_value=16),
           grid=st.integers(min_value=1, max_value=16), steps=_STEPS)
    def test_generated_fail_and_repair_sequences(self, total, grid, steps):
        grid = min(grid, total)
        real = Machine("m", total, grid_nodes=grid)
        reference = ReferenceMachine("m", total, grid_nodes=grid)
        deltas, expected = [], []
        real.subscribe(lambda machine, delta: deltas.append(delta))
        reference.subscribe(lambda machine, delta: expected.append(delta))
        for step, argument in steps:
            if step == "fail":
                if argument > reference.up_nodes():
                    with pytest.raises(ResourceError):
                        real.fail_nodes(argument)
                    continue
                assert real.fail_nodes(argument) == \
                    reference.fail_nodes(argument)
            else:
                ids = argument if step == "repair" else None
                assert real.repair_nodes(ids) == reference.repair_nodes(ids)
            assert deltas == expected
            assert sorted(real._down) == reference.down_ids()
            assert real.up_nodes() == reference.up_nodes()
            assert real.available_grid_nodes() == \
                reference.available_grid_nodes()
