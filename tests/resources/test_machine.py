"""Tests for the failable machine model (repro.resources.machine)."""

from __future__ import annotations

import pytest

from repro.errors import ResourceError
from repro.resources.machine import Machine, NodeState


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


class TestFailureBookkeeping:
    """The down-set must agree with the node states it summarises."""

    @staticmethod
    def _down_ids(machine):
        return [node_id for node_id, node in machine._nodes.items()
                if node.state is NodeState.DOWN]

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
