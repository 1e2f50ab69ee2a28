"""The §5.3 greedy held to its kept reference on multi-resource upgrades.

Every instance the rest of the suite builds upgrades along one
dimension (CPU) with revenue rising strictly per level, and there the
heuristic's scarcity weighting is invisible: costing extra demand
without regard to current use, costing it unweighted, or accepting
upgrades that earn nothing all give the same answers. The instances
here consume CPU, memory and bandwidth at once, in uneven steps that
include zero (a level that costs nothing more, or earns nothing more),
under budgets that bind on either dimension or on none, and the
production pass must return exactly what
:mod:`tests.core.optimizer_reference` returns: the same assignment,
revenue, ``used`` and ``explored``, at every budget of a grid per
instance. Two hand-built witnesses are small instances on which
those rewrites answer differently.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import QualityCandidate, greedy_optimize
from repro.qos.parameters import Dimension
from repro.qos.specification import QoSSpecification
from repro.qos.vector import ResourceVector

from . import optimizer_reference

#: The dimensions an upgrade may consume, in instance order.
_CONSUMED = (Dimension.CPU, Dimension.MEMORY_MB, Dimension.BANDWIDTH_MBPS)
#: Extra demand of one upgrade: mostly one dimension (CPU or memory),
#: sometimes two or all three, and sometimes nothing at all.
_EXTRA = st.one_of(
    st.just((0, 0, 0)),
    st.sampled_from([1, 2, 3]).map(lambda step: (step, 0, 0)),
    st.sampled_from([1, 2, 3]).map(lambda step: (0, step, 0)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 2])))
#: Revenue gain of one upgrade: uneven, and sometimes zero.
_GAINS = st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.0])


def _service(key, levels):
    """Candidates from ``[(cpu, memory, bandwidth, revenue), ...]``,
    floor first."""
    candidates = []
    for level, (*demand, revenue) in enumerate(levels):
        point = dict(zip(_CONSUMED, map(float, demand)))
        candidates.append(QualityCandidate(
            service_key=key, level=level, point=point,
            demand=QoSSpecification.point_demand(point),
            revenue_rate=revenue))
    return candidates


def _capacity(cpu, memory, bandwidth):
    return ResourceVector(cpu=cpu, memory_mb=memory,
                          bandwidth_mbps=bandwidth)


@st.composite
def _instances(draw):
    """Two to five services of two to four levels each, with the
    summed floor and top-level demand per dimension."""
    services = {}
    floors = [0, 0, 0]
    tops = [0, 0, 0]
    for index in range(draw(st.integers(min_value=2, max_value=5))):
        demand = [draw(st.integers(0, 6)), draw(st.integers(0, 6)),
                  draw(st.integers(0, 1))]
        revenue = draw(st.sampled_from([0.0, 1.0]))
        levels = [(*demand, revenue)]
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            demand = [have + more
                      for have, more in zip(demand, draw(_EXTRA))]
            revenue += draw(_GAINS)
            levels.append((*demand, revenue))
        services[f"s{index}"] = _service(f"s{index}", levels)
        for component in range(3):
            floors[component] += levels[0][component]
            tops[component] += levels[-1][component]
    return services, floors, tops


def _budgets(floors, tops):
    """CPU and memory budgets from just under the floors (infeasible)
    through halfway to just past every top level (never binds), each
    against each, so that either dimension binds, or both, or neither.
    A scarcity weight only shows where one upgrade's choice crowds
    another out, which one budget per instance rarely hits."""
    def grid(low, high):
        return sorted({max(0, low - 1), low, (low + high) // 2, high,
                       high + 1})
    for cpu in grid(floors[0], tops[0]):
        for memory in grid(floors[1], tops[1]):
            yield _capacity(cpu, memory, tops[2])


def _same(services, capacity):
    got = greedy_optimize(services, capacity)
    want = optimizer_reference.greedy_optimize(services, capacity)
    assert got.assignment == want.assignment
    assert got.revenue == want.revenue
    assert got.used == want.used
    assert got.explored == want.explored
    assert got.feasible == want.feasible


@given(instance=_instances())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_greedy_is_the_reference_on_multi_resource_upgrades(instance):
    services, floors, tops = instance
    for capacity in _budgets(floors, tops):
        _same(services, capacity)


#: CPU is nearly spent by a's floor and memory is not: weighted by
#: head-room a's upgrade costs 1/2 + 5/10 and b's 6/10, so b wins and a
#: no longer fits. Unweighted, or weighted by capacity alone, the two
#: tie and a (first in key order) wins instead.
_SCARCITY = ({"a": _service("a", [(8, 0, 0, 0.0), (9, 5, 0, 1.0)]),
              "b": _service("b", [(0, 0, 0, 0.0), (0, 6, 0, 1.0)])},
             _capacity(10, 10, 0))
#: A level that costs nothing more and earns nothing more stops the
#: climb: the better level behind it is never reached.
_ZERO_GAIN = ({"a": _service("a", [(1, 0, 0, 0.0), (1, 0, 0, 0.0),
                                   (2, 0, 0, 5.0)])},
              _capacity(10, 0, 0))


@pytest.mark.parametrize("instance, levels, explored", [
    (_SCARCITY, {"a": 0, "b": 1}, 2),
    (_ZERO_GAIN, {"a": 0}, 1),
], ids=["scarcity", "zero_gain"])
def test_the_smallest_witnesses(instance, levels, explored):
    _same(*instance)
    result = greedy_optimize(*instance)
    assert {key: candidate.level
            for key, candidate in result.assignment.items()} == levels
    assert result.explored == explored
