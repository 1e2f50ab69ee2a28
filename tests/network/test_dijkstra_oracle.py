"""Differential oracle for ``Topology.path``.

The path search is a port of networkx's ``bidirectional_dijkstra``
(what ``nx.shortest_path`` runs when both ends are given), so the
library itself is the oracle: on every generated topology, for every
ordered pair of sites, the ported search must return exactly the node
path networkx returns, or fail where networkx finds no path. Delays are
drawn from a small set that includes zero, so equal-delay routes are
common and the tie-breaking (alternating searches, insertion-counter
heap keys, strict-less relaxation, the meeting-node rule) is what gets
compared. Hypothesis runs derandomized, so the suite is deterministic.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.network.topology import Topology

_DELAYS = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])


@st.composite
def topologies(draw, *, connected: bool) -> Topology:
    """Sites ``s0..s{n-1}`` and links in a drawn insertion order; a
    connected topology starts from a random spanning tree."""
    size = draw(st.integers(2, 9))
    names = [f"s{index}" for index in draw(st.permutations(range(size)))]
    edges = []
    if connected:
        for index in range(1, size):
            parent = draw(st.integers(0, index - 1))
            edges.append((names[parent], names[index]))
    tree = {frozenset(edge) for edge in edges}
    spare = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if frozenset((a, b)) not in tree]
    extra = draw(st.lists(st.sampled_from(spare), unique=True,
                          max_size=len(spare))) if spare else []
    edges = draw(st.permutations(edges + extra))
    topology = Topology()
    for name in sorted(names, key=lambda n: int(n[1:])):
        topology.add_site(name, "d")
    for a, b in edges:
        if draw(st.booleans()):
            a, b = b, a
        topology.add_link(a, b, 100.0, delay_ms=draw(_DELAYS))
    return topology


def _oracle_graph(topology: Topology) -> nx.Graph:
    """The networkx graph ``Topology`` used to build: the same node and
    edge insertion order, so both searches scan neighbours alike."""
    graph = nx.Graph()
    for site in topology.sites():
        graph.add_node(site.name)
    for link in topology.links():
        graph.add_edge(link.a, link.b)
    return graph


def _assert_agrees(topology: Topology) -> None:
    graph = _oracle_graph(topology)

    def weight(u: str, v: str, _attrs: dict) -> float:
        return topology.link(u, v).delay_ms

    names = [site.name for site in topology.sites()]
    for source in names:
        for target in names:
            if source == target:
                continue
            try:
                expected = nx.shortest_path(graph, source, target,
                                            weight=weight)
            except nx.NetworkXNoPath:
                with pytest.raises(NetworkError, match="no path"):
                    topology.path(source, target)
                continue
            links = topology.path(source, target)
            assert links == [topology.link(u, v)
                             for u, v in zip(expected, expected[1:])], \
                (source, target, expected)
            assert topology._bidirectional_dijkstra(source, target) \
                == expected


@given(topologies(connected=True))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
def test_connected_topologies_route_as_networkx(topology):
    _assert_agrees(topology)


@given(topologies(connected=False))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
def test_sparse_topologies_route_or_fail_as_networkx(topology):
    _assert_agrees(topology)


def test_equal_delay_routes_break_ties_as_networkx():
    # Two two-hop routes of equal delay, plus a zero-delay detour: the
    # choice between them is decided by scan order alone.
    topology = Topology()
    for name in ("a", "b", "c", "d", "e"):
        topology.add_site(name, "d")
    topology.add_link("a", "c", 100.0, delay_ms=1.0)
    topology.add_link("a", "b", 100.0, delay_ms=1.0)
    topology.add_link("b", "d", 100.0, delay_ms=1.0)
    topology.add_link("c", "d", 100.0, delay_ms=1.0)
    topology.add_link("c", "e", 100.0, delay_ms=0.0)
    topology.add_link("e", "d", 100.0, delay_ms=1.0)
    _assert_agrees(topology)
