"""Sites, links and administrative domains.

A :class:`Topology` is an undirected graph of named sites. Each link
carries a raw bandwidth capacity plus a *congestion factor* scaling the
capacity that is actually usable (congestion episodes are the paper's
"network traffic changes in unpredictable ways"). Sites belong to
administrative domains; "a domain can be defined via an IP mask or as
an administrative domain in Globus" (Section 2.1) — here, a domain is a
named set of sites managed by one NRM.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from ..errors import NetworkError


@dataclass(frozen=True)
class Site:
    """A named network endpoint.

    Attributes:
        name: Site name (e.g. ``"siteA"``).
        domain: Administrative domain the site belongs to.
        address: The site's IP address, used in SLA documents.
    """

    name: str
    domain: str
    address: str = ""


@dataclass
class Link:
    """An undirected link between two sites.

    Attributes:
        a, b: Endpoint site names.
        capacity_mbps: Raw bandwidth.
        delay_ms: Propagation delay contribution.
        loss: Baseline packet-loss fraction.
        congestion_factor: In ``(0, 1]``; usable capacity is
            ``capacity_mbps * congestion_factor``.
        owner_domain: The single administrative domain whose NRM
            books this link. For a cross-domain link this defaults to
            the ``a``-side domain — the DiffServ convention that the
            upstream domain polices the inter-domain link.
    """

    a: str
    b: str
    capacity_mbps: float
    delay_ms: float = 1.0
    loss: float = 0.0
    congestion_factor: float = 1.0
    owner_domain: str = ""

    @property
    def key(self) -> "Tuple[str, str]":
        """Canonical (sorted) endpoint pair."""
        return tuple(sorted((self.a, self.b)))  # type: ignore[return-value]

    @property
    def usable_mbps(self) -> float:
        """Capacity after congestion scaling."""
        return self.capacity_mbps * self.congestion_factor

    def set_congestion(self, factor: float) -> None:
        """Set the congestion factor (1.0 = uncongested)."""
        if not 0.0 < factor <= 1.0:
            raise NetworkError(f"congestion factor out of (0, 1]: {factor}")
        self.congestion_factor = factor


@dataclass(frozen=True)
class Domain:
    """An administrative domain: a named set of sites."""

    name: str
    sites: "Tuple[str, ...]"


class Topology:
    """The network graph shared by all NRMs."""

    def __init__(self) -> None:
        #: site -> neighbour -> None, in link-insertion order (the
        #: order the path search scans, so it decides ties).
        self._adjacency: Dict[str, Dict[str, None]] = {}
        self._sites: Dict[str, Site] = {}
        self._links: Dict[Tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_site(self, name: str, domain: str, *,
                 address: str = "") -> Site:
        """Register a site; names must be unique."""
        if name in self._sites:
            raise NetworkError(f"site {name!r} already exists")
        site = Site(name=name, domain=domain, address=address)
        self._sites[name] = site
        self._adjacency[name] = {}
        return site

    def add_link(self, a: str, b: str, capacity_mbps: float, *,
                 delay_ms: float = 1.0, loss: float = 0.0,
                 owner_domain: str = "") -> Link:
        """Connect two existing sites."""
        for name in (a, b):
            if name not in self._sites:
                raise NetworkError(f"unknown site {name!r}")
        if a == b:
            raise NetworkError(f"self-link at {a!r}")
        link = Link(a=a, b=b, capacity_mbps=capacity_mbps,
                    delay_ms=delay_ms, loss=loss,
                    owner_domain=owner_domain or self._sites[a].domain)
        if link.key in self._links:
            raise NetworkError(f"link {a!r}-{b!r} already exists")
        self._links[link.key] = link
        self._adjacency[a][b] = None
        self._adjacency[b][a] = None
        return link

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def site(self, name: str) -> Site:
        """Look up a site by name."""
        found = self._sites.get(name)
        if found is None:
            raise NetworkError(f"unknown site {name!r}")
        return found

    def site_by_address(self, address: str) -> Site:
        """Look up a site by IP address (SLAs carry addresses)."""
        for site in self._sites.values():
            if site.address == address:
                return site
        raise NetworkError(f"no site has address {address!r}")

    def sites(self) -> List[Site]:
        """All sites."""
        return list(self._sites.values())

    def link(self, a: str, b: str) -> Link:
        """The link between two sites."""
        key = tuple(sorted((a, b)))
        found = self._links.get(key)  # type: ignore[arg-type]
        if found is None:
            raise NetworkError(f"no link between {a!r} and {b!r}")
        return found

    def links(self) -> List[Link]:
        """All links."""
        return list(self._links.values())

    def domains(self) -> List[Domain]:
        """Domains, derived from site membership."""
        members: Dict[str, List[str]] = {}
        for site in self._sites.values():
            members.setdefault(site.domain, []).append(site.name)
        return [Domain(name=name, sites=tuple(sorted(site_names)))
                for name, site_names in sorted(members.items())]

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path(self, source: str, destination: str) -> List[Link]:
        """Shortest path (by delay) between two sites, as links.

        Raises:
            NetworkError: When no path exists.
        """
        for name in (source, destination):
            if name not in self._sites:
                raise NetworkError(f"unknown site {name!r}")
        if source == destination:
            return []
        nodes = self._bidirectional_dijkstra(source, destination)
        return [self.link(u, v) for u, v in zip(nodes, nodes[1:])]

    def _bidirectional_dijkstra(self, source: str,
                                destination: str) -> List[str]:
        """The lowest-delay node path from ``source`` to ``destination``.

        A port of networkx 3.6.1's ``bidirectional_dijkstra`` (what
        ``nx.shortest_path`` runs when both ends are given), kept step
        for step so ties break the same way: the searches alternate,
        heap keys are ``(dist, insertion counter, node)``, a label is
        replaced only by a strictly shorter one, and the answer is the
        best meeting node seen when some node is settled from both
        sides. ``tests/network/test_dijkstra_oracle.py`` holds it to
        networkx.
        """
        settled: List[Set[str]] = [set(), set()]
        preds: List[Dict[str, Optional[str]]] = [{source: None},
                                                 {destination: None}]
        seen: List[Dict[str, float]] = [{source: 0}, {destination: 0}]
        counter = count()
        fringe: List[list] = [[(0, next(counter), source)],
                              [(0, next(counter), destination)]]
        best: Optional[float] = None
        meet = ""
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, node = heappop(fringe[direction])
            if node in settled[direction]:
                continue
            settled[direction].add(node)
            if node in settled[1 - direction]:
                forward: List[str] = []
                step: Optional[str] = meet
                while step is not None:
                    forward.append(step)
                    step = preds[0][step]
                forward.reverse()
                step = preds[1][meet]
                while step is not None:
                    forward.append(step)
                    step = preds[1][step]
                return forward
            for neighbour in self._adjacency[node]:
                if neighbour in settled[direction]:
                    continue
                length = dist + self.link(node, neighbour).delay_ms
                if (neighbour not in seen[direction]
                        or length < seen[direction][neighbour]):
                    seen[direction][neighbour] = length
                    heappush(fringe[direction],
                             (length, next(counter), neighbour))
                    preds[direction][neighbour] = node
                    if neighbour in seen[1 - direction]:
                        total = length + seen[1 - direction][neighbour]
                        if best is None or best > total:
                            best, meet = total, neighbour
        raise NetworkError(
            f"no path between {source!r} and {destination!r}")
