"""Network resources: topology, bandwidth brokers, inter-domain SLAs.

"The Network Resource Manager (NRM) is conceptually a Bandwidth Broker
... and manages QoS parameters within a given domain based on the SLAs
agreed to in that domain. The NRM is also responsible for managing
inter-domain communication with NRMs in neighboring domains"
(Section 2.1). This package provides:

* :mod:`repro.network.topology` — sites, links and domains over a
  stdlib adjacency dict, with per-link capacities and congestion state
  and a lowest-delay path search (a bidirectional Dijkstra).
* :mod:`repro.network.nrm` — the per-domain bandwidth broker, with
  path reservation, measurement and degradation notification.
* :mod:`repro.network.interdomain` — end-to-end coordination across
  domain boundaries (two-phase reserve/commit).
"""

from .congestion import CongestionEpisode, CongestionInjector
from .interdomain import EndToEndAllocation, InterDomainCoordinator
from .nrm import FlowAllocation, NetworkMeasurement, NetworkResourceManager
from .topology import Domain, Link, Site, Topology

__all__ = [
    "CongestionEpisode",
    "CongestionInjector",
    "Domain",
    "EndToEndAllocation",
    "FlowAllocation",
    "InterDomainCoordinator",
    "Link",
    "NetworkMeasurement",
    "NetworkResourceManager",
    "Site",
    "Topology",
]
