"""A multiprocessor machine with failable nodes.

The Section 5.6 example runs on "an SGI multiprocessor machine with 64
CPU/processor nodes and 10 GB of memory", 26 of which are exposed to
Grid users; at ``t3`` "three processors ... become inaccessible" and
later recover. :class:`Machine` models exactly that: nodes ``0 ..
total - 1``, whose one piece of state is whether they are down — the
set of down ids determines the capacity the resource manager can sell.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Callable, List, Optional, Set

from ..errors import ResourceError
from ..qos.vector import ResourceVector


#: Callback signature for capacity-change listeners:
#: ``listener(machine, delta_nodes)`` with ``delta_nodes`` negative on
#: failure, positive on recovery.
CapacityListener = Callable[["Machine", int], None]


class Machine:
    """A named machine exposing ``grid_nodes`` of its processors.

    Args:
        name: Machine name (e.g. ``"sgi-siteA"``).
        total_nodes: Physical processor count.
        grid_nodes: How many nodes are exposed to Grid users; the rest
            are "dedicated for local processing" (Section 5.6).
        memory_mb: Primary memory exposed to Grid users.
        disk_mb: Disk exposed to Grid users.
    """

    def __init__(self, name: str, total_nodes: int, *,
                 grid_nodes: Optional[int] = None,
                 memory_mb: float = 0.0, disk_mb: float = 0.0) -> None:
        if total_nodes <= 0:
            raise ResourceError(f"machine needs at least one node: {total_nodes}")
        self.name = name
        self._total = total_nodes
        self.grid_nodes = total_nodes if grid_nodes is None else grid_nodes
        if not 0 < self.grid_nodes <= total_nodes:
            raise ResourceError(
                f"grid_nodes={self.grid_nodes} out of (0, {total_nodes}]")
        self.memory_mb = memory_mb
        self.disk_mb = disk_mb
        #: Ids of the nodes currently down: the machine's only record
        #: of node state (every other id is up).
        self._down: Set[int] = set()
        self._listeners: List[CapacityListener] = []

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Physical processor count."""
        return self._total

    def up_nodes(self) -> int:
        """Number of nodes currently up."""
        return self._total - len(self._down)

    def available_grid_nodes(self) -> int:
        """Grid-exposed nodes currently up.

        Failures hit the grid partition first in this model (the
        conservative reading of the Section 5.6 example, where the
        3-node failure directly shrinks the guaranteed pool).
        """
        return max(0, self.grid_nodes - len(self._down))

    def grid_capacity(self) -> ResourceVector:
        """The capacity vector the resource manager can sell now."""
        return ResourceVector(cpu=float(self.available_grid_nodes()),
                              memory_mb=self.memory_mb,
                              disk_mb=self.disk_mb)

    # ------------------------------------------------------------------
    # Failure / recovery
    # ------------------------------------------------------------------

    def subscribe(self, listener: CapacityListener) -> None:
        """Register a capacity-change listener."""
        self._listeners.append(listener)

    def fail_nodes(self, count: int) -> List[int]:
        """Take down the ``count`` lowest-numbered up nodes; returns their ids.

        Raises:
            ResourceError: When ``count`` is negative or fewer than
                ``count`` nodes are up.
        """
        if count < 0:
            raise ResourceError(f"cannot fail a negative node count: {count}")
        if self.up_nodes() < count:
            raise ResourceError(
                f"cannot fail {count} nodes; only {self.up_nodes()} are up")
        down = self._down
        failed_ids = list(islice(
            filterfalse(down.__contains__, range(self._total)), count))
        down.update(failed_ids)
        self._notify(-count)
        return failed_ids

    def repair_nodes(self, node_ids: Optional[List[int]] = None) -> int:
        """Bring nodes back up (all down nodes when ids omitted).

        Ids that are unknown, already up or repeated are ignored.
        """
        down = self._down
        before = len(down)
        if node_ids is None:
            down.clear()
        else:
            down.difference_update(node_ids)
        repaired = before - len(down)
        if repaired:
            self._notify(repaired)
        return repaired

    def _notify(self, delta_nodes: int) -> None:
        for listener in list(self._listeners):
            listener(self, delta_nodes)
