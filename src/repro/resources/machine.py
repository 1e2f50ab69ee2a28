"""A multiprocessor machine with failable nodes.

The Section 5.6 example runs on "an SGI multiprocessor machine with 64
CPU/processor nodes and 10 GB of memory", 26 of which are exposed to
Grid users; at ``t3`` "three processors ... become inaccessible" and
later recover. :class:`Machine` models exactly that: a set of
:class:`Node` objects whose up/down state determines the capacity the
resource manager can sell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from ..errors import ResourceError
from ..qos.vector import ResourceVector


class NodeState(Enum):
    """Up/down state of one processor node."""

    UP = "up"
    DOWN = "down"


@dataclass
class Node:
    """One processor node."""

    node_id: int
    state: NodeState = NodeState.UP

    @property
    def is_up(self) -> bool:
        return self.state is NodeState.UP


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
        self.grid_nodes = total_nodes if grid_nodes is None else grid_nodes
        if not 0 < self.grid_nodes <= total_nodes:
            raise ResourceError(
                f"grid_nodes={self.grid_nodes} out of (0, {total_nodes}]")
        self.memory_mb = memory_mb
        self.disk_mb = disk_mb
        self._nodes: Dict[int, Node] = {
            i: Node(node_id=i) for i in range(total_nodes)}
        #: Ids of the nodes currently down, so counting the up nodes
        #: and repairing never scan the whole machine.
        self._down: Set[int] = set()
        self._listeners: List[CapacityListener] = []

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Physical processor count."""
        return len(self._nodes)

    def up_nodes(self) -> int:
        """Number of nodes currently up."""
        return len(self._nodes) - len(self._down)

    def available_grid_nodes(self) -> int:
        """Grid-exposed nodes currently up.

        Failures hit the grid partition first in this model (the
        conservative reading of the Section 5.6 example, where the
        3-node failure directly shrinks the guaranteed pool).
        """
        failed = self.total_nodes - self.up_nodes()
        return max(0, self.grid_nodes - failed)

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
        """Mark ``count`` up nodes as down; returns their ids.

        Raises:
            ResourceError: When fewer than ``count`` nodes are up.
        """
        if self.up_nodes() < count:
            raise ResourceError(
                f"cannot fail {count} nodes; only {self.up_nodes()} are up")
        failed_ids: List[int] = []
        # Lowest ids first: the dict holds the nodes in id order.
        for node in self._nodes.values():
            if len(failed_ids) >= count:
                break
            if node.is_up:
                node.state = NodeState.DOWN
                failed_ids.append(node.node_id)
        self._down.update(failed_ids)
        self._notify(-count)
        return failed_ids

    def repair_nodes(self, node_ids: Optional[List[int]] = None) -> int:
        """Bring nodes back up (all down nodes when ids omitted).

        Ids that are unknown, already up or repeated are ignored.
        """
        repairing = (set(self._down) if node_ids is None
                     else self._down.intersection(node_ids))
        for node_id in repairing:
            self._nodes[node_id].state = NodeState.UP
        self._down -= repairing
        repaired = len(repairing)
        if repaired:
            self._notify(repaired)
        return repaired

    def _notify(self, delta_nodes: int) -> None:
        for listener in list(self._listeners):
            listener(self, delta_nodes)
