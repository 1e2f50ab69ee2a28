"""The node-walking machine, kept as a differential oracle.

:class:`ReferenceMachine` is :class:`repro.resources.machine.Machine`
as it was when every node carried its own up/down state object beside
the down-set: ``fail_nodes`` walks the nodes in id order flipping the
first ``count`` up ones, ``repair_nodes`` flips each repaired node
back. The production machine keeps only the down-set;
``test_machine.py`` holds it to this one on returned ids, notified
deltas and up/available counts under generated fail/repair sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from repro.errors import ResourceError


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


class ReferenceMachine:
    """``Machine``'s failure contract over one ``Node`` per processor."""

    def __init__(self, name: str, total_nodes: int, *,
                 grid_nodes: Optional[int] = None) -> None:
        self.name = name
        self.grid_nodes = total_nodes if grid_nodes is None else grid_nodes
        self._nodes: Dict[int, Node] = {
            i: Node(node_id=i) for i in range(total_nodes)}
        self._down: Set[int] = set()
        self._listeners: List[Callable[["ReferenceMachine", int], None]] = []

    @property
    def total_nodes(self) -> int:
        return len(self._nodes)

    def up_nodes(self) -> int:
        return len(self._nodes) - len(self._down)

    def available_grid_nodes(self) -> int:
        failed = self.total_nodes - self.up_nodes()
        return max(0, self.grid_nodes - failed)

    def down_ids(self) -> List[int]:
        """Ids whose node object says down, in id order."""
        return [node_id for node_id, node in self._nodes.items()
                if node.state is NodeState.DOWN]

    def subscribe(self, listener) -> None:
        self._listeners.append(listener)

    def fail_nodes(self, count: int) -> List[int]:
        if self.up_nodes() < count:
            raise ResourceError(
                f"cannot fail {count} nodes; only {self.up_nodes()} are up")
        failed_ids: List[int] = []
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
