"""DSRT — the Dynamic Soft Real-Time CPU scheduler (simulated).

The paper integrates its broker "with the Dynamic Soft Real-Time (DSRT)
scheduler [Chu & Nahrstedt] as the computation (CPU) scheduler".

The simulation keeps DSRT's contract model: each launched process holds
a CPU contract reserving a fraction of each of its nodes, and the
scheduler refuses a contract that does not fit. The broker resizes a
contract when it moves a session's delivered point. DSRT's own
*system-initiated adaptation* — shrinking contracts toward observed
usage, the "resource management level" step that Section 3.2 runs
before broker-level adaptation — is not modelled: nothing in the
simulation measures a process's CPU usage, and the slot table, not the
DSRT contracts, decides what the broker can sell (DESIGN §2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import CapacityError, ResourceError

_pid_counter = itertools.count(5000)


@dataclass
class DsrtContract:
    """One process's CPU contract.

    Attributes:
        pid: Process ID.
        reserved_fraction: CPU fraction currently reserved (0..1 of one
            node, scaled by ``nodes``).
        nodes: How many nodes the process spans.
    """

    pid: int
    reserved_fraction: float
    nodes: int = 1

    @property
    def reserved_capacity(self) -> float:
        """Reserved node-equivalents (fraction × nodes)."""
        return self.reserved_fraction * self.nodes


class DsrtScheduler:
    """A DSRT instance scheduling one machine's CPU capacity.

    Args:
        node_count: Nodes available to the scheduler.
    """

    def __init__(self, node_count: int) -> None:
        if node_count <= 0:
            raise ResourceError(f"node_count must be positive: {node_count}")
        self.node_count = node_count
        self._contracts: Dict[int, DsrtContract] = {}
        # Running sum of reserved node-equivalents: admission-rate
        # callers probe free_capacity() per reserve, so a fresh
        # sum() here would be O(live contracts) on the hot path.
        self._reserved = 0.0

    # ------------------------------------------------------------------
    # Contract management
    # ------------------------------------------------------------------

    def reserved_total(self) -> float:
        """Total reserved node-equivalents across live contracts."""
        return self._reserved

    def free_capacity(self) -> float:
        """Unreserved node-equivalents."""
        return self.node_count - self.reserved_total()

    def reserve(self, fraction: float, *, nodes: int = 1,
                pid: Optional[int] = None) -> DsrtContract:
        """Create a contract reserving ``fraction`` of each of ``nodes``.

        Raises:
            CapacityError: When the reservation exceeds free capacity.
            ResourceError: On malformed arguments or duplicate pid.
        """
        if not 0.0 < fraction <= 1.0:
            raise ResourceError(f"fraction must be in (0, 1]: {fraction}")
        if nodes < 1:
            raise ResourceError(f"nodes must be >= 1: {nodes}")
        demand = fraction * nodes
        if demand > self.free_capacity() + 1e-9:
            raise CapacityError(
                f"DSRT reservation of {demand:g} node-equivalents exceeds "
                f"free capacity {self.free_capacity():g}")
        if pid is None:
            pid = next(_pid_counter)
        if pid in self._contracts:
            raise ResourceError(f"pid {pid} already holds a DSRT contract")
        contract = DsrtContract(pid=pid, reserved_fraction=fraction,
                                nodes=nodes)
        self._contracts[pid] = contract
        self._reserved += contract.reserved_capacity
        return contract

    def release(self, pid: int) -> None:
        """Tear down a contract.

        Raises:
            ResourceError: When the pid holds no contract.
        """
        contract = self._contracts.pop(pid, None)
        if contract is None:
            raise ResourceError(f"pid {pid} holds no DSRT contract")
        self._reserved -= contract.reserved_capacity
        if not self._contracts:
            # Pin the running sum back to exactly zero so float dust
            # from release order can never accumulate across epochs.
            self._reserved = 0.0

    def resize(self, pid: int, *, nodes: Optional[int] = None,
               fraction: Optional[float] = None) -> DsrtContract:
        """Resize a live contract in place.

        Keeps the scheduler's running reserved sum aligned when the
        broker moves a session's delivered operating point (the GARA
        booking is resized there; this is the CPU-scheduler side of
        the same move). Shrinking always succeeds; growth is clamped
        to free capacity — a partially grown soft-real-time contract
        still schedules, and the slot table stays authoritative for
        what was sold.

        Raises:
            ResourceError: When the pid holds no contract or the
                arguments are malformed.
        """
        contract = self.contract(pid)
        new_nodes = contract.nodes if nodes is None else nodes
        new_fraction = (contract.reserved_fraction if fraction is None
                        else fraction)
        if new_nodes < 1:
            raise ResourceError(f"nodes must be >= 1: {new_nodes}")
        if not 0.0 < new_fraction <= 1.0:
            raise ResourceError(
                f"fraction must be in (0, 1]: {new_fraction}")
        ceiling = contract.reserved_capacity + self.free_capacity()
        target = min(new_fraction * new_nodes, ceiling)
        self._reserved += target - contract.reserved_capacity
        contract.nodes = new_nodes
        contract.reserved_fraction = target / new_nodes
        return contract

    def contract(self, pid: int) -> DsrtContract:
        """The live contract for ``pid``."""
        found = self._contracts.get(pid)
        if found is None:
            raise ResourceError(f"pid {pid} holds no DSRT contract")
        return found
