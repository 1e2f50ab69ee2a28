"""Broker-level fault injection: domain crashes and network partitions.

The PR-3 chaos layer perturbs individual *messages*; a federation
needs faults one level up — a whole administrative domain going dark
(its broker process died) or a partition severing one group of
domains from the rest for a window of simulated time.
:class:`DomainChaos` implements the same ``decide(envelope, leg)``
interface the bus consults, so it installs exactly like a
:class:`~repro.xmlmsg.faults.FaultPlan` (``bus.install_faults``).

Crash and partition schedules are plain data keyed on the simulation
clock — no randomness lives here, so a seeded episode that crashes
``d2`` at ``t=30`` does so on every replay.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Set

from ..errors import FederationError, ValidationError
from ..xmlmsg.envelope import Envelope
from ..xmlmsg.faults import LEGS, FaultDecision, FaultStats

__all__ = ["DomainChaos", "PartitionWindow"]


class PartitionWindow(NamedTuple):
    """One group of domains severed from everyone else for a window.

    Messages between a member and a non-member are dropped while
    ``start <= now < end``; traffic inside the group (and inside its
    complement) flows normally.
    """

    members: "frozenset[str]"
    start: float
    end: float

    def severs(self, a: str, b: str, now: float) -> bool:
        """Whether this window cuts the (a, b) pair at ``now``."""
        if not (self.start <= now < self.end):
            return False
        return (a in self.members) != (b in self.members)


class DomainChaos:
    """Domain-level faults over the shared federation bus.

    Args:
        now: The simulation clock (callable returning sim time).
        domain_of: Maps an endpoint name to its owning domain (or
            ``None`` for endpoints outside any domain, e.g. clients).
    """

    def __init__(self, now: Callable[[], float], *,
                 domain_of: Callable[[str], Optional[str]]) -> None:
        self._now = now
        self._domain_of = domain_of
        self.stats = FaultStats()
        self._crashed: "Set[str]" = set()
        self._partitions: "List[PartitionWindow]" = []

    # ------------------------------------------------------------------
    # Schedule surface
    # ------------------------------------------------------------------

    def crash(self, domain: str) -> None:
        """Mark a domain's broker as down: all its traffic drops."""
        if domain in self._crashed:
            raise FederationError(f"domain {domain!r} is already down")
        self._crashed.add(domain)

    def restore(self, domain: str) -> None:
        """Bring a crashed domain's transport back."""
        if domain not in self._crashed:
            raise FederationError(f"domain {domain!r} is not down")
        self._crashed.discard(domain)

    def is_crashed(self, domain: str) -> bool:
        """Whether the domain is currently marked down."""
        return domain in self._crashed

    @property
    def crashed(self) -> "List[str]":
        """The downed domains, in name order."""
        return sorted(self._crashed)

    def partition(self, members, start: float, end: float) -> PartitionWindow:
        """Sever ``members`` from every other domain for ``[start, end)``."""
        if end <= start:
            raise FederationError(
                f"partition window ends ({end}) before it starts ({start})")
        window = PartitionWindow(frozenset(members), start, end)
        self._partitions.append(window)
        return window

    def severed(self, a: Optional[str], b: Optional[str]) -> bool:
        """Whether an active partition separates domains ``a`` and ``b``."""
        if a is None or b is None or a == b:
            return False
        now = self._now()
        return any(window.severs(a, b, now) for window in self._partitions)

    # ------------------------------------------------------------------
    # The bus-facing interface
    # ------------------------------------------------------------------

    def decide(self, envelope: Envelope, leg: str) -> FaultDecision:
        """Fault decision for one delivery leg (the bus's contract)."""
        if leg not in LEGS:
            raise ValidationError(f"unknown delivery leg: {leg!r}")
        self.stats.decisions += 1
        sender = self._domain_of(envelope.sender)
        recipient = self._domain_of(envelope.recipient)
        dead = (sender in self._crashed or recipient in self._crashed
                or self.severed(sender, recipient))
        if dead:
            self.stats.dropped += 1
            return FaultDecision(drop=True)
        return FaultDecision()
