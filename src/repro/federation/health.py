"""Peer health tracking from sim-clock heartbeats.

Every live domain probes every other domain on a fixed simulated
cadence (the plane drives the rounds); probes travel through each
domain's :class:`~repro.xmlmsg.resilient.ResilientCaller`, so repeated
failures also open the caller's per-``(recipient, action)`` circuit
breaker and later probes half-open it again — the PR-3 machinery is
the transport-level half of detection, this tracker is the
routing-level half.

Verdicts are per observer *pair*: under a partition, ``d1`` may see
``d2`` down while ``d3`` still reaches it. The rule is
most-recent-outcome: a pair is down when its latest probe failed, up
again on the first success. A plane-wide ``mark_down`` override exists
for crashes detected in-band (a delegation call that died mid-flight
should stop bid solicitation immediately, not one heartbeat later).
"""

from __future__ import annotations

from typing import Callable, Dict, Set, Tuple

__all__ = ["PeerHealth"]


class PeerHealth:
    """Pairwise liveness verdicts from probe outcomes.

    Args:
        now: The simulation clock.
        interval: Heartbeat cadence the plane schedules (stored here
            so reports can show the configured detection latency).
    """

    def __init__(self, now: Callable[[], float], *,
                 interval: float = 5.0) -> None:
        self._now = now
        self.interval = interval
        self._last_success: "Dict[Tuple[str, str], float]" = {}
        self._last_failure: "Dict[Tuple[str, str], float]" = {}
        self._down: "Set[str]" = set()
        self.probes = 0
        self.failures = 0

    def observe_success(self, observer: str, peer: str) -> None:
        """A probe or call from ``observer`` reached ``peer``."""
        self.probes += 1
        self._last_success[(observer, peer)] = self._now()
        self._down.discard(peer)

    def observe_failure(self, observer: str, peer: str) -> None:
        """A probe or call from ``observer`` to ``peer`` failed."""
        self.probes += 1
        self.failures += 1
        self._last_failure[(observer, peer)] = self._now()

    def mark_down(self, peer: str) -> None:
        """Plane-wide override: the peer is known dead (crash seen
        in-band); cleared by the next successful probe from anyone."""
        self._down.add(peer)

    def mark_up(self, peer: str) -> None:
        """Clear the plane-wide down override (broker rejoined)."""
        self._down.discard(peer)

    def alive(self, observer: str, peer: str) -> bool:
        """Current verdict for the (observer, peer) pair.

        Unprobed pairs count as alive (the first heartbeat round has
        not run yet); otherwise the most recent outcome wins, with
        simultaneous success-and-failure resolving pessimistically.
        """
        if peer in self._down:
            return False
        key = (observer, peer)
        success = self._last_success.get(key)
        failure = self._last_failure.get(key)
        if failure is None:
            return True
        if success is None:
            return False
        return success > failure
