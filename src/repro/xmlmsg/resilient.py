"""Retry, timeout and circuit-breaking for synchronous bus calls.

The Figure 2 control-plane exchanges (``service_request``,
``accept_offer``, ``verify_sla``, …) are request/response calls; under
fault injection any leg can be lost. A :class:`ResilientCaller` turns
the bus's raw at-most-once ``request`` into an at-least-once call with
bounded retries:

* a lost leg surfaces as a **timeout** spent on the *simulation* clock
  (:meth:`~repro.sim.engine.Simulator.advance`), so waiting callers do
  not freeze the world — monitoring, expiries and other sessions keep
  running while a client waits;
* each retry is a fresh :meth:`~repro.xmlmsg.envelope.Envelope.retry`
  envelope (new ``message_id``, stable ``retry_of``) so server-side
  dedup answers re-executions from cache;
* backoff is exponential with seeded-RNG jitter — deterministic per
  seed, yet decorrelated between concurrent callers;
* when every attempt fails the breaker opens:
  :class:`~repro.errors.CircuitOpenError` is raised immediately for
  that ``(recipient, action)`` until a cooldown expires, so a dead
  dependency cannot stall every caller behind full retry ladders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..errors import (CircuitOpenError, GQoSMError, MessageDropped,
                      RemoteFaultError, ValidationError)
from ..sim.random import RandomSource
from ..sim.trace import TraceRecorder
from .bus import MessageBus
from .envelope import Envelope


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for :class:`ResilientCaller`.

    Attributes:
        max_attempts: Total tries per call (first attempt + retries).
        timeout: Default sim-time spent waiting for a reply that a
            drop already doomed, before the caller gives up on the
            attempt.
        per_action_timeout: Overrides of ``timeout`` by action name
            (e.g. a long-running ``negotiate`` vs a cheap ``query``).
        backoff_base: Backoff before the first retry.
        backoff_factor: Multiplier per further retry (exponential).
        jitter: Relative jitter amplitude in ``[0, 1]``; the drawn
            backoff is scaled by ``1 ± jitter``.
        circuit_cooldown: Sim-time the breaker stays open after a call
            exhausts its attempts.
    """

    max_attempts: int = 4
    timeout: float = 2.0
    per_action_timeout: "Mapping[str, float]" = field(default_factory=dict)
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.25
    circuit_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be at least 1: {self.max_attempts}")
        if self.timeout < 0 or self.backoff_base < 0 \
                or self.circuit_cooldown < 0:
            raise ValidationError("timeouts and backoffs must be >= 0")
        if self.backoff_factor < 1:
            raise ValidationError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(
                f"jitter must be in [0, 1]: {self.jitter}")

    def timeout_for(self, action: str) -> float:
        """The reply timeout for one action."""
        return self.per_action_timeout.get(action, self.timeout)

    def backoff_for(self, retry_index: int, rng: RandomSource) -> float:
        """The (jittered) pause before retry number ``retry_index``
        (1-based). Draws from ``rng`` only when jitter is enabled."""
        backoff = self.backoff_base * self.backoff_factor ** (retry_index - 1)
        if self.jitter > 0:
            backoff *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return max(backoff, 0.0)


@dataclass
class CallerStats:
    """Counters over every call the resilient caller made."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    remote_faults: int = 0
    recovered: int = 0
    exhausted: int = 0
    circuit_rejections: int = 0
    blocked_waits: int = 0

    def as_dict(self) -> "dict[str, int]":
        """Flat counters for reports and benchmarks."""
        return {
            "calls": self.calls,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "remote_faults": self.remote_faults,
            "recovered": self.recovered,
            "exhausted": self.exhausted,
            "circuit_rejections": self.circuit_rejections,
            "blocked_waits": self.blocked_waits,
        }


class ResilientCaller:
    """At-least-once request/response on top of :class:`MessageBus`.

    Args:
        bus: The transport.
        rng: Seeded stream for backoff jitter; without one, jitter is
            drawn from a fixed-seed private stream (still
            deterministic).
        policy: Retry/timeout/breaker knobs.
        trace: Optional recorder; retries, timeouts and breaker
            transitions are logged under the ``"resilience"`` category.
        name: Label used in trace records.
    """

    def __init__(self, bus: MessageBus, *,
                 rng: Optional[RandomSource] = None,
                 policy: Optional[RetryPolicy] = None,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "resilient") -> None:
        self._bus = bus
        self._rng = rng if rng is not None else RandomSource(0)
        self.policy = policy if policy is not None else RetryPolicy()
        self._trace = trace
        self.name = name
        self.stats = CallerStats()
        #: Open circuits: (recipient, action) -> sim time it may close.
        self._open_until: Dict[Tuple[str, str], float] = {}

    def circuit_open(self, recipient: str, action: str) -> bool:
        """Whether calls to ``(recipient, action)`` fast-fail now."""
        open_until = self._open_until.get((recipient, action))
        return open_until is not None and self._bus.sim.now < open_until

    def _record(self, message: str, **details: object) -> None:
        if self._trace is not None:
            self._trace.record(self._bus.sim.now, "resilience",
                               f"{self.name}: {message}", **details)

    def _wait(self, delta: float) -> None:
        """Spend ``delta`` units on the sim clock (world keeps moving).

        Inside a running event callback the clock cannot advance; the
        wait is then only accounted (the retry happens at the same sim
        instant — acceptable for notification-path callers).
        """
        if delta <= 0:
            return
        if self._bus.sim.running:
            self.stats.blocked_waits += 1
            return
        self._bus.sim.advance(delta)

    def call(self, envelope: Envelope) -> Envelope:
        """Issue a request, retrying transient failures with backoff.

        Raises:
            CircuitOpenError: When the breaker for this
                ``(recipient, action)`` is open, or once this call
                exhausts its attempts (which opens it).
            GQoSMError: Non-transient errors from the handler or codec
                propagate unchanged on first occurrence.
        """
        probe = self._bus.probe
        if not probe.measuring:
            return self._call(envelope)
        attempts_before = self.stats.attempts
        retries_before = self.stats.retries
        with probe.span(f"call:{envelope.action}", self.name,
                        recipient=envelope.recipient,
                        message_id=envelope.message_id) as span:
            try:
                return self._call(envelope)
            finally:
                span.attributes["attempts"] = \
                    self.stats.attempts - attempts_before
                delta = self.stats.retries - retries_before
                if delta > 0:
                    probe.count("repro_rpc_retries_total", float(delta),
                                action=envelope.action)

    def _call(self, envelope: Envelope) -> Envelope:
        key = (envelope.recipient, envelope.action)
        self.stats.calls += 1
        open_until = self._open_until.get(key)
        if open_until is not None:
            if self._bus.sim.now < open_until:
                self.stats.circuit_rejections += 1
                raise CircuitOpenError(
                    f"circuit open for {envelope.action!r} to "
                    f"{envelope.recipient!r} until t={open_until:g}")
            # Cooldown expired: half-open, let this call probe.
            del self._open_until[key]
            self._record(f"circuit half-open for {envelope.action} to "
                         f"{envelope.recipient}")
        attempt_envelope = envelope
        last_error: Optional[GQoSMError] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                self._wait(self.policy.backoff_for(attempt - 1, self._rng))
                attempt_envelope = envelope.retry()
                self.stats.retries += 1
                self._record(
                    f"retry {attempt - 1} of {envelope.action} to "
                    f"{envelope.recipient}",
                    attempt=attempt, retry_of=attempt_envelope.retry_of)
            self.stats.attempts += 1
            try:
                response = self._bus.request(attempt_envelope)
            except MessageDropped as error:
                last_error = error
                self.stats.timeouts += 1
                # The reply will never come; the caller finds out by
                # waiting out its timeout on the sim clock.
                self._wait(self.policy.timeout_for(envelope.action))
                self._record(
                    f"timeout waiting for {envelope.action} from "
                    f"{envelope.recipient}", attempt=attempt)
            except RemoteFaultError as error:
                last_error = error
                self.stats.remote_faults += 1
                self._record(
                    f"remote fault on {envelope.action} from "
                    f"{envelope.recipient}", attempt=attempt)
            else:
                if attempt > 1:
                    self.stats.recovered += 1
                    self._record(
                        f"recovered {envelope.action} to "
                        f"{envelope.recipient} on attempt {attempt}",
                        attempt=attempt)
                return response
        self.stats.exhausted += 1
        self._open_until[key] = \
            self._bus.sim.now + self.policy.circuit_cooldown
        self._record(
            f"circuit opened for {envelope.action} to "
            f"{envelope.recipient} after {self.policy.max_attempts} "
            f"attempts", cooldown=self.policy.circuit_cooldown)
        raise CircuitOpenError(
            f"{envelope.action!r} to {envelope.recipient!r} failed after "
            f"{self.policy.max_attempts} attempt(s): {last_error}"
        ) from last_error
