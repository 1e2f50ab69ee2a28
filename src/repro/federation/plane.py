"""The federated control plane: N brokers, one wire, no single point
of failure.

:class:`FederatedControlPlane` stands up one fully-wired
:class:`~repro.core.testbed.Testbed` per administrative domain — its
own :class:`~repro.core.capacity.CapacityPartition`, journal, UDDIe
registry slice and resource set — over a *shared* simulator, trace
recorder and message bus, with per-domain endpoint names
(``aqos:d1``, ``uddie:d1``, ``fed:d1``, ...). Requests enter through
:meth:`FederatedControlPlane.request_service`: the home domain admits
locally when it can; when it rejects — or is unreachable — the acting
home solicits penalty-aware bids from live peers and delegates to the
best one (Ranjan et al.'s SLA-based coordinated superscheduling,
adapted to the paper's AQoS broker).

Robustness is the point: :meth:`crash_broker` and :meth:`partition`
inject domain-level faults (seeded, deterministic, layered on the
PR-3 message chaos), heartbeats feed :class:`~repro.federation.health.PeerHealth`,
in-flight delegations that lose their peer are cancelled home-side and
rerouted to survivors, and a crashed broker rejoins via the PR-5
``recover()`` plus :func:`~repro.federation.recovery.reconcile_delegations`
— which rolls back half-delegated bookings so the federation never
double-admits and never strands an orphaned cross-domain booking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.testbed import Testbed, build_testbed, install_all
from ..errors import (BrokerCrash, CircuitOpenError, FederationError,
                      TransientMessageError)
from ..probe import Probe
from ..recovery.crashpoints import crash
from ..recovery.journal import (DELEGATION_BEGIN, DELEGATION_CANCELLED,
                                DELEGATION_CONFIRMED)
from ..recovery.recover import build_replay_view, recover
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from ..sim.trace import TraceRecorder
from ..sla.negotiation import ServiceRequest
from ..xmlmsg.bus import MessageBus
from ..xmlmsg.document import child_text
from ..xmlmsg.resilient import ResilientCaller, RetryPolicy
from .faults import DomainChaos
from .health import PeerHealth
from .protocol import (FederationEndpoint, IncomingDelegation, decode_bid,
                       decode_delegated, encode_bid_request, encode_cancel,
                       encode_confirm, encode_delegate, encode_heartbeat)
from .recovery import RejoinReport, reconcile_delegations, scan_delegations

__all__ = [
    "FederatedControlPlane",
    "FederatedOutcome",
    "FederationDomain",
    "IncomingDelegation",
]


@dataclass
class FederationDomain:
    """One administrative domain: a wired testbed plus its federation
    actors on the shared bus."""

    name: str
    testbed: Testbed
    caller: ResilientCaller
    sla_floor: int
    endpoint: Optional[FederationEndpoint] = None
    incoming: "Dict[str, IncomingDelegation]" = field(default_factory=dict)
    confirmed: "Set[str]" = field(default_factory=set)

    @property
    def probe(self) -> Probe:
        """The domain testbed's instrumentation seam."""
        return self.testbed.probe


@dataclass(frozen=True)
class FederatedOutcome:
    """What the federation did with one request."""

    request: ServiceRequest
    accepted: bool
    home: str
    domain: Optional[str]
    delegated: bool
    rerouted: "Tuple[str, ...]"
    delegation_id: str
    sla_id: Optional[int]
    reason: str


class FederatedControlPlane:
    """N AQoS brokers coordinating over one bus (see module docs).

    Args:
        domains: Domain count (named ``d1..dN``) or explicit names.
        seed: Master seed; every domain derives decorrelated
            substreams from it.
        latency: Per-delivery bus latency.
        heartbeat_interval: Sim-clock cadence of the liveness probes.
        confirm_timeout: Age after which a peer abandons an
            unconfirmed incoming delegation (default twice the
            heartbeat interval).
        testbed_defaults: ``build_testbed`` keyword overrides applied
            to every domain (capacity split, machine size, ...).
        capacity: Per-domain ``build_testbed`` overrides, keyed by
            domain name; merged over ``testbed_defaults``.
        journal_stores: Per-domain journal stores (the crash-point
            sweep arms a :class:`~repro.recovery.crashpoints.CrashingJournalStore`
            this way); missing domains get in-memory stores.
        inner_faults: Optional message-level
            :class:`~repro.xmlmsg.faults.FaultPlan` running beneath
            the domain-level chaos.
        retry_policy: Policy for the cross-domain callers.
    """

    def __init__(self, *, domains=3, seed: int = 0, latency: float = 0.0,
                 heartbeat_interval: float = 5.0,
                 confirm_timeout: Optional[float] = None,
                 testbed_defaults: Optional[Dict[str, object]] = None,
                 capacity: Optional[Dict[str, Dict[str, object]]] = None,
                 journal_stores: Optional[Dict[str, object]] = None,
                 inner_faults=None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if isinstance(domains, int):
            if domains < 1:
                raise FederationError(
                    f"need at least one domain: {domains}")
            names = [f"d{i + 1}" for i in range(domains)]
        else:
            names = list(domains)
        if len(set(names)) != len(names):
            raise FederationError(f"duplicate domain names: {names}")
        self.sim = Simulator()
        self.trace = TraceRecorder()
        self.bus = MessageBus(self.sim, trace=self.trace, latency=latency)
        self.seed = seed
        self._names = names
        self.domains: "Dict[str, FederationDomain]" = {}
        self.chaos = DomainChaos(lambda: self.sim.now,
                                 domain_of=self._domain_of,
                                 inner=inner_faults)
        self.bus.install_faults(self.chaos)
        self.health = PeerHealth(lambda: self.sim.now,
                                 interval=heartbeat_interval)
        self.heartbeat_interval = heartbeat_interval
        self.confirm_timeout = (confirm_timeout
                                if confirm_timeout is not None
                                else 2.0 * heartbeat_interval)
        policy = retry_policy or RetryPolicy(
            max_attempts=2, timeout=5.0, circuit_cooldown=20.0)
        root_rng = RandomSource(seed)
        stores = journal_stores or {}
        for index, name in enumerate(names):
            kwargs: "Dict[str, object]" = dict(testbed_defaults or {})
            kwargs.update((capacity or {}).get(name, {}))
            testbed = build_testbed(
                sim=self.sim, trace=self.trace,
                rng=root_rng.stream(f"domain:{name}"),
                machine_name=f"sgi-{name}",
                sla_first_id=1000 * (index + 1), **kwargs)
            install_all(testbed, bus=self.bus,
                        gateway_name=f"aqos:{name}",
                        registry_name=f"uddie:{name}",
                        relay_name=f"notification-hub:{name}",
                        discovery_name=f"aqos-discovery:{name}",
                        journal_store=stores.get(name))
            if index == 0:
                # One wire, N domains: the wire's own probe traces and
                # counts into the first domain's hub, nothing else.
                self.bus.probe.telemetry = testbed.telemetry
                self.bus.adopt_endpoints()
            caller = ResilientCaller(
                self.bus, rng=testbed.rng.stream("federation"),
                policy=policy, trace=self.trace, name=f"fed:{name}")
            domain = FederationDomain(name=name, testbed=testbed,
                                      caller=caller,
                                      sla_floor=1000 * (index + 1))
            domain.endpoint = FederationEndpoint(self, domain)
            self.domains[name] = domain
        self.stats: "Dict[str, int]" = {
            "requests": 0, "local": 0, "delegated": 0,
            "rerouted": 0, "rejected": 0, "heartbeat_rounds": 0,
            "reconciled_cancellations": 0,
        }
        self.reroutes: "List[Tuple[float, str, str, str]]" = []
        self.crashes: "List[Tuple[float, str, str]]" = []
        self.recoveries: "List[Tuple[float, str]]" = []
        self._delegation_seq = 0
        self._acting: Optional[str] = None
        self._heartbeats_until: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def names(self) -> "List[str]":
        """Domain names in construction order."""
        return list(self._names)

    def alive_domains(self) -> "List[str]":
        """Domains whose broker is currently up, in order."""
        return [name for name in self._names
                if not self.chaos.is_crashed(name)]

    def _domain_of(self, endpoint: str) -> Optional[str]:
        if ":" not in endpoint:
            return None
        suffix = endpoint.rsplit(":", 1)[1]
        return suffix if suffix in self.domains else None

    def _next_id(self, home: str) -> str:
        self._delegation_seq += 1
        return f"{home}:{self._delegation_seq:04d}"

    def _record(self, message: str) -> None:
        self.trace.record(self.sim.now, "federation", message)

    # ------------------------------------------------------------------
    # Fault injection (the robustness surface)
    # ------------------------------------------------------------------

    def crash_broker(self, domain: str, at: Optional[float] = None, *,
                     cause: str = "injected crash") -> None:
        """Kill a domain's broker now or at sim time ``at``.

        The broker's volatile state is wiped (PR-5 ``crash``), its
        journal store survives, and every message to or from the
        domain drops until :meth:`recover_broker`.
        """
        if domain not in self.domains:
            raise FederationError(f"unknown domain: {domain!r}")
        if at is None or at <= self.sim.now:
            self._note_crash(domain, cause)
            return

        def fire() -> None:
            if not self.chaos.is_crashed(domain):
                self._note_crash(domain, cause)
        self.sim.schedule_at(at, fire, label=f"crash:{domain}")

    def recover_broker(self, domain: str,
                       at: Optional[float] = None
                       ) -> "Optional[RejoinReport]":
        """Rejoin a crashed broker now or at sim time ``at``.

        Runs the PR-5 cold-restart recovery against the surviving
        journal, then the federation reconciliation that rolls back
        half-delegated bookings. A no-op when the domain is up.
        """
        if domain not in self.domains:
            raise FederationError(f"unknown domain: {domain!r}")
        if at is None or at <= self.sim.now:
            return self._rejoin(domain)
        self.sim.schedule_at(at, lambda: self._rejoin(domain),
                             label=f"recover:{domain}")
        return None

    def partition(self, members, start: float, end: float) -> None:
        """Sever ``members`` from the other domains for ``[start, end)``."""
        unknown = sorted(set(members) - set(self._names))
        if unknown:
            raise FederationError(f"unknown domains: {unknown}")
        self.chaos.partition(members, start, end)
        self._record(f"partition {sorted(members)} for "
                     f"[{start:g}, {end:g})")

    def _note_crash(self, name: str, cause: str) -> None:
        if self.chaos.is_crashed(name):
            return
        domain = self.domains[name]
        self.chaos.crash(name)
        crash(domain.testbed)
        domain.incoming.clear()
        domain.confirmed.clear()
        self.health.mark_down(name)
        self.crashes.append((self.sim.now, name, cause))
        self._record(f"domain {name} down: {cause}")

    def _rejoin(self, name: str) -> "Optional[RejoinReport]":
        if not self.chaos.is_crashed(name):
            return None
        domain = self.domains[name]
        self.chaos.restore(name)
        recovery = recover(domain.testbed)
        # Recovery resumes SLA ids from the journal's highest; an
        # empty journal would land the counter below this domain's
        # id range, colliding with a peer's numbering.
        ids = [sla.sla_id for sla in domain.testbed.repository.all()]
        domain.testbed.repository.resume_ids(
            max(ids + [domain.sla_floor - 1]))
        federation = reconcile_delegations(self, domain)
        self.stats["reconciled_cancellations"] += (
            federation.cancelled_incoming + federation.cancelled_outgoing)
        self.health.mark_up(name)
        self.recoveries.append((self.sim.now, name))
        self._record(f"domain {name} rejoined: "
                     f"{federation.cancelled_incoming} half-delegated "
                     f"booking(s) rolled back")
        return RejoinReport(domain=name, recovery=recovery,
                            federation=federation)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def start_heartbeats(self, until: float) -> None:
        """Probe liveness every ``heartbeat_interval`` up to ``until``."""
        if self._heartbeats_until is not None:
            self._heartbeats_until = max(self._heartbeats_until, until)
            return
        self._heartbeats_until = until
        self.sim.schedule(self.heartbeat_interval, self._heartbeat_round,
                          label="fed-heartbeat")

    def _heartbeat_round(self) -> None:
        self.stats["heartbeat_rounds"] += 1
        for observer in self._names:
            if self.chaos.is_crashed(observer):
                continue
            domain = self.domains[observer]
            for peer in self._names:
                if peer == observer:
                    continue
                if domain.caller.circuit_open(f"fed:{peer}",
                                              "fed_heartbeat"):
                    # Breaker cooling down: count it as a miss without
                    # paying for a probe the caller would refuse.
                    self.health.observe_failure(observer, peer)
                    continue
                envelope = encode_heartbeat(f"fed:{observer}",
                                            f"fed:{peer}", observer)
                try:
                    domain.caller.call(envelope)
                except BrokerCrash:
                    self._note_crash(peer, "died servicing a heartbeat")
                except (TransientMessageError, CircuitOpenError):
                    self.health.observe_failure(observer, peer)
                else:
                    self.health.observe_success(observer, peer)
            self._sweep_unconfirmed(domain)
        assert self._heartbeats_until is not None
        next_at = self.sim.now + self.heartbeat_interval
        if next_at <= self._heartbeats_until:
            self.sim.schedule(self.heartbeat_interval,
                              self._heartbeat_round,
                              label="fed-heartbeat")

    def _sweep_unconfirmed(self, domain: FederationDomain) -> None:
        """Peer-side janitor: abandon incoming delegations whose
        confirm never arrived (home died or gave up silently)."""
        now = self.sim.now
        for delegation_id in sorted(domain.incoming):
            if delegation_id in domain.confirmed:
                continue
            entry = domain.incoming[delegation_id]
            if now - entry.opened_at > self.confirm_timeout:
                self.cancel_incoming(domain, delegation_id,
                                     reason="confirm timed out")

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def request_service(self, request: ServiceRequest, *,
                        home: Optional[str] = None) -> FederatedOutcome:
        """Admit one request: home domain first, then the federation."""
        self.stats["requests"] += 1
        return self._admit(request, home)

    def request_services(self, requests: "Sequence[ServiceRequest]", *,
                         homes: "Optional[Sequence[str]]" = None
                         ) -> "List[FederatedOutcome]":
        """Admit a batch, amortizing each home domain's admission
        (PR-6 group commit + single water-fill); rejects fall through
        to delegation individually."""
        if homes is None:
            homes = [self._names[0]] * len(requests)
        if len(homes) != len(requests):
            raise FederationError(
                f"{len(requests)} requests but {len(homes)} homes")
        outcomes: "List[Optional[FederatedOutcome]]" = [None] * len(requests)
        groups: "Dict[str, List[int]]" = {}
        for index, home in enumerate(homes):
            if home not in self.domains:
                raise FederationError(f"unknown home domain: {home!r}")
            groups.setdefault(home, []).append(index)
        for home in sorted(groups):
            indices = groups[home]
            domain = self.domains[home]
            self.stats["requests"] += len(indices)
            if self.chaos.is_crashed(home):
                for index in indices:
                    outcomes[index] = self._admit(requests[index], home)
                continue
            self._acting = home
            try:
                local = domain.testbed.broker.request_services(
                    [requests[index] for index in indices])
            except BrokerCrash as fault:
                self._note_crash(home, f"died mid-batch: {fault}")
                for index in indices:
                    outcomes[index] = self._admit(requests[index], home)
                continue
            for index, outcome in zip(indices, local):
                if outcome.accepted:
                    self.stats["local"] += 1
                    sla_id = (outcome.sla.sla_id
                              if outcome.sla is not None else None)
                    outcomes[index] = FederatedOutcome(
                        request=requests[index], accepted=True, home=home,
                        domain=home, delegated=False, rerouted=(),
                        delegation_id="", sla_id=sla_id, reason="")
                    continue
                try:
                    outcomes[index] = self._delegate(
                        domain, requests[index], origin_home=home,
                        local_reason=outcome.reason
                        or "rejected by home domain")
                except BrokerCrash as fault:
                    fallen = self._acting
                    if fallen is not None \
                            and not self.chaos.is_crashed(fallen):
                        self._note_crash(
                            fallen, f"journal write died: {fault}")
                    outcomes[index] = self._admit(requests[index], home)
        return [outcome for outcome in outcomes if outcome is not None]

    def _admit(self, request: ServiceRequest,
               home: Optional[str]) -> FederatedOutcome:
        try:
            return self._admit_once(request, home)
        except BrokerCrash as fault:
            # The acting domain's own journal died mid-write. Mark the
            # domain down, then check its *durable* journal before
            # retrying: if the admission (or an outgoing delegation's
            # confirm) committed before the crash, the booking revives
            # on rejoin and re-admitting it elsewhere would be a
            # double admission.
            fallen = self._acting
            if fallen is not None and not self.chaos.is_crashed(fallen):
                self._note_crash(fallen, f"journal write died: {fault}")
            if fallen is not None:
                survivor = self._durable_admission(fallen, request)
                if survivor is not None:
                    return survivor
            return self._admit_once(request, home)

    def _durable_admission(self, fallen: str, request: ServiceRequest
                           ) -> "Optional[FederatedOutcome]":
        """A committed outcome readable from a dead domain's journal.

        Conservative on purpose: claiming a booking that recovery
        later compensates merely under-admits, while re-admitting a
        booking that revives would double-admit.
        """
        journal = self.domains[fallen].testbed.journal
        if journal is None:
            return None
        states = scan_delegations(journal)
        for delegation_id in sorted(states):
            state = states[delegation_id]
            if state.role == "home" and state.confirmed \
                    and not state.cancelled \
                    and state.client == request.client:
                self.stats["delegated"] += 1
                return FederatedOutcome(
                    request=request, accepted=True, home=fallen,
                    domain=state.counterpart, delegated=True, rerouted=(),
                    delegation_id=delegation_id, sla_id=state.sla_id,
                    reason="confirmed before the broker died")
        doomed = {state.sla_id for state in states.values()
                  if state.role == "peer" and not state.confirmed
                  and state.sla_id is not None}
        view = build_replay_view(journal)
        live = [sla.sla_id for sla in view.repository.live()
                if sla.client == request.client
                and sla.sla_id not in doomed]
        if live:
            self.stats["local"] += 1
            return FederatedOutcome(
                request=request, accepted=True, home=fallen,
                domain=fallen, delegated=False, rerouted=(),
                delegation_id="", sla_id=min(live),
                reason="committed before the broker died; "
                       "revives on rejoin")
        return None

    def _admit_once(self, request: ServiceRequest,
                    home: Optional[str]) -> FederatedOutcome:
        name = home if home is not None else self._names[0]
        if name not in self.domains:
            raise FederationError(f"unknown home domain: {name!r}")
        origin = self.domains[name]
        if not self.chaos.is_crashed(name):
            self._acting = name
            outcome = origin.testbed.broker.request_service(request)
            if outcome.accepted:
                self.stats["local"] += 1
                sla_id = (outcome.sla.sla_id
                          if outcome.sla is not None else None)
                return FederatedOutcome(
                    request=request, accepted=True, home=name, domain=name,
                    delegated=False, rerouted=(), delegation_id="",
                    sla_id=sla_id, reason="")
            return self._delegate(
                origin, request, origin_home=name,
                local_reason=outcome.reason or "rejected by home domain")
        # Home is down: a surviving domain becomes the acting home.
        alive = [peer for peer in self._names
                 if peer != name and not self.chaos.is_crashed(peer)]
        if not alive:
            self.stats["rejected"] += 1
            return FederatedOutcome(
                request=request, accepted=False, home=name, domain=None,
                delegated=False, rerouted=(name,), delegation_id="",
                sla_id=None, reason="every domain is down")
        acting = self.domains[alive[0]]
        self._acting = acting.name
        self.stats["rerouted"] += 1
        self.reroutes.append((self.sim.now, request.client, name,
                              f"acting home {acting.name}"))
        acting.probe.decide("federation", "reroute", subject=request.client,
                            constraint=f"home {name} unreachable",
                            reason=f"acting home {acting.name}",
                            chosen={"from": name, "to": acting.name})
        outcome = acting.testbed.broker.request_service(request)
        if outcome.accepted:
            self.stats["local"] += 1
            sla_id = (outcome.sla.sla_id
                      if outcome.sla is not None else None)
            return FederatedOutcome(
                request=request, accepted=True, home=name,
                domain=acting.name, delegated=False, rerouted=(name,),
                delegation_id="", sla_id=sla_id, reason="")
        return self._delegate(
            acting, request, origin_home=name,
            local_reason=outcome.reason or "rejected by acting home",
            rerouted=[name])

    # ------------------------------------------------------------------
    # Delegation (the superscheduling core)
    # ------------------------------------------------------------------

    def _delegate(self, acting: FederationDomain, request: ServiceRequest,
                  *, origin_home: str, local_reason: str,
                  rerouted: "Optional[List[str]]" = None
                  ) -> FederatedOutcome:
        rerouted = list(rerouted) if rerouted is not None else []
        sender = f"fed:{acting.name}"
        solicitation = self._next_id(acting.name)
        candidates: "List[Dict[str, object]]" = []
        bids = []
        for peer in self._names:
            if peer == acting.name:
                continue
            if not self.health.alive(acting.name, peer):
                candidates.append({"domain": peer, "skipped": "down"})
                continue
            if acting.caller.circuit_open(f"fed:{peer}", "fed_bid"):
                candidates.append({"domain": peer,
                                   "skipped": "circuit open"})
                continue
            envelope = encode_bid_request(sender, f"fed:{peer}",
                                          solicitation, acting.name,
                                          request)
            try:
                reply = acting.caller.call(envelope)
            except BrokerCrash:
                self._note_crash(peer, "died servicing a bid")
                candidates.append({"domain": peer, "skipped": "crashed"})
                continue
            except (TransientMessageError, CircuitOpenError) as fault:
                self.health.observe_failure(acting.name, peer)
                candidates.append({"domain": peer,
                                   "skipped": type(fault).__name__})
                continue
            self.health.observe_success(acting.name, peer)
            bid = decode_bid(reply.body)
            candidates.append({"domain": bid.domain, "accept": bid.accept,
                               "score": bid.score, "risk": bid.risk,
                               "headroom_after": bid.headroom_after})
            if bid.accept:
                bids.append(bid)
        acting.probe.decide("federation", "bids", subject=request.client,
                            constraint=f"solicitation {solicitation}",
                            reason=local_reason, candidates=candidates)
        for bid in sorted(bids, key=lambda entry: (-entry.score,
                                                   entry.domain)):
            delegation_id = self._next_id(acting.name)
            acting.probe.append(DELEGATION_BEGIN, role="home",
                                delegation_id=delegation_id, peer=bid.domain,
                                client=request.client)
            envelope = encode_delegate(sender, f"fed:{bid.domain}",
                                       delegation_id, acting.name, request)
            try:
                reply = acting.caller.call(envelope)
            except BrokerCrash:
                self._note_crash(bid.domain,
                                 f"died mid-delegation {delegation_id}")
                self._abandon(acting, delegation_id, bid.domain, request,
                              "peer crashed mid-delegate", rerouted,
                              notify_peer=False)
                continue
            except (TransientMessageError, CircuitOpenError):
                self.health.observe_failure(acting.name, bid.domain)
                self._abandon(acting, delegation_id, bid.domain, request,
                              "peer unreachable", rerouted,
                              notify_peer=True)
                continue
            self.health.observe_success(acting.name, bid.domain)
            delegated = decode_delegated(reply.body)
            if not delegated.accepted or delegated.sla_id is None:
                acting.probe.append(
                    DELEGATION_CANCELLED, role="home",
                    delegation_id=delegation_id, peer=bid.domain,
                    reason=f"peer rejected: {delegated.reason}")
                acting.probe.decide("federation", "delegate_rejected",
                                    subject=request.client,
                                    constraint=f"delegation {delegation_id}",
                                    reason=delegated.reason)
                continue
            confirm_failure = ""
            envelope = encode_confirm(sender, f"fed:{bid.domain}",
                                      delegation_id, delegated.sla_id)
            try:
                ack = acting.caller.call(envelope)
                if child_text(ack.body, "Status", default="") != "ok":
                    confirm_failure = "peer lost the booking"
            except BrokerCrash:
                self._note_crash(bid.domain,
                                 f"died before confirm {delegation_id}")
                confirm_failure = "peer crashed before confirm"
            except (TransientMessageError, CircuitOpenError):
                self.health.observe_failure(acting.name, bid.domain)
                confirm_failure = "confirm lost"
            if confirm_failure:
                # The peer may hold a half-delegated booking; its
                # rejoin reconciliation (or confirm-timeout janitor)
                # rolls it back, so rerouting now cannot double-admit.
                self._abandon(acting, delegation_id, bid.domain, request,
                              confirm_failure, rerouted,
                              notify_peer=not self.chaos.is_crashed(
                                  bid.domain))
                continue
            acting.probe.append(DELEGATION_CONFIRMED, role="home",
                                delegation_id=delegation_id, peer=bid.domain,
                                sla_id=delegated.sla_id)
            acting.probe.decide(
                "federation", "delegate", subject=request.client,
                sla_id=delegated.sla_id,
                constraint=f"delegation {delegation_id}",
                reason=local_reason,
                chosen={"domain": bid.domain, "score": bid.score,
                        "risk": bid.risk})
            self.stats["delegated"] += 1
            return FederatedOutcome(
                request=request, accepted=True, home=origin_home,
                domain=bid.domain, delegated=True,
                rerouted=tuple(rerouted), delegation_id=delegation_id,
                sla_id=delegated.sla_id, reason="")
        self.stats["rejected"] += 1
        acting.probe.decide("federation", "reject", subject=request.client,
                            reason=f"no domain could admit ({local_reason})")
        return FederatedOutcome(
            request=request, accepted=False, home=origin_home, domain=None,
            delegated=False, rerouted=tuple(rerouted), delegation_id="",
            sla_id=None, reason="no domain could admit")

    def _abandon(self, acting: FederationDomain, delegation_id: str,
                 peer: str, request: ServiceRequest, reason: str,
                 rerouted: "List[str]", *, notify_peer: bool) -> None:
        """Give up on one delegation attempt and record the reroute."""
        acting.probe.append(DELEGATION_CANCELLED, role="home",
                            delegation_id=delegation_id, peer=peer,
                            reason=reason)
        self.stats["rerouted"] += 1
        rerouted.append(peer)
        self.reroutes.append((self.sim.now, request.client, peer, reason))
        acting.probe.decide("federation", "reroute", subject=request.client,
                            constraint=f"delegation {delegation_id}",
                            reason=reason, chosen={"abandoned": peer})
        if notify_peer:
            envelope = encode_cancel(f"fed:{acting.name}", f"fed:{peer}",
                                     delegation_id)
            try:
                acting.caller.call(envelope)
            except BrokerCrash:
                self._note_crash(peer, "died servicing a cancel")
            except (TransientMessageError, CircuitOpenError):
                # Best effort: the peer's confirm-timeout janitor (or
                # rejoin reconciliation) cleans up without us.
                self.health.observe_failure(acting.name, peer)

    # ------------------------------------------------------------------
    # Peer-side cancellation (shared by endpoint, janitor, reconcile)
    # ------------------------------------------------------------------

    def cancel_incoming(self, domain: FederationDomain,
                        delegation_id: str, *, reason: str) -> bool:
        """Roll back one incoming delegation on ``domain``.

        Journals the cancellation first (intent), then terminates the
        SLA's session if it is still live — the order a rejoin
        reconciliation can always finish.
        """
        entry = domain.incoming.pop(delegation_id, None)
        domain.confirmed.discard(delegation_id)
        if entry is None:
            return False
        domain.probe.append(DELEGATION_CANCELLED, role="peer",
                            delegation_id=delegation_id, sla_id=entry.sla_id,
                            reason=reason)
        testbed = domain.testbed
        live_ids = {sla.sla_id for sla in testbed.repository.live()}
        if entry.sla_id in live_ids:
            testbed.broker.terminate_session(
                entry.sla_id, cause="delegation-rollback", note=reason)
        domain.probe.decide("federation", "delegate_cancelled",
                            subject=f"delegation {delegation_id}",
                            sla_id=entry.sla_id, reason=reason)
        return True
