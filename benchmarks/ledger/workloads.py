"""The ledger's workloads: what runs, and what each run must produce.

Every workload generates its inputs from the seed in ``__init__`` (the
program only ever sees the generated requests), builds the program
state in :meth:`Workload.setup` — which the harness times and repeats —
and performs one timed call per :meth:`Workload.call`. A call marks the
program work with ``with timed(label):``; everything outside those
blocks (input hand-over, outcome checks, invariant audits) is the
benchmark's own work and is neither timed nor traced.

A call returns ``(ops, accepted, failed)``: how many operations it
attempted, how many the program accepted, and how many went wrong — an
op fails when it raises, when its outcome differs from what the
generator expects, or when an invariant checked after it does not hold.

Sizes: ``calls`` is fixed per workload so that the timed sections of a
run — the harness repeats set-up and calls ``replicates`` times — last
about :data:`BASE_SECONDS` together on the machine the benchmark was
written on, and scales with ``--seconds``. Fixed work, not a
deadline, because the admission workloads grow the state they measure:
a deadline would let a slower program stop earlier, at a smaller and
cheaper state.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import Callable, ContextManager, Dict, List, Tuple

from repro.core.testbed import Testbed, build_testbed, install_all
from repro.federation.plane import FederatedControlPlane
from repro.federation.recovery import federation_invariants
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal
from repro.sla.document import AdaptationOptions, NetworkDemand
from repro.sla.negotiation import ServiceRequest
from repro.workloads import replay

#: The run length the ``calls`` below were sized for.
BASE_SECONDS = 5.0

#: One shared validity window: the slot table stays at two boundaries,
#: so admission cost is the partition's and the journal's, not the
#: table's (that is ``bench_slot_table_scaling.py``).
WINDOW = (0.0, 1_000_000.0)

_EPSILON = 1e-9

Timed = Callable[[str], ContextManager[None]]
Outcome = Tuple[int, int, int]


def _request(client: str, service_class: ServiceClass, cpu, *,
             memory_mb: float = 64.0, start: float = WINDOW[0],
             end: float = WINDOW[1], network=None,
             adaptation=None) -> ServiceRequest:
    """One request; ``cpu`` is a number (exact) or ``(floor, best)``."""
    cpu_parameter = (range_parameter(Dimension.CPU, *cpu)
                     if isinstance(cpu, tuple)
                     else exact_parameter(Dimension.CPU, cpu))
    specification = QoSSpecification.from_iterable([
        cpu_parameter, exact_parameter(Dimension.MEMORY_MB, memory_mb)])
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=service_class, specification=specification,
        start=start, end=end, network=network,
        adaptation=adaptation or AdaptationOptions())


def _unit_requests(rng: random.Random, count: int) -> "List[ServiceRequest]":
    """``count`` guaranteed 1-CPU requests over the shared window, with
    seeded client names and memory sizes."""
    return [_request(f"user{rng.randrange(10**9)}-{index}",
                     ServiceClass.GUARANTEED, 1,
                     memory_mb=float(rng.choice((32, 64, 96, 128))))
            for index in range(count)]


def _capacity(guaranteed: int, adaptive: int = 600,
              best_effort: int = 400) -> "Dict[str, object]":
    """``build_testbed`` sizing that can hold ``guaranteed`` unit
    bookings of up to 128 MB each."""
    total = guaranteed + adaptive + best_effort
    return {"total_cpu": total, "guaranteed_cpu": guaranteed,
            "adaptive_cpu": adaptive, "best_effort_cpu": best_effort,
            "machine_nodes": total, "memory_mb": float(total) * 128.0,
            "disk_mb": float(total) * 256.0}


def audit_testbed(testbed: Testbed) -> "List[str]":
    """Partition conservation and a slot-table overcommit probe."""
    problems: "List[str]" = []
    partition = testbed.partition
    surviving = partition.total - partition.failed
    if abs(sum(partition.effective_sizes()) - surviving) > _EPSILON:
        problems.append("effective pool sizes do not sum to the "
                        "surviving capacity")
    if partition.committed_total() > partition.cg + _EPSILON:
        problems.append(f"committed {partition.committed_total():g} "
                        f"exceeds Cg {partition.cg:g}")
    if partition.total_served() > surviving + _EPSILON:
        problems.append(f"served {partition.total_served():g} exceeds "
                        f"surviving capacity {surviving:g}")
    table = testbed.compute_rm.slot_table
    probes = set()
    for entry in table.entries():
        probes.add(entry.start)
        if entry.end != float("inf"):
            probes.add((entry.start + entry.end) / 2.0)
    if any(not table.overcommitment_at(probe).is_zero()
           for probe in sorted(probes)):
        problems.append("slot table overcommitted")
    return problems


class Workload:
    """What the harness needs from a workload (see the module docs)."""

    name = ""
    #: Why the workload exists — goes into BENCHMARK.json.
    why = ""
    #: Calls of one replicate at :data:`BASE_SECONDS`, before scaling.
    base_calls = 0
    #: How often the harness sets the workload up and makes its calls.
    #: Three where set-up takes seconds; more, of fewer calls, where it
    #: does not, so that every run spans several seconds of wall time
    #: and the timings of one call lie apart (see the harness).
    replicates = 3
    #: Calls form groups of this many that belong together (the four
    #: atlas scenarios, the two churn failure sizes); traced and
    #: untraced calls alternate by whole groups.
    period = 1

    def __init__(self, seed: int, ops_scale: float, smoke: bool) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.replicates = 2
        group = 2 * self.period
        self.calls = max(group, group * round(
            self.base_calls * ops_scale / group))
        #: Set by the harness in a traced run: encoding every journal
        #: record to count its bytes is too slow to do otherwise.
        self.count_bytes = False
        #: The testbeds that make up the system under test.
        self.testbeds: "List[Testbed]" = []
        self._lsn_at_start: "List[int]" = []

    def sized(self, count: int) -> int:
        """A state size: a tenth of it in smoke mode."""
        return count // 10 if self.smoke else count

    def setup(self) -> None:
        """Build a fresh state and warm up; the same every time."""
        raise NotImplementedError

    def call(self, index: int, timed: Timed) -> Outcome:
        raise NotImplementedError

    def mark_start(self) -> None:
        """Remember where the journals stood before the timed calls."""
        self._lsn_at_start = [testbed.journal.last_lsn
                              for testbed in self.testbeds]

    def audit(self) -> "List[str]":
        """End-of-replicate invariants; every string is one failure."""
        problems: "List[str]" = []
        for testbed in self.testbeds:
            problems.extend(audit_testbed(testbed))
        return problems

    def counts(self) -> "Dict[str, float]":
        """What the timed calls of this replicate left in the program:
        state sizes, journal volume, revenue."""
        records = written = 0
        for testbed, first in zip(self.testbeds, self._lsn_at_start):
            records += testbed.journal.last_lsn - first
            if self.count_bytes:
                written += sum(len(data) for data in list(
                    testbed.journal.store.records())[first:])
        return {
            "capacity.holdings": float(sum(
                len(testbed.partition.guaranteed_holdings())
                for testbed in self.testbeds)),
            "slot_table.entries": float(sum(
                len(testbed.compute_rm.slot_table)
                for testbed in self.testbeds)),
            "repository.slas": float(sum(
                len(testbed.repository) for testbed in self.testbeds)),
            "journal.records": float(records),
            "journal.bytes": float(written),
            "revenue": sum(
                testbed.broker.ledger.provider_net(testbed.sim.now)
                for testbed in self.testbeds),
        }


# ----------------------------------------------------------------------
# Bare broker: the plain admission path
# ----------------------------------------------------------------------

class _Admit(Workload):
    """Guaranteed admissions against a large live set, bare testbed
    plus in-memory journal (as ``bench_throughput.py``)."""

    preload = 5000
    warmup = 32
    batch = 1

    def __init__(self, seed, ops_scale, smoke):
        super().__init__(seed, ops_scale, smoke)
        self.live = self.sized(self.preload)
        self.requests = _unit_requests(
            self.rng, self.live + self.warmup + self.calls * self.batch)

    def setup(self):
        testbed = build_testbed(**_capacity(len(self.requests) + 64))
        install_journal(testbed)
        self.testbeds = [testbed]
        self.broker = testbed.broker
        for offset in range(0, self.live, 256):
            chunk = self.requests[offset:min(offset + 256, self.live)]
            outcomes = self.broker.request_services(chunk)
            if not all(outcome.accepted for outcome in outcomes):
                raise RuntimeError("preload admission rejected")
        self._admit(self.requests[self.live:self.live + self.warmup])

    def _admit(self, requests):
        if self.batch == 1:
            return [self.broker.request_service(request)
                    for request in requests]
        return self.broker.request_services(requests)

    def call(self, index, timed):
        first = self.live + self.warmup + index * self.batch
        requests = self.requests[first:first + self.batch]
        with timed("admit"):
            outcomes = self._admit(requests)
        accepted = sum(1 for outcome in outcomes if outcome.accepted)
        # Capacity is sized for every request: each must be admitted.
        return self.batch, accepted, self.batch - accepted


class AdmitSeq5k(_Admit):
    name = "admit_seq_5k"
    why = ("plain request_service against 5000 live bookings: one O(n) "
           "rebalance per admission dominates; codec, bus and "
           "telemetry do nothing here")
    base_calls = 140


class AdmitBatch64_5k(_Admit):
    name = "admit_batch64_5k"
    why = ("same state through request_services(64): one rebalance and "
           "one group commit per batch, so reservation, slot table, "
           "DSRT and journal carry the time instead")
    base_calls = 48
    batch = 64
    warmup = 64


# ----------------------------------------------------------------------
# The client path over XML
# ----------------------------------------------------------------------

class GatewaySessions(Workload):
    name = "gateway_sessions"
    why = ("full client sessions over XML on the default 26-node "
           "testbed with every instrument installed: few live SLAs, so "
           "codec, bus, discovery and telemetry show, not the partition")
    base_calls = 48
    replicates = 8
    #: Sessions per call; the call ends with a 30 s clock advance that
    #: expires all of them (window end, Scenario 2, optimizer).
    group = 4
    warmup_calls = 8

    def __init__(self, seed, ops_scale, smoke):
        super().__init__(seed, ops_scale, smoke)
        count = (self.warmup_calls + self.calls) * self.group
        # (kind, cpu, duration): the request itself is built at call
        # time because its window starts at the then-current sim time.
        self.sessions = [(index % 3, self.rng.choice((1, 2)),
                          self.rng.uniform(10.0, 25.0))
                         for index in range(count)]

    def setup(self):
        testbed = install_all(build_testbed(seed=self.seed))
        self.testbeds = [testbed]
        self.client = testbed.client("ledger")
        self.sim = testbed.sim
        for index in range(self.warmup_calls):
            self._sessions(index)
            self.sim.run(until=self.sim.now + 30.0)

    def _requests(self, call_index):
        now = self.sim.now
        requests = []
        first = call_index * self.group
        for offset, (kind, cpu, duration) in enumerate(
                self.sessions[first:first + self.group]):
            client = f"client{first + offset}"
            if kind == 0:
                requests.append(_request(
                    client, ServiceClass.GUARANTEED, cpu, start=now,
                    end=now + duration, network=NetworkDemand(
                        "135.200.50.101", "192.200.168.33", 10.0)))
            elif kind == 1:
                requests.append(_request(
                    client, ServiceClass.CONTROLLED_LOAD, (1, 2),
                    start=now, end=now + duration,
                    adaptation=AdaptationOptions(accept_degradation=True,
                                                 accept_promotion=True)))
            else:
                requests.append(_request(
                    client, ServiceClass.GUARANTEED, 1, memory_mb=128.0,
                    start=now, end=now + duration))
        return requests

    def _sessions(self, call_index):
        """Request, accept, verify for each session of one call."""
        results = []
        for request in self._requests(call_index):
            negotiation_id, _offers, _reason = \
                self.client.request_service(request)
            sla = levels = None
            if negotiation_id is not None:
                sla, _why = self.client.accept_offer(negotiation_id)
            if sla is not None:
                levels = self.client.verify_sla(sla.sla_id)
            results.append((request, sla, levels))
        return results

    def call(self, index, timed):
        with timed("sessions"):
            results = self._sessions(self.warmup_calls + index)
            self.sim.run(until=self.sim.now + 30.0)
        accepted = failed = 0
        for request, sla, levels in results:
            best_cpu = request.specification.best_point()[Dimension.CPU]
            if sla is None:
                failed += 1  # at most 8 CPUs are ever committed of 15
            elif (sla.client != request.client
                    or sla.agreed_point[Dimension.CPU] != best_cpu
                    or levels is None or levels[0] != sla.sla_id
                    or levels[1].get(Dimension.CPU) != best_cpu):
                accepted += 1
                failed += 1
            else:
                accepted += 1
        if self.testbeds[0].repository.live():
            failed = self.group  # the advance must expire every session
        return self.group, accepted, failed


# ----------------------------------------------------------------------
# The researcher's end-to-end: full-stack atlas replays
# ----------------------------------------------------------------------

class AtlasReplay(Workload):
    name = "atlas_replay"
    why = ("whole-scenario replays (DES engine, batched admission, "
           "job-end adaptation, verifier polling, SLO, failures): says "
           "how much of a replay is simulation and how much control "
           "plane")
    base_calls = 16
    replicates = 4
    scenarios = ("diurnal_day", "multi_tenant_mix", "rack_failure_cascade",
                 "heavy_tailed_sessions")
    period = len(scenarios)

    def __init__(self, seed, ops_scale, smoke):
        super().__init__(seed, ops_scale, smoke)
        rounds = self.calls // self.period + 1
        # One replay seed per round, shared by its four scenarios;
        # the last one is the warm-up round's.
        self.round_seeds = [self.rng.randrange(2**31)
                            for _ in range(rounds)]

    def setup(self):
        for name in self.scenarios:
            replay.replay_scenario(name, seed=self.round_seeds[-1],
                                   with_journal=True)

    def mark_start(self):
        self._totals = dict.fromkeys(
            ("journal.records", "journal.bytes", "repository.slas",
             "revenue"), 0.0)

    def call(self, index, timed):
        name = self.scenarios[index % self.period]
        seed = self.round_seeds[index // self.period]
        with timed("replay"):
            result = replay.replay_scenario(name, seed=seed,
                                            with_journal=True)
        report = result.report
        sessions = report["sessions"]
        accepted = (report["guaranteed_accepted"]
                    + report["controlled_accepted"]
                    + report["best_effort_granted"])
        problems = replay.check_invariants(result)
        testbed = result.testbed
        self._totals["journal.records"] += testbed.journal.last_lsn
        if self.count_bytes:
            self._totals["journal.bytes"] += sum(
                len(data) for data in testbed.journal.store.records())
        self._totals["repository.slas"] += len(testbed.repository)
        self._totals["revenue"] += report["revenue"]
        self.testbeds = [testbed]
        return sessions, accepted, sessions if problems else 0

    def audit(self):
        return []  # check_invariants ran on every replay

    def counts(self):
        last = self.testbeds[0]
        counts = dict(self._totals)
        counts["repository.slas"] /= self.calls  # mean per replay
        counts["capacity.holdings"] = float(
            len(last.partition.guaranteed_holdings()))
        counts["slot_table.entries"] = float(
            len(last.compute_rm.slot_table))
        return counts


# ----------------------------------------------------------------------
# Federation: local, delegated and rerouted admission
# ----------------------------------------------------------------------

class _Federated(Workload):
    """Two domains on one bus; ``d1`` is the home of every request."""

    d1_guaranteed = 100
    preload_d1 = 0
    warmup = 32
    batch = 1

    def __init__(self, seed, ops_scale, smoke):
        super().__init__(seed, ops_scale, smoke)
        self.requests = _unit_requests(
            self.rng,
            self.preload_d1 + self.warmup + self.calls * self.batch)

    def build(self, d1_guaranteed: int) -> None:
        room = len(self.requests) + 64
        self.plane = FederatedControlPlane(
            domains=2, seed=self.seed,
            capacity={"d1": _capacity(d1_guaranteed, 60, 40),
                      "d2": _capacity(room, 60, 40)})
        self.testbeds = [self.plane.domains[name].testbed
                         for name in self.plane.names]
        if self.preload_d1:
            outcomes = self.plane.request_services(
                self.requests[:self.preload_d1],
                homes=["d1"] * self.preload_d1)
            if not all(outcome.accepted and outcome.domain == "d1"
                       for outcome in outcomes):
                raise RuntimeError("d1 preload was not admitted at home")

    def mark_start(self):
        super().mark_start()
        self._stats_at_start = dict(self.plane.stats)

    def expected(self, outcome) -> bool:
        raise NotImplementedError

    def _one(self, request):
        return self.plane.request_service(request, home="d1")

    def call(self, index, timed):
        request = self.requests[self.preload_d1 + self.warmup + index]
        with timed("admit"):
            outcome = self._one(request)
        return (1, int(outcome.accepted),
                0 if self.expected(outcome) else 1)

    def audit(self):
        problems = list(federation_invariants(self.plane))
        for name in self.plane.alive_domains():
            problems.extend(
                f"{name}: {problem}" for problem in
                audit_testbed(self.plane.domains[name].testbed))
        return problems

    def counts(self):
        counts = super().counts()
        for key in ("delegated", "rerouted"):
            counts[f"plane.{key}"] = float(
                self.plane.stats[key] - self._stats_at_start[key])
        return counts


class FedLocal(_Federated):
    name = "fed_local"
    why = ("batches of 64 admitted at their home domain through the "
           "federation: the wrapper and install_all instruments over "
           "the same admission as admit_batch64_5k")
    base_calls = 10
    replicates = 6
    batch = 64
    warmup = 64

    def setup(self):
        self.build(len(self.requests) + 64)
        self._batch(self.requests[:self.warmup])

    def _batch(self, requests):
        homes = [self.plane.names[index % 2]
                 for index in range(len(requests))]
        return self.plane.request_services(requests, homes=homes), homes

    def call(self, index, timed):
        first = self.warmup + index * self.batch
        requests = self.requests[first:first + self.batch]
        with timed("admit"):
            outcomes, homes = self._batch(requests)
        accepted = sum(1 for outcome in outcomes if outcome.accepted)
        local = sum(1 for outcome, home in zip(outcomes, homes)
                    if outcome.accepted and outcome.domain == home
                    and not outcome.delegated and not outcome.rerouted)
        return self.batch, accepted, self.batch - local


class FedDelegate(_Federated):
    name = "fed_delegate"
    why = ("requests homed at a full domain: reject, bid, offer and "
           "two-phase delegate over XML; the federation protocol, "
           "codec and journaled delegation carry the time")
    base_calls = 200
    replicates = 6
    preload_d1 = 100

    def setup(self):
        self.build(self.d1_guaranteed)
        for request in self.requests[self.preload_d1:
                                     self.preload_d1 + self.warmup]:
            self._one(request)

    def expected(self, outcome):
        return (outcome.accepted and outcome.delegated
                and outcome.domain == "d2" and not outcome.rerouted)


class FedReroute(_Federated):
    name = "fed_reroute"
    why = ("requests homed at a crashed domain: the plane detects the "
           "dead home and admits at the acting survivor; the "
           "robustness path's latency")
    base_calls = 400
    replicates = 6
    preload_d1 = 100

    def setup(self):
        self.build(self.d1_guaranteed)
        self.plane.crash_broker("d1")
        for request in self.requests[self.preload_d1:
                                     self.preload_d1 + self.warmup]:
            self._one(request)

    def expected(self, outcome):
        return (outcome.accepted and outcome.domain == "d2"
                and outcome.rerouted == ("d1",) and not outcome.delegated)


# ----------------------------------------------------------------------
# The paper's adaptation scenarios under churn
# ----------------------------------------------------------------------

class AdaptChurn2k(Workload):
    name = "adapt_churn_2k"
    why = ("fail, repair, terminate, admit against 2000 live SLAs near "
           "full load: drives the partition through apply_failure, "
           "apply_repair and remove_guaranteed, which admission never "
           "calls")
    base_calls = 36
    period = 2  # failure sizes alternate: half of Ca, then Ca + 10 %
    live = 2000
    warmup_calls = 4

    def __init__(self, seed, ops_scale, smoke):
        super().__init__(seed, ops_scale, smoke)
        self.count = self.sized(self.live)
        total = self.count + self.warmup_calls + self.calls
        # Half guaranteed (1 CPU), half controlled-load (1-2 CPUs,
        # degradable), in seeded order.
        kinds = [index % 2 for index in range(total)]
        self.rng.shuffle(kinds)
        self.requests = [
            _request(f"g{index}", ServiceClass.GUARANTEED, 1)
            if kind == 0 else
            _request(f"c{index}", ServiceClass.CONTROLLED_LOAD, (1, 2),
                     adaptation=AdaptationOptions(accept_degradation=True))
            for index, kind in enumerate(kinds)]
        # Commitments are 1 CPU per SLA; best-point demand averages
        # 1.5. Cg + Ca is sized so that demand is about 90 % of it.
        self.cg = round(1.3 * self.count)
        self.ca = round(0.35 * self.count)

    def setup(self):
        testbed = install_all(build_testbed(
            **_capacity(self.cg, self.ca, round(0.05 * self.count)),
            seed=self.seed))
        self.testbeds = [testbed]
        self.broker = testbed.broker
        self.sim = testbed.sim
        self.machine = testbed.machine
        self.partition = testbed.partition
        self.live_ids: "List[int]" = []
        for offset in range(0, self.count, 64):
            chunk = self.requests[offset:min(offset + 64, self.count)]
            for outcome in self.broker.request_services(chunk):
                if not outcome.accepted:
                    raise RuntimeError("churn preload rejected")
                self.live_ids.append(outcome.sla.sla_id)
        for index in range(self.warmup_calls):
            self._cycle(index, _untimed)

    def _cycle(self, cycle_index: int, timed: Timed) -> Outcome:
        failed = 0
        nodes = (self.ca // 2 if cycle_index % 2 == 0
                 else round(1.1 * self.ca))
        with timed("churn.fail"):
            down = self.machine.fail_nodes(nodes)
            self.sim.run(until=self.sim.now + 1.0)
        # No holding may be served below its commitment: the failure
        # is within Ca, or within Ca plus what Cg has uncommitted.
        if self.partition.last_report.shortfalls or any(
                holding.served < holding.entitled - _EPSILON
                for holding in self.partition.guaranteed_holdings()):
            failed = 1
        with timed("churn.repair"):
            self.machine.repair_nodes(down)
            self.sim.run(until=self.sim.now + 1.0)
        # Nothing is failed any more and every SLA is served its whole
        # demand again, as before the failure.
        if self.partition.failed > _EPSILON or any(
                abs(holding.served - holding.demand) > _EPSILON
                for holding in self.partition.guaranteed_holdings()):
            failed = 1
        oldest = self.live_ids.pop(0)
        with timed("churn.terminate"):
            self.broker.terminate_session(oldest)
        request = self.requests[self.count + cycle_index]
        with timed("churn.admit"):
            outcome = self.broker.request_service(request)
        if outcome.accepted:
            self.live_ids.append(outcome.sla.sla_id)
        else:
            failed = 1  # the terminated session's commitment is free
        return 1, int(outcome.accepted), failed

    def call(self, index, timed):
        return self._cycle(self.warmup_calls + index, timed)


def _untimed(_label: str) -> "ContextManager[None]":
    """A no-op region, for the warm-up cycles ``setup`` makes."""
    return nullcontext()


WORKLOADS = {cls.name: cls for cls in (
    AdmitSeq5k, AdmitBatch64_5k, GatewaySessions, AtlasReplay,
    FedLocal, FedDelegate, FedReroute, AdaptChurn2k)}
