"""Differential test of the SLA repository's open index.

``SLARepository.live()``, ``active()``, ``degradable()`` and
``degraded()`` read an index of the documents not known to be closed
instead of sorting every stored SLA. The state machine below drives
saves (ids in and out of order, several in one step), overwrites,
status transitions, delivered-point moves, ``restore`` and
``from_xml``; after every step each reader must return exactly the
documents — the same objects, in the same order — that a full-scan
filter of ``all()`` selects, and once scanned the index must hold
exactly the unclosed documents in id order.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.testbed import build_testbed
from repro.errors import SLAError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions, ServiceSLA, SlaStatus
from repro.sla.negotiation import ServiceRequest
from repro.sla.repository import SLARepository

_CLOSED = (SlaStatus.COMPLETED, SlaStatus.TERMINATED, SlaStatus.EXPIRED)
_TRANSITIONS = ("establish", "activate", "complete", "terminate", "expire")
_SPEC = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))

#: Ids drawn below, around and above the default counter's start, so
#: explicit saves land both behind the index's last key and past it.
_IDS = st.integers(min_value=990, max_value=1030)
_STATUSES = st.sampled_from(list(SlaStatus))


def _document(sla_id: int, degradable: bool,
              status: SlaStatus = SlaStatus.PROPOSED) -> ServiceSLA:
    sla = ServiceSLA(sla_id=sla_id, client="c", service_name="s",
                     service_class=ServiceClass.CONTROLLED_LOAD,
                     specification=_SPEC, agreed_point=_SPEC.best_point(),
                     start=0.0, end=10.0,
                     adaptation=AdaptationOptions(
                         accept_degradation=degradable))
    sla.status = status
    return sla


def _same(got: List[ServiceSLA], expected: List[ServiceSLA]) -> bool:
    return (len(got) == len(expected)
            and all(a is b for a, b in zip(got, expected)))


class RepositoryIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.repository = SLARepository()
        self.model: Dict[int, ServiceSLA] = {}

    def _save(self, sla: ServiceSLA) -> None:
        self.repository.save(sla)
        self.model[sla.sla_id] = sla

    def _adopt(self, repository: SLARepository) -> None:
        self.model = {sla.sla_id: sla for sla in repository.all()}

    @rule(degradable=st.booleans())
    def save_next(self, degradable: bool) -> None:
        self._save(_document(self.repository.next_id(), degradable))

    @rule(entries=st.lists(st.tuples(_IDS, st.booleans(), _STATUSES),
                           min_size=1, max_size=5))
    def save_several(self, entries) -> None:
        """Saves with no scan between them: out-of-order ids pile up
        before the next reader sorts."""
        for sla_id, degradable, status in entries:
            self._save(_document(sla_id, degradable, status))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), degradable=st.booleans(), status=_STATUSES)
    def overwrite(self, data, degradable: bool, status: SlaStatus) -> None:
        sla_id = data.draw(st.sampled_from(sorted(self.model)))
        self._save(_document(sla_id, degradable, status))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), transition=st.sampled_from(_TRANSITIONS))
    def move(self, data, transition: str) -> None:
        sla = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        with contextlib.suppress(SLAError):
            getattr(sla, transition)()

    @precondition(lambda self: self.model)
    @rule(data=st.data(), degrade=st.booleans())
    def deliver(self, data, degrade: bool) -> None:
        sla = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        sla.set_delivered_point({Dimension.CPU: 2.0} if degrade
                                else sla.agreed_point)

    @rule(data=st.data())
    def restore_replayed(self, data) -> None:
        """Crash recovery's shape: a fresh repository filled in any
        order (statuses set before each save), swapped in."""
        copies = SLARepository.from_xml(self.repository.export_xml()).all()
        view = SLARepository()
        for sla in data.draw(st.permutations(copies)):
            view.save(sla)
        self.repository.restore(view)
        self._adopt(view)

    @rule()
    def restore_empty(self) -> None:
        self.repository.restore(SLARepository())
        self.model = {}

    @rule()
    def reload(self) -> None:
        self.repository = SLARepository.from_xml(
            self.repository.export_xml())
        self._adopt(self.repository)

    @invariant()
    def readers_equal_a_full_scan(self) -> None:
        repository = self.repository
        everything = repository.all()
        assert _same(everything, [self.model[i] for i in sorted(self.model)])
        index = repository._open  # noqa: SLF001 — the structure under test
        for sla in everything:
            if sla.status not in _CLOSED:
                assert index.get(sla.sla_id) is sla

        live = [sla for sla in everything if sla.status.is_live]
        active = [sla for sla in everything
                  if sla.status is SlaStatus.ACTIVE]
        assert _same(repository.live(), live)
        assert _same(repository.active(), active)
        assert _same(repository.degradable(),
                     [sla for sla in active if sla.adaptation.is_degradable])
        assert _same(repository.degraded(),
                     [sla for sla in active if sla.is_degraded()])

        scanned = repository._open  # noqa: SLF001
        opened = [sla for sla in everything if sla.status not in _CLOSED]
        assert list(scanned) == [sla.sla_id for sla in opened]
        assert _same(list(scanned.values()), opened)


RepositoryIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestRepositoryIndex = RepositoryIndexMachine.TestCase


def _session(client: str, start: float, end: float) -> ServiceRequest:
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=QoSSpecification.of(
            exact_parameter(Dimension.CPU, 1),
            exact_parameter(Dimension.MEMORY_MB, 64)),
        start=start, end=end)


def _index_after_history(closed: int):
    """A bare testbed holding three long sessions while ``closed``
    short ones run to the end of their windows."""
    testbed = build_testbed()
    broker, sim = testbed.broker, testbed.sim
    held = [broker.request_service(_session(f"held{i}", 0.0, 1e6)).sla
            for i in range(3)]
    for index in range(closed):
        outcome = broker.request_service(
            _session(f"short{index}", sim.now, sim.now + 5.0))
        assert outcome.accepted
        sim.run(until=sim.now + 10.0)
    repository = broker.repository
    assert len(repository) == 3 + closed
    repository.live()
    return held, repository._open  # noqa: SLF001 — the structure counted


def test_one_scan_leaves_only_the_live_documents_whatever_the_history():
    """Work per scan is bounded by live state: after one scan the index
    holds the three live documents, after 4 closed sessions or 96."""
    for closed in (4, 96):
        held, index = _index_after_history(closed)
        assert all(sla.status is SlaStatus.ACTIVE for sla in held)
        assert list(index) == [sla.sla_id for sla in held]
