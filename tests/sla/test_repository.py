"""Tests for the SLA repository (repro.sla.repository)."""

from __future__ import annotations

import pytest

from repro.errors import SLAError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions, ServiceSLA
from repro.sla.repository import SLARepository


def make_sla(repo, service_class=ServiceClass.CONTROLLED_LOAD,
             client="c", **adaptation):
    if service_class is ServiceClass.GUARANTEED:
        spec = QoSSpecification.of(exact_parameter(Dimension.CPU, 4))
    else:
        spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
    sla = ServiceSLA(sla_id=repo.next_id(), client=client, service_name="s",
                     service_class=service_class, specification=spec,
                     agreed_point=spec.best_point(), start=0.0, end=10.0,
                     adaptation=AdaptationOptions(**adaptation))
    return repo.save(sla)


class TestStorage:
    def test_ids_start_at_first_id(self):
        repo = SLARepository(first_id=1055)
        assert repo.next_id() == 1055
        assert repo.next_id() == 1056

    def test_save_and_get(self):
        repo = SLARepository()
        sla = make_sla(repo)
        assert repo.get(sla.sla_id) is sla

    def test_get_unknown_raises(self):
        with pytest.raises(SLAError):
            SLARepository().get(1)

    def test_all_ordered_by_id(self):
        repo = SLARepository()
        slas = [make_sla(repo) for _ in range(3)]
        assert [s.sla_id for s in repo.all()] == \
            sorted(s.sla_id for s in slas)


class TestPersistence:
    def test_round_trip_preserves_documents_and_statuses(self):
        repo = SLARepository()
        proposed = make_sla(repo)
        active = make_sla(repo, ServiceClass.GUARANTEED,
                          accept_termination=True)
        active.establish()
        active.activate()
        done = make_sla(repo)
        done.establish()
        done.activate()
        done.complete()

        restored = SLARepository.from_xml(repo.export_xml())
        assert len(restored) == 3
        for original in repo.all():
            copy = restored.get(original.sla_id)
            assert copy.status is original.status
            assert copy.client == original.client
            assert copy.agreed_point == original.agreed_point
            assert copy.adaptation == original.adaptation
        assert [s.sla_id for s in restored.active()] == [active.sla_id]

    def test_degraded_delivered_point_survives(self):
        from repro.qos.parameters import Dimension
        repo = SLARepository()
        sla = make_sla(repo)
        sla.establish()
        sla.activate()
        sla.set_delivered_point({Dimension.CPU: 2.0})
        restored = SLARepository.from_xml(repo.export_xml())
        copy = restored.get(sla.sla_id)
        assert copy.is_degraded()
        assert copy.delivered_point == {Dimension.CPU: 2.0}

    def test_id_counter_resumes_after_highest(self):
        repo = SLARepository()
        make_sla(repo)
        last = make_sla(repo)
        restored = SLARepository.from_xml(repo.export_xml())
        assert restored.next_id() == last.sla_id + 1

    def test_empty_repository_round_trip(self):
        restored = SLARepository.from_xml(SLARepository().export_xml())
        assert len(restored) == 0
        assert restored.next_id() == 1000

    def test_resume_ids_never_drops_below_first_id(self):
        repo = SLARepository(first_id=5000)
        repo.resume_ids(1200)
        assert repo.next_id() == 5000
        repo.resume_ids(6000)
        assert repo.next_id() == 6001

    def test_restore_keeps_the_receivers_first_id(self):
        repo = SLARepository(first_id=5000)
        other = SLARepository()
        make_sla(other)
        repo.restore(other)
        assert repo.next_id() == 5000
        ahead = SLARepository(first_id=7000)
        make_sla(ahead)
        repo.restore(ahead)
        assert repo.next_id() == 7001

    def test_wrong_root_rejected(self):
        from repro.errors import MessageError
        with pytest.raises(MessageError):
            SLARepository.from_xml("<NotARepository/>")


class TestFilters:
    def test_live_and_active(self):
        repo = SLARepository()
        proposed = make_sla(repo)
        established = make_sla(repo)
        established.establish()
        active = make_sla(repo)
        active.establish()
        active.activate()
        done = make_sla(repo)
        done.establish()
        done.activate()
        done.complete()
        assert {s.sla_id for s in repo.live()} == \
            {established.sla_id, active.sla_id}
        assert [s.sla_id for s in repo.active()] == [active.sla_id]

    def test_degradable_filter_is_scenario1(self):
        repo = SLARepository()
        rigid = make_sla(repo)
        rigid.establish()
        rigid.activate()
        flexible = make_sla(repo, accept_degradation=True)
        flexible.establish()
        flexible.activate()
        terminable = make_sla(repo, accept_termination=True)
        terminable.establish()
        terminable.activate()
        assert {s.sla_id for s in repo.degradable()} == \
            {flexible.sla_id, terminable.sla_id}

    def test_degraded_filter(self):
        repo = SLARepository()
        sla = make_sla(repo)
        sla.establish()
        sla.activate()
        assert repo.degraded() == []
        sla.set_delivered_point({Dimension.CPU: 2.0})
        assert repo.degraded() == [sla]
