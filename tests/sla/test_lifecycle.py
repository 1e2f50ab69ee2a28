"""Tests for the Figure 3 phase machine (repro.sla.lifecycle)."""

from __future__ import annotations

import pytest

from repro.errors import LifecycleError
from repro.sla.lifecycle import (
    PHASE_FUNCTIONS,
    Phase,
    QoSFunction,
    QoSSession,
)


class TestPhaseTransitions:
    def test_figure3_happy_path(self):
        session = QoSSession(session_id=1)
        assert session.phase is Phase.ESTABLISHMENT
        session.enter_active()
        assert session.phase is Phase.ACTIVE
        session.enter_clearing("completion")
        assert session.phase is Phase.CLEARING
        session.close()
        assert session.phase is Phase.CLOSED

    def test_establishment_may_clear_directly(self):
        session = QoSSession(session_id=1)
        session.enter_clearing("violation")
        assert session.clearing_cause == "violation"

    def test_active_from_clearing_rejected(self):
        session = QoSSession(session_id=1)
        session.enter_clearing("completion")
        with pytest.raises(LifecycleError):
            session.enter_active()

    def test_double_clearing_rejected(self):
        session = QoSSession(session_id=1)
        session.enter_clearing("completion")
        with pytest.raises(LifecycleError):
            session.enter_clearing("expiration")

    def test_close_requires_clearing(self):
        with pytest.raises(LifecycleError):
            QoSSession(session_id=1).close()

    def test_unknown_cause_rejected(self):
        with pytest.raises(LifecycleError):
            QoSSession(session_id=1).enter_clearing("boredom")

    @pytest.mark.parametrize("cause", ["expiration", "violation",
                                       "completion", "client-request"])
    def test_paper_causes_accepted(self, cause):
        session = QoSSession(session_id=1)
        session.enter_clearing(cause)
        assert session.clearing_cause == cause


class TestFunctionPhaseMapping:
    def test_establishment_functions(self):
        session = QoSSession(session_id=1)
        for function in (QoSFunction.SPECIFICATION, QoSFunction.MAPPING,
                         QoSFunction.NEGOTIATION, QoSFunction.RESERVATION):
            session.perform(function, time=1.0)
        assert len(session.history) == 4

    def test_active_function_in_establishment_rejected(self):
        session = QoSSession(session_id=1)
        with pytest.raises(LifecycleError):
            session.perform(QoSFunction.ADAPTATION)

    def test_adaptation_is_active_phase(self):
        session = QoSSession(session_id=1)
        session.enter_active()
        session.perform(QoSFunction.MONITORING)
        session.perform(QoSFunction.ADAPTATION)
        session.perform(QoSFunction.RENEGOTIATION)

    def test_clearing_allows_termination_and_accounting(self):
        session = QoSSession(session_id=1)
        session.enter_clearing("completion")
        session.perform(QoSFunction.TERMINATION)
        session.perform(QoSFunction.ACCOUNTING)
        with pytest.raises(LifecycleError):
            session.perform(QoSFunction.MONITORING)

    def test_closed_allows_nothing(self):
        session = QoSSession(session_id=1)
        session.enter_clearing("completion")
        session.close()
        for function in QoSFunction:
            with pytest.raises(LifecycleError):
                session.perform(function)

    def test_accounting_in_both_active_and_clearing(self):
        # Figure 3 shows accounting spanning the Active and Clearing
        # columns.
        assert QoSFunction.ACCOUNTING in PHASE_FUNCTIONS[Phase.ACTIVE]
        assert QoSFunction.ACCOUNTING in PHASE_FUNCTIONS[Phase.CLEARING]

    def test_every_function_appears_in_some_phase(self):
        mapped = {function
                  for functions in PHASE_FUNCTIONS.values()
                  for function in functions}
        assert mapped == set(QoSFunction)


class TestHistory:
    def test_history_records_times(self):
        session = QoSSession(session_id=1)
        session.perform(QoSFunction.SPECIFICATION, 1.5)
        assert session.history == [(1.5, QoSFunction.SPECIFICATION)]
