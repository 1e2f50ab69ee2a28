"""Time-weighted metrics: the harness's window and its oracle.

The experiment harness integrates its signals through one
:class:`~repro.telemetry.metrics.TimeWeightedGauge` per signal
(``harness._window`` / ``harness._observe``). The multi-signal
:class:`TimeWeightedMetrics` it used before is kept as the oracle in
``tests/telemetry/reference.py``: ``TestHarnessWindow`` holds the
gauges to it bit for bit, the other classes pin the oracle's own
semantics (zero-fill of late-first signals, one close per window).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.experiments.harness import _observe, _window

from ..telemetry.reference import TimeWeightedMetrics

_SIGNALS = ("utilization", "violation", "revenue_rate")
_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.5, 1.0 / 3.0, 1e-300)),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.integers(min_value=-5, max_value=5))
_DELAYS = st.one_of(
    st.sampled_from((0.0, 0.0, 0.1, 1.0 / 3.0, 1e-9)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
#: Each observation names any subset of the signals: a signal first
#: named late is zero-filled, a delay of 0.0 repeats an instant.
_OBSERVATIONS = st.lists(
    st.tuples(_DELAYS, st.dictionaries(st.sampled_from(_SIGNALS),
                                       _VALUES)),
    max_size=30)


def _bits(value: float) -> str:
    return float(value).hex()


class TestHarnessWindow:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_OBSERVATIONS, _DELAYS,
           st.sampled_from((0.0, 7.5, 1.0 / 3.0, 1e6)))
    def test_bit_equal_to_the_oracle(self, observations, tail, start):
        time = start
        for delay, _signals in observations:
            time += delay
        end = time + tail
        window = _window(start, end, *_SIGNALS)
        oracle = TimeWeightedMetrics(start=start)
        time = start
        for delay, signals in observations:
            time += delay
            _observe(window, time, **signals)
            oracle.observe(time, **signals)
        oracle.finalize(end)
        for name in _SIGNALS:
            assert _bits(window[name].integral()) \
                == _bits(oracle.integral(name)), name
            assert _bits(window[name].mean()) == _bits(oracle.mean(name)), \
                name

    def test_late_first_signal_is_zero_filled(self):
        window = _window(0.0, 20.0, "x")
        _observe(window, 10.0, x=4.0)
        assert window["x"].integral() == 40.0
        assert window["x"].mean() == 2.0

    def test_backwards_observation_is_rejected(self):
        window = _window(5.0, 10.0, "x")
        with pytest.raises(ValidationError, match="precedes"):
            _observe(window, 4.0, x=1.0)


class TestIntegration:
    def test_piecewise_constant_integral(self):
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(0.0, utilization=0.5)
        metrics.observe(10.0, utilization=1.0)
        metrics.finalize(20.0)
        # 0.5 over [0,10) plus 1.0 over [10,20).
        assert metrics.integral("utilization") == pytest.approx(15.0)
        assert metrics.mean("utilization") == pytest.approx(0.75)

    def test_signals_persist_until_changed(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, a=2.0, b=1.0)
        metrics.observe(5.0, a=0.0)  # b unchanged
        metrics.finalize(10.0)
        assert metrics.integral("a") == pytest.approx(10.0)
        assert metrics.integral("b") == pytest.approx(10.0)

    def test_unseen_signal_is_zero(self):
        metrics = TimeWeightedMetrics()
        metrics.finalize(10.0)
        assert metrics.integral("nothing") == 0.0
        assert metrics.mean("nothing") == 0.0

    def test_out_of_order_observation_rejected(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(5.0, x=1.0)
        with pytest.raises(ValueError):
            metrics.observe(4.0, x=2.0)

    def test_same_instant_updates_take_effect(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, x=1.0)
        metrics.observe(0.0, x=5.0)  # replaces before any time passes
        metrics.finalize(2.0)
        assert metrics.integral("x") == pytest.approx(10.0)

    def test_empty_window_mean_is_zero(self):
        metrics = TimeWeightedMetrics(start=3.0)
        metrics.observe(3.0, x=4.0)
        assert metrics.mean("x") == 0.0

    def test_nonzero_start(self):
        metrics = TimeWeightedMetrics(start=100.0)
        metrics.observe(100.0, x=2.0)
        metrics.finalize(110.0)
        assert metrics.elapsed == pytest.approx(10.0)
        assert metrics.mean("x") == pytest.approx(2.0)


class TestAuditRegressions:
    """Findings of an earlier bug audit, pinned as regressions: the
    zero-fill semantics for signals that first appear mid-window, and
    silent re-finalization moving the window boundary under an
    already-read mean.
    """

    def test_late_first_signal_is_zero_filled(self):
        # A signal first seen at t=10 contributes 0 over [0, 10): the
        # mean is diluted by the lead-in gap, by design, and the gap
        # itself is queryable.
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(10.0, x=4.0)
        metrics.finalize(20.0)
        assert metrics.integral("x") == pytest.approx(40.0)
        assert metrics.mean("x") == pytest.approx(2.0)
        assert metrics.first_observed("x") == 10.0
        assert metrics.zero_filled("x") == pytest.approx(10.0)

    def test_unseen_signal_has_no_gap(self):
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(0.0, y=1.0)
        metrics.finalize(5.0)
        assert metrics.first_observed("never") is None
        assert metrics.zero_filled("never") == 0.0
        assert metrics.zero_filled("y") == 0.0

    def test_refinalize_is_rejected(self):
        # Regression: a second finalize used to silently extend the
        # window, corrupting means already read from the first close.
        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, x=1.0)
        metrics.finalize(10.0)
        assert metrics.finalized
        before = metrics.mean("x")
        with pytest.raises(ValidationError):
            metrics.finalize(20.0)
        assert metrics.mean("x") == before
        assert metrics.elapsed == pytest.approx(10.0)

    def test_observe_after_finalize_is_rejected(self):
        metrics = TimeWeightedMetrics()
        metrics.finalize(10.0)
        with pytest.raises(ValidationError):
            metrics.observe(11.0, x=1.0)
