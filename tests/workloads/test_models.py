"""Validation, analytic means and scaling of the atlas's arrival and
duration models (repro.workloads.arrivals / durations).

The property tests in ``test_properties.py`` draw only valid
parameters; these pin what each model refuses and the closed forms the
offered-load arithmetic relies on.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.sim.random import RandomSource
from repro.workloads.arrivals import (ConstantRate, DiurnalRate,
                                      FlashCrowdRate, sample_arrivals)
from repro.workloads.durations import (ExponentialDuration,
                                       LognormalDuration, ParetoDuration)


class TestArrivalValidation:
    @pytest.mark.parametrize("build", [
        lambda: ConstantRate(rate=0.0),
        lambda: DiurnalRate(base_rate=0.0, amplitude=0.5, period=10.0),
        lambda: DiurnalRate(base_rate=1.0, amplitude=1.0, period=10.0),
        lambda: DiurnalRate(base_rate=1.0, amplitude=-0.1, period=10.0),
        lambda: DiurnalRate(base_rate=1.0, amplitude=0.5, period=0.0),
        lambda: FlashCrowdRate(base_rate=0.0, bursts=((0.0, 1.0, 2.0),)),
        lambda: FlashCrowdRate(base_rate=1.0, bursts=()),
        lambda: FlashCrowdRate(base_rate=1.0, bursts=((5.0, 5.0, 2.0),)),
        lambda: FlashCrowdRate(base_rate=1.0, bursts=((0.0, 1.0, 0.5),)),
    ], ids=["constant-rate", "diurnal-base", "diurnal-amplitude-one",
            "diurnal-amplitude-negative", "diurnal-period",
            "flash-base", "flash-no-burst", "flash-empty-window",
            "flash-multiplier"])
    def test_rejected(self, build):
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize("process", [
        ConstantRate(rate=1.0),
        DiurnalRate(base_rate=1.0, amplitude=0.5, period=10.0),
        FlashCrowdRate(base_rate=1.0, bursts=((0.0, 1.0, 2.0),)),
    ], ids=["constant", "diurnal", "flash"])
    @pytest.mark.parametrize("factors", [(0.0, 1.0), (1.0, -1.0)],
                             ids=["time", "rate"])
    def test_non_positive_scaling_factor_rejected(self, process, factors):
        time_factor, rate_factor = factors
        with pytest.raises(ValidationError):
            process.scaled(time_factor=time_factor, rate_factor=rate_factor)

    def test_sample_arrivals_needs_a_positive_horizon(self):
        with pytest.raises(ValidationError):
            sample_arrivals(ConstantRate(rate=1.0), 0.0, RandomSource(1))


class TestArrivalShapes:
    def test_diurnal_crest_and_trough(self):
        process = DiurnalRate(base_rate=2.0, amplitude=0.5, period=100.0)
        assert process.peak_rate == pytest.approx(3.0)
        assert process.rate_at(25.0) == pytest.approx(3.0)
        assert process.rate_at(75.0) == pytest.approx(1.0)
        assert process.rate_at(0.0) == pytest.approx(2.0)

    def test_diurnal_phase_shifts_the_cycle(self):
        process = DiurnalRate(base_rate=2.0, amplitude=0.5, period=100.0,
                              phase=25.0)
        assert process.rate_at(0.0) == pytest.approx(3.0)

    def test_overlapping_bursts_take_the_largest_multiplier(self):
        process = FlashCrowdRate(base_rate=1.0, bursts=(
            (10.0, 30.0, 3.0), (20.0, 40.0, 5.0)))
        assert process.peak_rate == 5.0
        assert process.rate_at(5.0) == 1.0
        assert process.rate_at(15.0) == 3.0
        assert process.rate_at(25.0) == 5.0
        assert process.rate_at(35.0) == 5.0
        # Half-open windows: the end instant is back to baseline.
        assert process.rate_at(40.0) == 1.0

    def test_scaling_compresses_time_and_rescales_rate(self):
        diurnal = DiurnalRate(base_rate=1.0, amplitude=0.4, period=100.0,
                              phase=10.0)
        flash = FlashCrowdRate(base_rate=1.0, bursts=((10.0, 20.0, 4.0),))
        for process in (diurnal, flash, ConstantRate(rate=1.0)):
            small = process.scaled(time_factor=0.5, rate_factor=2.0)
            for time in (0.0, 7.0, 12.0, 15.0, 33.0, 80.0):
                assert small.rate_at(time * 0.5) == \
                    pytest.approx(2.0 * process.rate_at(time))


class TestDurationValidation:
    @pytest.mark.parametrize("build", [
        lambda: ExponentialDuration(mean_duration=0.0),
        lambda: LognormalDuration(median=0.0, sigma=1.0),
        lambda: LognormalDuration(median=1.0, sigma=0.0),
        lambda: ParetoDuration(shape=1.0, scale=1.0),
        lambda: ParetoDuration(shape=2.0, scale=0.0),
        lambda: ParetoDuration(shape=2.0, scale=5.0, cap=5.0),
    ], ids=["exponential-mean", "lognormal-median", "lognormal-sigma",
            "pareto-infinite-mean", "pareto-scale", "pareto-cap"])
    def test_rejected(self, build):
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize("model", [
        ExponentialDuration(mean_duration=5.0),
        LognormalDuration(median=5.0, sigma=0.5),
        ParetoDuration(shape=2.0, scale=5.0),
    ], ids=["exponential", "lognormal", "pareto"])
    def test_non_positive_time_factor_rejected(self, model):
        with pytest.raises(ValidationError):
            model.scaled(time_factor=0.0)


class TestDurationMeans:
    def test_exponential_mean_is_its_parameter(self):
        assert ExponentialDuration(mean_duration=7.5).mean() == 7.5

    def test_lognormal_mean_closed_form(self):
        model = LognormalDuration(median=4.0, sigma=1.0)
        assert model.mean() == pytest.approx(4.0 * math.exp(0.5))

    def test_pareto_mean_closed_form(self):
        assert ParetoDuration(shape=3.0, scale=2.0).mean() == \
            pytest.approx(3.0)

    def test_scaling_scales_the_mean(self):
        for model in (ExponentialDuration(mean_duration=8.0),
                      LognormalDuration(median=4.0, sigma=0.7),
                      ParetoDuration(shape=2.5, scale=3.0, cap=90.0)):
            assert model.scaled(time_factor=0.25).mean() == \
                pytest.approx(0.25 * model.mean())

    def test_pareto_scaling_moves_the_cap_too(self):
        capped = ParetoDuration(shape=2.0, scale=3.0, cap=30.0)
        assert capped.scaled(time_factor=0.5).cap == 15.0
        uncapped = ParetoDuration(shape=2.0, scale=3.0)
        assert uncapped.scaled(time_factor=0.5).cap is None

    def test_pareto_draws_never_pass_the_cap(self):
        model = ParetoDuration(shape=1.1, scale=10.0, cap=12.0)
        rng = RandomSource(5)
        draws = [model.sample(rng) for _ in range(200)]
        assert max(draws) == 12.0
        assert min(draws) >= 10.0
