"""Tests for seeded randomness (repro.sim.random)."""

from __future__ import annotations

import pytest

from repro.sim.random import RandomSource


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform(0, 1) for _ in range(10)] == \
               [b.uniform(0, 1) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomSource(7)
        b = RandomSource(8)
        assert [a.uniform(0, 1) for _ in range(10)] != \
               [b.uniform(0, 1) for _ in range(10)]

    def test_named_streams_are_stable(self):
        a = RandomSource(7).stream("arrivals")
        b = RandomSource(7).stream("arrivals")
        assert [a.exponential(2.0) for _ in range(5)] == \
               [b.exponential(2.0) for _ in range(5)]

    def test_named_streams_decorrelate(self):
        source = RandomSource(7)
        arrivals = source.stream("arrivals")
        failures = source.stream("failures")
        assert [arrivals.uniform(0, 1) for _ in range(5)] != \
               [failures.uniform(0, 1) for _ in range(5)]

    def test_stream_is_cached(self):
        source = RandomSource(7)
        assert source.stream("x") is source.stream("x")


class TestDistributions:
    def test_exponential_mean(self):
        source = RandomSource(11)
        samples = [source.exponential(5.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RandomSource(0).exponential(0.0)

    def test_pareto_is_heavy_tailed(self):
        source = RandomSource(11)
        samples = [source.pareto(2.0, scale=1.0) for _ in range(10_000)]
        assert min(samples) >= 1.0
        assert max(samples) > 10.0

    def test_randint_bounds(self):
        source = RandomSource(3)
        samples = [source.randint(2, 5) for _ in range(1000)]
        assert set(samples) == {2, 3, 4, 5}

    def test_probability_extremes(self):
        source = RandomSource(3)
        assert all(source.probability(1.0) for _ in range(100))
        assert not any(source.probability(0.0) for _ in range(100))

    def test_probability_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RandomSource(0).probability(1.5)

    def test_weighted_choice_respects_weights(self):
        source = RandomSource(5)
        picks = [source.weighted_choice(["a", "b"], [0.9, 0.1])
                 for _ in range(5000)]
        assert picks.count("a") > picks.count("b") * 3
