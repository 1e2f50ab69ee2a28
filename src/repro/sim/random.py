"""Seeded randomness for workloads and failure injection.

All stochastic behaviour in the library flows through a
:class:`RandomSource` so that every experiment is reproducible from a
single integer seed. Named substreams (``source.stream("arrivals")``)
decorrelate subsystems: changing how many samples the failure injector
draws does not perturb the arrival process.
"""

from __future__ import annotations

import random as _random
from typing import Sequence, TypeVar
from ..errors import ValidationError

T = TypeVar("T")


class RandomSource:
    """A seeded random stream with the distributions workloads need."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = _random.Random(seed)
        self._streams: "dict[str, RandomSource]" = {}

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    def stream(self, name: str) -> "RandomSource":
        """A decorrelated child stream, keyed deterministically by name."""
        if name not in self._streams:
            self._streams[name] = RandomSource(_stable_child_seed(self._seed, name))
        return self._streams[name]

    def uniform(self, low: float, high: float) -> float:
        """Uniform sample in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential sample with the given mean (mean > 0)."""
        if mean <= 0:
            raise ValidationError(f"exponential mean must be positive: {mean}")
        return self._rng.expovariate(1.0 / mean)

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto sample: heavy-tailed service durations."""
        if shape <= 0 or scale <= 0:
            raise ValidationError("pareto shape and scale must be positive")
        return scale * self._rng.paretovariate(shape)

    def normal(self, mean: float, stddev: float) -> float:
        """Gaussian sample."""
        return self._rng.gauss(mean, stddev)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(items)

    def weighted_choice(self, items: Sequence[T],
                        weights: Sequence[float]) -> T:
        """Weighted choice from a non-empty sequence."""
        return self._rng.choices(items, weights=weights, k=1)[0]

    def probability(self, p: float) -> bool:
        """Bernoulli trial: ``True`` with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"probability out of [0, 1]: {p}")
        return self._rng.random() < p


def _stable_child_seed(seed: int, name: str) -> int:
    """Derive a child seed from (seed, name) stably across processes."""
    accumulator = seed & 0x7FFFFFFFFFFFFFFF
    for char in name:
        accumulator = (accumulator * 1099511628211 + ord(char)) & 0x7FFFFFFFFFFFFFFF
    return accumulator
