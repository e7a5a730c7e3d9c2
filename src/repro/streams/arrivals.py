"""Arrival processes for stream sources.

The paper's evaluation feeds sources at constant rates, but its premise is
streams whose "arrival rate" the middleware must track as it varies.  An
:class:`ArrivalProcess` generalizes the constant-rate feeder: it yields
the inter-arrival gap before each item, deterministically given a seed.

* :class:`ConstantArrivals` — fixed rate (the paper's experiments);
* :class:`PoissonArrivals` — exponential gaps (memoryless traffic);
* :class:`OnOffArrivals` — Markov-modulated bursts: alternating ON
  periods at a high rate and OFF silences, the classic bursty-source
  model (and the stress test for the adaptation's recent-vs-long-term
  load weighing).
"""

from __future__ import annotations

import abc
from typing import Iterator

__all__ = ["ArrivalProcess", "ConstantArrivals", "OnOffArrivals", "PoissonArrivals"]


class ArrivalProcess(abc.ABC):
    """Yields the gap (seconds) preceding each successive item."""

    @abc.abstractmethod
    def gaps(self) -> Iterator[float]:
        """An endless iterator of inter-arrival gaps."""

    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run items per second."""


class ConstantArrivals(ArrivalProcess):
    """Fixed-rate arrivals: every gap is ``1/rate``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def gaps(self) -> Iterator[float]:
        gap = 1.0 / self.rate
        while True:
            yield gap

    def mean_rate(self) -> float:
        return self.rate


class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals: exponential gaps with mean ``1/rate``."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.seed = seed

    def gaps(self) -> Iterator[float]:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        scale = 1.0 / self.rate
        while True:
            # Draw in blocks for speed; order is deterministic given seed.
            for gap in rng.exponential(scale, size=1024):
                yield float(gap)

    def mean_rate(self) -> float:
        return self.rate


class OnOffArrivals(ArrivalProcess):
    """Markov-modulated ON/OFF bursts.

    During ON periods items arrive at ``burst_rate``; OFF periods are
    silent.  Period lengths are exponential with the given means.  The
    long-run average rate is ``burst_rate * on_mean / (on_mean + off_mean)``.
    """

    def __init__(
        self,
        burst_rate: float,
        on_mean: float = 1.0,
        off_mean: float = 1.0,
        seed: int = 0,
    ) -> None:
        if burst_rate <= 0:
            raise ValueError(f"burst_rate must be > 0, got {burst_rate}")
        if on_mean <= 0 or off_mean < 0:
            raise ValueError(
                f"need on_mean > 0 and off_mean >= 0, got {on_mean}, {off_mean}"
            )
        self.burst_rate = float(burst_rate)
        self.on_mean = float(on_mean)
        self.off_mean = float(off_mean)
        self.seed = seed

    def gaps(self) -> Iterator[float]:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        gap = 1.0 / self.burst_rate
        while True:
            on_length = rng.exponential(self.on_mean)
            items = max(1, int(round(on_length * self.burst_rate)))
            # Silence before the burst's first item, then in-burst gaps.
            off = rng.exponential(self.off_mean) if self.off_mean else 0.0
            yield off + gap
            for _ in range(items - 1):
                yield gap

    def mean_rate(self) -> float:
        duty = self.on_mean / (self.on_mean + self.off_mean)
        return self.burst_rate * duty
