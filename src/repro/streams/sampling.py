"""Sampling operators.

Sampling rate is the canonical adjustment parameter of the paper
(Section 3.3's code example and the comp-steer application): "the sampling
rate, denoting the fraction of original values that are forwarded".

:class:`BernoulliSampler` supports *online* rate changes — exactly what the
middleware does when ``get_suggested_value()`` returns a new rate each
iteration.  :class:`SystematicSampler` (every k-th item) gives deterministic
behaviour where tests need it; :class:`ReservoirSampler` provides the
fixed-size uniform sample used by other stream analyses.
"""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["BernoulliSampler", "ReservoirSampler", "SystematicSampler"]


class BernoulliSampler:
    """Keep each item independently with probability ``rate``.

    The rate may be changed between items via the :attr:`rate` property;
    counts of seen/kept items are maintained so the *effective* rate can be
    audited.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        import numpy as np

        self._rate = self._validate(rate)
        self._rng = np.random.default_rng(seed)
        self.seen = 0
        self.kept = 0

    @staticmethod
    def _validate(rate: float) -> float:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        return float(rate)

    @property
    def rate(self) -> float:
        """Current sampling probability."""
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = self._validate(value)

    def offer(self, item: Any) -> bool:
        """Present one item; True means it survives the sampler."""
        self.seen += 1
        keep = bool(self._rng.random() < self._rate)
        if keep:
            self.kept += 1
        return keep

    def sample(self, items: Sequence) -> List:
        """Filter a whole batch (bulk-vectorized for large batches)."""
        n = len(items)
        if n == 0:
            return []
        mask = self._rng.random(n) < self._rate
        self.seen += n
        kept = [item for item, keep in zip(items, mask) if keep]
        self.kept += len(kept)
        return kept

    @property
    def effective_rate(self) -> float:
        """Observed kept/seen ratio."""
        return self.kept / self.seen if self.seen else 0.0


class SystematicSampler:
    """Keep items deterministically so the kept fraction tracks ``rate``.

    Implemented with an error accumulator (Bresenham style): over any
    window of n offers, the number kept is within 1 of ``rate * n``.
    Like the Bernoulli sampler, the rate may be changed online.
    """

    def __init__(self, rate: float) -> None:
        self._rate = BernoulliSampler._validate(rate)
        self._credit = 0.0
        self.seen = 0
        self.kept = 0

    @property
    def rate(self) -> float:
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = BernoulliSampler._validate(value)

    def offer(self, item: Any) -> bool:
        """Present one item; deterministic keep decision."""
        self.seen += 1
        self._credit += self._rate
        if self._credit >= 1.0:
            self._credit -= 1.0
            self.kept += 1
            return True
        return False

    def sample(self, items: Sequence) -> List:
        """Filter a batch."""
        return [item for item in items if self.offer(item)]

    @property
    def effective_rate(self) -> float:
        return self.kept / self.seen if self.seen else 0.0


class ReservoirSampler:
    """Uniform fixed-size sample of an unbounded stream (Vitter's Algorithm R)."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        import numpy as np

        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._reservoir: List = []
        self.seen = 0

    def offer(self, item: Any) -> None:
        """Present one item to the reservoir."""
        self.seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(item)
            return
        j = int(self._rng.integers(0, self.seen))
        if j < self.capacity:
            self._reservoir[j] = item

    def extend(self, items: Sequence) -> None:
        for item in items:
            self.offer(item)

    @property
    def sample(self) -> List:
        """A copy of the current reservoir contents."""
        return list(self._reservoir)

    def __len__(self) -> int:
        return len(self._reservoir)
