"""Counting Samples (Gibbons & Matias, SIGMOD 1998).

This is the algorithm the paper's count-samps application implements:
"Gibbons and Matias have developed an approximate method for answering
such queries with limited memory" (Section 5.1).

A counting sample maintains at most ``capacity`` (value, count) pairs and a
sampling threshold tau (>= 1):

* An arriving value already in the sample has its count incremented
  (counting is exact once a value is in).
* A new value enters the sample with probability 1/tau.
* When the sample overflows, tau is raised to ``tau' = growth * tau`` and
  each entry is *subsampled*: the entry's first hit survives with
  probability tau/tau'; if it does not, subsequent hits each get a chance
  1/tau' to become the new first hit, otherwise they are discarded.  An
  entry whose count reaches zero is evicted.

The estimate for a retained value compensates for the hits missed before
the value entered the sample; Gibbons & Matias recommend
``count - 1 + 0.418 * tau``.

Because entry is randomized, the sketch takes a seed and is deterministic
given it — the experiments rely on that.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.streams.sketches.base import FrequencySketch, SketchError

__all__ = ["CountingSamples"]

#: Compensation constant from Gibbons & Matias for the expected number of
#: hits missed before a value's first successful coin flip.
COMPENSATION = 0.418


class CountingSamples(FrequencySketch):
    """Gibbons–Matias counting sample with bounded footprint.

    Parameters
    ----------
    capacity:
        Maximum number of retained (value, count) pairs — the paper's
        adjustment parameter for count-samps.
    growth:
        Multiplicative factor applied to tau on overflow (must be > 1).
    seed:
        RNG seed; runs are deterministic given it.
    compensate:
        If True (default), :meth:`estimate` adds the ``0.418 * tau``
        correction for values in the sample (only once tau > 1).
    """

    def __init__(
        self,
        capacity: int,
        growth: float = 1.3,
        seed: int = 0,
        compensate: bool = True,
    ) -> None:
        import numpy as np

        super().__init__(capacity)
        if growth <= 1.0:
            raise SketchError(f"growth must be > 1.0, got {growth}")
        self.growth = float(growth)
        self.compensate = compensate
        self.tau = 1.0
        self._counts: Dict[Hashable, int] = {}
        self._rng = np.random.default_rng(seed)

    # -- updates -------------------------------------------------------------

    def update(self, value: Hashable, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self.items_seen += count
        current = self._counts.get(value)
        if current is not None:
            self._counts[value] = current + count
            return
        # A value not in the sample: each of the `count` hits is a chance
        # to enter; once in, the remaining hits count exactly.
        if self.tau <= 1.0:
            admitted_at = 0
        else:
            admitted_at = -1
            p = 1.0 / self.tau
            # Geometric shortcut: index of first success among `count`
            # Bernoulli(p) trials, or -1 if none succeed.
            first = self._rng.geometric(p)
            if first <= count:
                admitted_at = first - 1
        if admitted_at >= 0:
            self._counts[value] = count - admitted_at
            if len(self._counts) > self.capacity:
                self._shrink_to_capacity()

    # -- queries ---------------------------------------------------------------

    def estimate(self, value: Hashable) -> float:
        count = self._counts.get(value)
        if count is None:
            return 0.0
        if self.compensate and self.tau > 1.0:
            return count - 1 + COMPENSATION * self.tau
        return float(count)

    def entries(self) -> List[Tuple[Any, float]]:
        return [(value, self.estimate(value)) for value in self._counts]

    def raw_entries(self) -> List[Tuple[Any, int]]:
        """Uncompensated (value, raw count) pairs (for merging/tests)."""
        return list(self._counts.items())

    # -- maintenance ------------------------------------------------------------

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise SketchError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        if len(self._counts) > self.capacity:
            self._shrink_to_capacity()

    def _shrink_to_capacity(self) -> None:
        """Raise tau (possibly repeatedly) until the sample fits."""
        guard = 0
        while len(self._counts) > self.capacity:
            self._raise_threshold(self.tau * self.growth)
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise SketchError("threshold raise did not converge")

    def _raise_threshold(self, new_tau: float) -> None:
        """Subsample every entry from threshold tau to new_tau (G&M)."""
        if new_tau <= self.tau:
            raise SketchError(f"new tau {new_tau} must exceed current {self.tau}")
        keep_first = self.tau / new_tau
        reenter = 1.0 / new_tau
        survivors: Dict[Hashable, int] = {}
        for value, count in self._counts.items():
            if self._rng.random() < keep_first:
                survivors[value] = count
                continue
            # First hit removed; each later hit may become the new first.
            remaining = count - 1
            while remaining > 0:
                if self._rng.random() < reenter:
                    survivors[value] = remaining
                    break
                remaining -= 1
        self._counts = survivors
        self.tau = new_tau

    # -- composition -------------------------------------------------------------

    def merge(self, other: FrequencySketch) -> None:
        """Merge another counting sample (or compatible sketch).

        Raw counts are replayed (not compensated estimates — compensation
        must happen once, at query time).  The merged sample keeps the
        larger tau of the two, which keeps the estimator's compensation
        conservative.
        """
        if isinstance(other, CountingSamples):
            self.tau = max(self.tau, other.tau)
            retained = 0
            for value, count in other.raw_entries():
                retained += count
                current = self._counts.get(value)
                if current is not None:
                    self._counts[value] = current + count
                else:
                    self._counts[value] = count
            if len(self._counts) > self.capacity:
                self._shrink_to_capacity()
            self.items_seen += other.items_seen
            return
        super().merge(other)

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "items_seen": self.items_seen,
            "tau": self.tau,
            "counts": [[v, int(c)] for v, c in self._counts.items()],
            "rng": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self.capacity = int(state["capacity"])
        self.items_seen = int(state["items_seen"])
        self.tau = float(state["tau"])
        self._counts = {self._rekey(v): int(c) for v, c in state["counts"]}
        # Restoring the RNG stream keeps a recovered run's subsampling
        # decisions identical to an uninterrupted one.
        self._rng.bit_generator.state = state["rng"]
