"""Lossy Counting (Manku & Motwani, VLDB 2002).

Window-based deterministic summary: the stream is processed in buckets of
width ``ceil(1/epsilon)``; at each bucket boundary, entries whose count
plus slack falls below the bucket index are dropped.  Estimates undercount
by at most ``epsilon * n``.  The ``capacity`` argument sets epsilon as
``1 / capacity`` so the interface lines up with the other sketches (the
worst-case footprint is ``O(capacity * log(epsilon * n))``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Tuple

from repro.streams.sketches.base import FrequencySketch, SketchError

__all__ = ["LossyCounting"]


class LossyCounting(FrequencySketch):
    """Lossy counting with epsilon = 1/capacity."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.epsilon = 1.0 / capacity
        self._width = int(math.ceil(1.0 / self.epsilon))
        #: value -> (count, delta) where delta is the maximum undercount
        #: for that entry (the bucket index - 1 at insertion time).
        self._entries: Dict[Hashable, Tuple[int, int]] = {}
        self._bucket = 1

    def update(self, value: Hashable, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        for _ in range(count):
            self._update_one(value)

    def _update_one(self, value: Hashable) -> None:
        self.items_seen += 1
        entry = self._entries.get(value)
        if entry is not None:
            self._entries[value] = (entry[0] + 1, entry[1])
        else:
            self._entries[value] = (1, self._bucket - 1)
        if self.items_seen % self._width == 0:
            self._prune()
            self._bucket += 1

    def _prune(self) -> None:
        self._entries = {
            v: (c, d) for v, (c, d) in self._entries.items() if c + d > self._bucket
        }

    def estimate(self, value: Hashable) -> float:
        entry = self._entries.get(value)
        return float(entry[0]) if entry is not None else 0.0

    def delta_of(self, value: Hashable) -> int:
        """Maximum undercount recorded for a retained value."""
        entry = self._entries.get(value)
        return entry[1] if entry is not None else 0

    def entries(self) -> List[Tuple[Any, float]]:
        return [(v, float(c)) for v, (c, _) in self._entries.items()]

    def resize(self, capacity: int) -> None:
        """Change epsilon going forward; existing entries keep their deltas."""
        if capacity < 1:
            raise SketchError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.epsilon = 1.0 / capacity
        self._width = int(math.ceil(1.0 / self.epsilon))

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "items_seen": self.items_seen,
            "bucket": self._bucket,
            "entries": [[v, int(c), int(d)] for v, (c, d) in self._entries.items()],
        }

    def restore(self, state: dict) -> None:
        self.capacity = int(state["capacity"])
        self.epsilon = 1.0 / self.capacity
        self._width = int(math.ceil(1.0 / self.epsilon))
        self.items_seen = int(state["items_seen"])
        self._bucket = int(state["bucket"])
        self._entries = {
            self._rekey(v): (int(c), int(d)) for v, c, d in state["entries"]
        }
