"""Space-Saving summary (Metwally, Agrawal & El Abbadi, 2005).

Keeps exactly ``capacity`` counters once warm; a new value replaces the
current minimum counter and inherits its count (recorded as that entry's
error).  Estimates *over*-count by at most the inherited error, and any
value with true frequency above ``n / capacity`` is retained.  Included as
the modern alternative for the sketch-choice ablation.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.streams.sketches.base import FrequencySketch, SketchError

__all__ = ["SpaceSaving"]


class SpaceSaving(FrequencySketch):
    """Space-Saving with ``capacity`` counters.

    ``error_of(value)`` exposes the per-entry overestimate bound; an entry
    whose ``count - error`` exceeds the next entry's count is *guaranteed*
    frequent.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._counts: Dict[Hashable, int] = {}
        self._errors: Dict[Hashable, int] = {}

    def update(self, value: Hashable, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self.items_seen += count
        current = self._counts.get(value)
        if current is not None:
            self._counts[value] = current + count
            return
        if len(self._counts) < self.capacity:
            self._counts[value] = count
            self._errors[value] = 0
            return
        victim = min(self._counts.items(), key=lambda vc: (vc[1], repr(vc[0])))[0]
        inherited = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[value] = inherited + count
        self._errors[value] = inherited

    def estimate(self, value: Hashable) -> float:
        return float(self._counts.get(value, 0))

    def error_of(self, value: Hashable) -> int:
        """Upper bound on the overestimate of ``value``'s count."""
        return self._errors.get(value, 0)

    def entries(self) -> List[Tuple[Any, float]]:
        return [(v, float(c)) for v, c in self._counts.items()]

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise SketchError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        while len(self._counts) > self.capacity:
            victim = min(self._counts.items(), key=lambda vc: (vc[1], repr(vc[0])))[0]
            self._counts.pop(victim)
            self._errors.pop(victim)

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "items_seen": self.items_seen,
            "entries": [
                [v, int(c), int(self._errors.get(v, 0))]
                for v, c in self._counts.items()
            ],
        }

    def restore(self, state: dict) -> None:
        self.capacity = int(state["capacity"])
        self.items_seen = int(state["items_seen"])
        self._counts = {}
        self._errors = {}
        for v, count, error in state["entries"]:
            value = self._rekey(v)
            self._counts[value] = int(count)
            self._errors[value] = int(error)
