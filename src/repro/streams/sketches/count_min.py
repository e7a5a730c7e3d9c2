"""Count-Min sketch (Cormode & Muthukrishnan, 2005).

A hash-based frequency summary: ``depth`` rows of ``width`` counters;
each update increments one counter per row; the estimate is the row-wise
minimum.  Estimates only *over*-count, by at most ``2n/width`` with
probability ``1 − 2^−depth``.

Unlike the counter-based summaries, the sketch itself holds no values, so
:class:`CountMin` pairs the hash table with a bounded heavy-hitter heap
(size ``capacity``) to answer ``top_k`` / ``entries`` like its siblings —
the heap tracks candidates whose estimate, at insertion time, cleared the
current floor.

The ``capacity`` constructor argument keeps interface parity (it sizes
the candidate heap); the table dimensions are separate knobs.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Tuple

from repro.streams.sketches.base import FrequencySketch, SketchError

if TYPE_CHECKING:  # numpy loads when the first table is built
    import numpy as np

__all__ = ["CountMin"]

#: Large primes for the pairwise-independent hash family.
_MERSENNE = (1 << 61) - 1


class CountMin(FrequencySketch):
    """Count-Min table plus a heavy-hitter candidate heap.

    Parameters
    ----------
    capacity:
        Heavy-hitter candidates tracked (the ``top_k`` universe).
    width:
        Counters per row; error bound is ``2·n / width``.
    depth:
        Rows; failure probability is ``2^−depth``.
    seed:
        Seeds the hash family.
    """

    def __init__(self, capacity: int, width: int = 256, depth: int = 4, seed: int = 0) -> None:
        import numpy as np

        super().__init__(capacity)
        if width < 2:
            raise SketchError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise SketchError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        rng = np.random.default_rng(seed)
        # Pairwise-independent hashes: h(x) = ((a*x + b) mod p) mod width.
        self._a = rng.integers(1, _MERSENNE, size=depth, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE, size=depth, dtype=np.int64)
        self._table = np.zeros((depth, width), dtype=np.int64)
        self._row_index = np.arange(depth)
        #: Heap of (estimate_at_insert, value); lazily rebuilt on query.
        self._heap: List[Tuple[float, Hashable]] = []
        self._tracked: Dict[Hashable, bool] = {}

    def _rows(self, value: Hashable) -> np.ndarray:
        key = hash(value) & 0x7FFFFFFFFFFFFFFF
        return ((self._a * key + self._b) % _MERSENNE) % self.width

    # -- updates -------------------------------------------------------------

    def update(self, value: Hashable, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self.items_seen += count
        columns = self._rows(value)
        self._table[self._row_index, columns] += count
        estimate = int(self._table[self._row_index, columns].min())
        self._offer_candidate(value, estimate)

    def _offer_candidate(self, value: Hashable, estimate: float) -> None:
        if value in self._tracked:
            return
        if len(self._tracked) < self.capacity:
            heapq.heappush(self._heap, (estimate, repr(value), value))
            self._tracked[value] = True
            return
        floor = self._heap[0][0]
        if estimate > floor:
            _, _, evicted = heapq.heappop(self._heap)
            del self._tracked[evicted]
            heapq.heappush(self._heap, (estimate, repr(value), value))
            self._tracked[value] = True

    # -- queries ---------------------------------------------------------------

    def estimate(self, value: Hashable) -> float:
        columns = self._rows(value)
        return float(self._table[self._row_index, columns].min())

    def entries(self) -> List[Tuple[Any, float]]:
        """Tracked candidates with their *current* estimates."""
        return [(value, self.estimate(value)) for _, _, value in self._heap]

    def error_bound(self) -> float:
        """The ``2n/width`` additive overestimate bound."""
        return 2.0 * self.items_seen / self.width

    # -- maintenance ------------------------------------------------------------

    def resize(self, capacity: int) -> None:
        """Resize the candidate heap (the hash table is immutable)."""
        if capacity < 1:
            raise SketchError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        while len(self._heap) > self.capacity:
            _, _, evicted = heapq.heappop(self._heap)
            del self._tracked[evicted]

    def merge(self, other: FrequencySketch) -> None:
        """Merge another Count-Min with identical dimensions and seed.

        Tables add element-wise; candidate heaps union (re-trimmed to
        capacity).  Mismatched dimensions cannot be combined soundly.
        """
        if isinstance(other, CountMin):
            import numpy as np

            if (
                other.width != self.width
                or other.depth != self.depth
                or not np.array_equal(other._a, self._a)
                or not np.array_equal(other._b, self._b)
            ):
                raise SketchError("cannot merge Count-Min sketches with "
                                  "different dimensions or hash seeds")
            self._table += other._table
            self.items_seen += other.items_seen
            for _, _, value in other._heap:
                self._offer_candidate(value, self.estimate(value))
            return
        super().merge(other)

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "items_seen": self.items_seen,
            "width": self.width,
            "depth": self.depth,
            "a": self._a.tolist(),
            "b": self._b.tolist(),
            "table": self._table.tolist(),
            # Heap entries keep their insertion-time estimate and tie-break
            # repr so heap order survives the round-trip exactly.
            "heap": [[est, tie, v] for est, tie, v in self._heap],
        }

    def restore(self, state: dict) -> None:
        import numpy as np

        if int(state["width"]) != self.width or int(state["depth"]) != self.depth:
            raise SketchError(
                "cannot restore a CountMin into different table dimensions "
                f"({state['width']}x{state['depth']} -> {self.width}x{self.depth})"
            )
        self.capacity = int(state["capacity"])
        self.items_seen = int(state["items_seen"])
        self._a = np.asarray(state["a"], dtype=np.int64)
        self._b = np.asarray(state["b"], dtype=np.int64)
        self._table = np.asarray(state["table"], dtype=np.int64)
        self._heap = [
            (float(est), str(tie), self._rekey(v)) for est, tie, v in state["heap"]
        ]
        heapq.heapify(self._heap)
        self._tracked = {v: True for _, _, v in self._heap}
