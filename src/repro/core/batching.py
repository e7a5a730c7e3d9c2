"""Micro-batching policy for the data plane.

All three runtimes move items one at a time by default; a
:class:`BatchPolicy` switches a stage's emissions onto a batched fast
path: items destined for the same (stage, out-stream) edge accumulate in
a small buffer and are handed downstream together — one queue operation,
one link transmission, or one DATA frame for the whole batch.  See
docs/performance.md for the model and the measured effect.

The flush policy is size/age: a batch ships as soon as it holds
``max_items`` items, and a partially filled batch never waits longer
than ``max_delay`` (in the owning runtime's clock — simulated seconds on
the simulated runtime, scaled wall-clock seconds elsewhere).  Setting
``max_items=1`` degenerates to the unbatched behaviour.

This module is imported by ``repro.core.runtime_sim`` and must stay
deterministic: no wall clock, no global RNG — timestamps always come in
from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generic, List, Optional, TypeVar

__all__ = ["BatchBuffer", "BatchPolicy"]


@dataclass(frozen=True)
class BatchPolicy:
    """Size/age flush policy for per-edge micro-batches.

    Parameters
    ----------
    max_items:
        Flush as soon as a batch holds this many items (>= 1; 1 means
        every item ships alone, i.e. batching is a no-op).
    max_delay:
        Upper bound, in runtime seconds, on how long a partially filled
        batch may wait for more items before it is flushed anyway.  This
        bounds the per-item latency cost of batching: p99 latency under
        batching is at most the unbatched p99 plus ``max_delay``.
    """

    max_items: int = 32
    max_delay: float = 0.01

    def __post_init__(self) -> None:
        if self.max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {self.max_items}")
        if not (math.isfinite(self.max_delay) and self.max_delay >= 0):
            raise ValueError(f"max_delay must be a finite number >= 0, got {self.max_delay}")

    @property
    def enabled(self) -> bool:
        """False when the policy degenerates to one-at-a-time."""
        return self.max_items > 1


T = TypeVar("T")


class BatchBuffer(Generic[T]):
    """One edge's accumulating batch: entries plus the first-entry time.

    The buffer itself never reads a clock — callers pass ``now`` in, so
    the same type serves the simulated runtime (virtual time) and the
    threaded/networked runtimes (scaled wall clock).
    """

    __slots__ = ("policy", "entries", "first_at")

    def __init__(self, policy: BatchPolicy) -> None:
        """Arguments:
            policy: The size/age flush policy this buffer enforces.
        """
        self.policy = policy
        self.entries: List[T] = []
        self.first_at: float = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: T, now: float) -> bool:
        """Append one entry to the accumulating batch.

        Arguments:
            entry: The entry to buffer (whatever the owning runtime
                ships per item — an ``Item``, a ``(payload, size)``
                pair, ...).
            now: The current time in the caller's clock; recorded as
                the batch's first-entry time when the buffer was empty.

        Returns:
            ``True`` when the buffer has reached ``max_items`` and the
            caller should flush it now.
        """
        if not self.entries:
            self.first_at = now
        self.entries.append(entry)
        return len(self.entries) >= self.policy.max_items

    def extend(self, entries: List[T], now: float) -> bool:
        """:meth:`add` for several entries at once.

        Arguments:
            entries: Entries to buffer, at most the room left before
                ``max_items`` (the caller flushes between slices).
            now: The current time in the caller's clock.

        Returns:
            ``True`` when the buffer has reached ``max_items``.
        """
        if not self.entries:
            self.first_at = now
        self.entries += entries
        return len(self.entries) >= self.policy.max_items

    def due(self, now: float) -> bool:
        """Whether the age bound demands a flush.

        Arguments:
            now: The current time in the caller's clock.

        Returns:
            ``True`` when the oldest buffered entry has waited
            ``max_delay`` or longer (always ``False`` when empty).
        """
        return bool(self.entries) and now - self.first_at >= self.policy.max_delay

    def deadline(self) -> Optional[float]:
        """Absolute time the buffer must flush by.

        Returns:
            ``first_at + max_delay`` in the caller's clock, or ``None``
            when the buffer is empty (nothing is aging).
        """
        if not self.entries:
            return None
        return self.first_at + self.policy.max_delay

    def drain(self) -> List[T]:
        """Take every buffered entry, leaving the buffer empty.

        Returns:
            The buffered entries in insertion order.
        """
        entries, self.entries = self.entries, []
        return entries
