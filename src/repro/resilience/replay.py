"""Bounded per-channel replay buffers (at-least-once redelivery).

Every message delivered into a stage's input queue is also appended here
under its *channel* (the message's ``origin`` — one per source binding or
incoming stream, each of which is FIFO end-to-end).  Sequence numbers are
per-channel and 1-based; the stage's worker acknowledges a delivery by
advancing its cursor after fully processing the message, and checkpoints
trim the buffer up to the checkpointed cursor.

On failover the runtime re-enqueues every retained entry past the
restored cursor.  Entries the pre-failure worker had already processed
(sequence <= its live cursor) are the documented at-least-once
*duplicates*; entries evicted by the bound before they could be replayed
are *dropped* — both are counted, never hidden.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

__all__ = ["REPLAY_LIMIT", "ReplayBuffers"]

#: Per-(stage, channel) bound on retained unacknowledged input.
#: Deliveries beyond it evict the oldest entries; evictions that a later
#: replay needed are surfaced as ``recovery.*.replay_dropped``.
REPLAY_LIMIT = 1024


class _Channel:
    """One (stage, origin) channel: a bounded deque of (seq, message)."""

    __slots__ = ("entries", "next_seq", "evicted_up_to")

    def __init__(self) -> None:
        self.entries: Deque[Tuple[int, Any]] = deque()
        self.next_seq = 1
        #: Highest sequence number evicted by the bound (0 = none).
        self.evicted_up_to = 0


class ReplayBuffers:
    """Retained unacknowledged input, per stage and channel."""

    def __init__(self) -> None:
        self._channels: Dict[Tuple[str, str], _Channel] = {}

    def _channel(self, stage: str, channel: str) -> _Channel:
        key = (stage, channel)
        found = self._channels.get(key)
        if found is None:
            found = self._channels[key] = _Channel()
        return found

    def append(self, stage: str, channel: str, message: Any) -> int:
        """Record one delivery; returns its sequence number."""
        chan = self._channel(stage, channel)
        seq = chan.next_seq
        chan.next_seq += 1
        chan.entries.append((seq, message))
        while len(chan.entries) > REPLAY_LIMIT:
            evicted_seq, _ = chan.entries.popleft()
            chan.evicted_up_to = evicted_seq
        return seq

    def trim(self, stage: str, channel: str, upto_seq: int) -> int:
        """Drop acknowledged entries (seq <= ``upto_seq``); returns count."""
        chan = self._channels.get((stage, channel))
        if chan is None:
            return 0
        dropped = 0
        while chan.entries and chan.entries[0][0] <= upto_seq:
            chan.entries.popleft()
            dropped += 1
        return dropped

    def replay_from(
        self, stage: str, channel: str, cursor: int
    ) -> Tuple[int, List[Tuple[int, Any]]]:
        """Entries to re-deliver after a failover.

        Returns ``(dropped, entries)`` where ``entries`` is every retained
        ``(seq, message)`` with ``seq > cursor`` in order, and ``dropped``
        is how many needed entries the bound already evicted (the gap
        between ``cursor`` and the oldest retained sequence).
        """
        chan = self._channels.get((stage, channel))
        if chan is None:
            return 0, []
        dropped = max(0, chan.evicted_up_to - cursor)
        return dropped, [(seq, msg) for seq, msg in chan.entries if seq > cursor]

    def channels(self, stage: str) -> List[str]:
        """Channel names with any recorded history for ``stage``."""
        return sorted(c for s, c in self._channels if s == stage)

    def retained(self, stage: str, channel: str) -> int:
        chan = self._channels.get((stage, channel))
        return len(chan.entries) if chan else 0
