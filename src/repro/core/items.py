"""Data units flowing between stages, and the queue that counts them."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.tracing import Hop, ItemTrace

__all__ = ["EndOfStream", "Item", "ItemQueue", "ItemRun"]


@dataclass(slots=True)
class Item:
    """One data item in flight through the pipeline.

    Attributes
    ----------
    payload:
        Application data.
    size:
        Bytes, used for link transmission time and per-byte CPU cost.
    origin:
        Name of the stream (edge) that delivered the item into the current
        stage, or the source binding name for external arrivals.
    created_at:
        Simulation/wall time when the item entered the system (for
        end-to-end latency accounting).
    trace:
        Sampled hop-trace context (:mod:`repro.obs.tracing`), or None for
        the untraced majority.  Emissions inherit the trace of the item
        being processed, so the context follows the data across stages.
    hop:
        The trace's open :class:`~repro.obs.tracing.Hop` for the stage
        queue this item currently sits in (runtime-internal).
    """

    payload: Any
    size: float = 8.0
    origin: str = ""
    created_at: float = 0.0
    trace: Optional[ItemTrace] = None
    hop: Optional[Hop] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"item size must be >= 0, got {self.size}")


class ItemRun:
    """Untraced items that arrived together: one message for a whole run.

    The networked runtime queues one per DATA frame, and both its
    feeder and the threaded one put a source's arrivals as runs
    (:func:`~repro.core.kernel.source_loop`): ``values[i]`` is an
    item's payload, ``sizes[i]`` its declared size, and all share one
    ``created_at`` and one ``origin``.  The stage loop takes the payloads straight from it,
    so no :class:`Item` is built per item.
    """

    __slots__ = ("values", "sizes", "created_at", "origin")

    def __init__(
        self, values: Sequence[Any], sizes: Sequence[float], created_at: float, origin: str
    ) -> None:
        self.values = values
        self.sizes = sizes
        self.created_at = created_at
        self.origin = origin

    def take(self, n: int) -> "ItemRun":
        """Split off and return the first ``n`` items; the rest stay here."""
        head = ItemRun(self.values[:n], self.sizes[:n], self.created_at, self.origin)
        self.values, self.sizes = self.values[n:], self.sizes[n:]
        return head


@dataclass(frozen=True)
class EndOfStream:
    """Sentinel marking the end of one input stream.

    A stage with N input streams terminates after receiving N sentinels,
    then flushes and propagates its own sentinel downstream.
    """

    origin: str = ""
    #: Size is zero: the sentinel is a control message, effectively free
    #: to transmit (modeled as a minimal 1-byte frame on links).
    size: float = field(default=1.0)


def _items_ahead(entries: deque, barrier: Any) -> int:
    """The items queued in ``entries`` ahead of ``barrier`` itself."""
    ahead = 0
    for entry in entries:
        if entry is barrier:
            break
        ahead += len(entry.values) if type(entry) is ItemRun else 1
    return ahead


class ItemQueue:
    """A stage's queue (the estimator's ``QueueLike``), counted in items:
    the one definition beneath the threaded queue and the net inbox.

    An :class:`ItemRun` counts as its items and any other entry as one,
    against ``capacity`` and in d (:attr:`current_length`).  n items
    added leave the n d̄ samples n single puts would, and a release of
    taken items one.  A take hands out entries holding up to
    ``max_items`` items, splitting a run at the bound; a barrier goes
    alone, after every entry queued before it.  It never blocks and takes
    no lock: a subclass adds how its callers wait, and says whether a
    take holds its items until the next.
    """

    def __init__(self, capacity: int, window: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        #: Items counted in d: those queued, plus the held ones.
        self._length = 0
        #: Items the last take handed out with ``hold``, still counted.
        self._held = 0
        self._recent: deque = deque([0], maxlen=window)
        #: Queued barrier entries, oldest first.
        self._barriers: deque = deque()

    def _admit(self, entry: Any, room: Optional[int] = None) -> Any:
        """Queue ``entry``, or just the first ``room`` items of a run
        holding more: then the rest is returned, else None."""
        if type(entry) is not ItemRun:  # one item: one d̄ sample
            self._items.append(entry)
            self._length += 1
            self._recent.append(self._length)
            return None
        n = len(entry.values)
        rest = None
        if room is not None and n > room:
            rest, entry, n = entry, entry.take(room), room
        self._items.append(entry)
        self._count_items_added(n)
        return rest

    def _admit_all(self, entries: List[Any]) -> None:
        """Queue one-item entries."""
        self._items.extend(entries)
        self._count_items_added(len(entries))

    def _admit_barrier(self, entry: Any) -> None:
        """Queue ``entry`` to be taken alone, never inside a chunk."""
        self._barriers.append(entry)
        self._admit_all([entry])

    def _count_items_added(self, n: int) -> None:
        """Count ``n`` items just queued: one d̄ sample each (if kept)."""
        length = self._length = self._length + n
        recent = self._recent
        recent.extend(range(max(length - n, length - recent.maxlen) + 1, length + 1))

    def _take_item_chunk(self, max_items: int, hold: bool) -> List[Any]:
        """Take a chunk, or a barrier, of what is queued (maybe nothing).

        The held items stop counting first.  The items taken now stop
        counting at once, or with ``hold`` are held until the next take:
        one d̄ sample, if anything stopped counting."""
        items, barriers = self._items, self._barriers
        if barriers and items[0] is barriers[0]:
            barriers.popleft()
            taken, bound, room = [items.popleft()], 1, 0
        else:
            # Never past the next barrier: the items ahead of it fill the bound.
            bound = room = min(max_items, _items_ahead(items, barriers[0])) if barriers else max_items
            taken = []
            while items and room:
                head = items[0]
                n = len(head.values) if type(head) is ItemRun else 1
                if n > room:
                    head, n = head.take(room), room
                else:
                    items.popleft()
                taken.append(head)
                room -= n
        released = self._held
        if hold:
            self._held = bound - room
        else:
            released += bound - room
        if released:
            self._length -= released
            self._recent.append(self._length)
        return taken

    @property
    def current_length(self) -> int:
        """d: the items counted now."""
        return self._length

    @property
    def recent_average(self) -> float:
        """d̄: the mean of the window's length samples."""
        return sum(self._recent) / len(self._recent)
