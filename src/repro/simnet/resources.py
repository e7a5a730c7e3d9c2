"""Shared-resource primitives for the simulation kernel.

Three primitives cover everything the middleware needs:

* :class:`CapacityResource` — a counted resource (CPU cores, a link's
  transmitter) that work claims with a start callback and frees when
  done; waiting callbacks queue FIFO.
* :class:`Store` — an unbounded-or-bounded buffer of Python objects with
  blocking ``put``/``get`` events, and producers that wait as
  continuations (:meth:`Store.offer`).
* :class:`BoundedQueue` — a :class:`Store` specialization used as a stage's
  input buffer.  It is the *queue of the server* in the paper's queuing
  model (Section 4.1): it tracks current length ``d``, a sliding window of
  recent lengths (for the recent average ``d̄``), and occupancy statistics,
  which the self-adaptation algorithm consumes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simnet.engine import Environment, Event

__all__ = [
    "BoundedQueue",
    "CapacityResource",
    "GetRequest",
    "PutRequest",
    "QueueFullError",
    "Store",
]


class QueueFullError(Exception):
    """Raised by non-blocking puts into a full bounded queue."""


class CapacityResource:
    """A resource with ``capacity`` interchangeable units and FIFO waiters.

    :meth:`claim` runs a callable the moment a unit is the caller's (at
    once when one is free), and :meth:`free` hands the unit to the
    longest waiter — how hosts and links start and finish work without
    an event per grant.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of units (must be >= 1).
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Units currently held (only :meth:`claim` and :meth:`free` change it).
        self.in_use = 0
        self._waiters: Deque[Callable[[], None]] = deque()

    @property
    def queue_length(self) -> int:
        """Number of pending claims."""
        return len(self._waiters)

    def claim(self, start: Callable[[], None]) -> None:
        """Call ``start()`` holding one unit: now if one is free, else
        when :meth:`free` passes one on (FIFO)."""
        if self.in_use < self.capacity:
            self.in_use += 1
            start()
        else:
            self._waiters.append(start)

    def free(self) -> None:
        """Give back a claimed unit; the longest waiter starts on it at once."""
        if self.in_use <= 0:
            raise ValueError("free() without matching claim")
        if self._waiters:
            self._waiters.popleft()()
        else:
            self.in_use -= 1


class PutRequest(Event):
    """Pending insertion of ``item`` into a :class:`Store`."""

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class _Parked:
    """A producer waiting in a store's putter FIFO as a continuation.

    ``resume(event)`` continues the producer once ``item`` is stored;
    :meth:`succeed` schedules that call at this instant, where a
    :class:`PutRequest`'s resumption would be processed.
    """

    __slots__ = ("env", "item", "resume")

    def __init__(self, env: Environment, item: Any, resume: Callable[[Any], None]) -> None:
        self.env = env
        self.item = item
        self.resume = resume

    def succeed(self) -> None:
        event = Event(self.env)
        event.callbacks.append(self.resume)
        event.succeed()


class GetRequest(Event):
    """Pending removal of an item from a :class:`Store`."""

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class Store:
    """A FIFO buffer of Python objects with blocking put/get events.

    ``capacity`` may be ``None`` for an unbounded store.  Puts block while
    the store is full; gets block while it is empty.  Both sides are served
    FIFO, so item ordering is deterministic.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._putters: Deque[Any] = deque()  # PutRequest or _Parked
        self._getters: Deque[GetRequest] = deque()
        #: Optional hook invoked with each item at the moment it enters
        #: the buffer (including blocked puts admitted later).  The
        #: resilient runtime records deliveries into its replay buffer
        #: here — insertion time, not producer-resume time, is what keeps
        #: the record consistent with what a purge() can discard.
        self.on_insert: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- blocking interface ------------------------------------------------

    def put(self, item: Any) -> PutRequest:
        """Insert ``item``; the returned event fires once it is stored."""
        request = PutRequest(self, item)
        if not self.is_full:
            self._insert(item)
            request.succeed()
        else:
            self._putters.append(request)
        return request

    def offer(self, item: Any, resume: Callable[[Any], None]) -> bool:
        """Put ``item`` for a producer that continues by calling ``resume``.

        The callback form of ``yield store.put(item)``, with the same
        order: True means the item is stored and the producer's
        resumption would be the next event processed
        (``env.next_up(env.now)``), so it just goes on.  Otherwise it
        returns False and ``resume(event)`` is called later: by an event
        at this instant if the item is stored, or, with the store full,
        once a take admits the item (FIFO with every other blocked put) —
        inline when that take is :meth:`try_get`'s and the resumption
        would be the next event.
        """
        env, capacity = self.env, self.capacity
        if capacity is not None and len(self._items) >= capacity:  # is_full
            self._putters.append(_Parked(env, item, resume))
            return False
        self._insert(item)
        if env.next_up(env.now):  # the put's resumption is next
            return True
        _Parked(env, item, resume).succeed()
        return False

    def get(self) -> GetRequest:
        """Remove the oldest item; the event fires with the item as value."""
        request = GetRequest(self)
        self._serve_getter(request)
        return request

    # -- non-blocking interface ---------------------------------------------

    def try_put(self, item: Any) -> None:
        """Insert ``item`` immediately or raise :class:`QueueFullError`."""
        if self.is_full and not self._getters:
            raise QueueFullError(f"store at capacity {self.capacity}")
        self._insert(item)
        self._drain_getters()

    def force_put(self, item: Any) -> None:
        """Insert ``item`` regardless of capacity.

        Used for in-flight network deliveries: a message already
        transmitted cannot be un-sent, so the receiving queue absorbs it
        even when above capacity.  Load estimators clamp lengths to C, so
        the overflow only saturates (never corrupts) the load signals.
        """
        self._insert(item)

    def try_get(self) -> Any:
        """Remove and return the oldest item or raise ``IndexError``.

        A producer parked by :meth:`offer` that the freed space admits
        continues inside this call when its resumption would be the next
        event processed — the caller is a consumer that only books the
        item before it next waits, which the producer cannot observe.
        """
        item = self._items.popleft()
        self._on_length_change()
        if self._putters:
            self._admit_putters(inline=True)
        return item

    def take(self) -> Any:
        """The oldest item for a consumer that would otherwise wait on
        :meth:`get` at once, or None: then it waits on :meth:`get`.

        The item is taken here (:meth:`try_get`, with the queue mutations
        ``get()`` makes, in the same order) only when one is queued and
        the get's event would be the next one processed
        (``env.next_up(env.now)``), so taking it needs no event at all.
        A store used this way holds no None.
        """
        env = self.env
        if self._items and env.next_up(env.now):  # the get's event is next
            return self.try_get()
        return None

    # -- failover support -----------------------------------------------------

    def purge(self) -> list:
        """Remove and return all queued items without serving waiters.

        Used when a consumer's host crashes: the queued input is *lost*
        (the crash-stop model) and the recovery path re-delivers from its
        replay buffer instead.  Blocked putters are deliberately NOT
        admitted here — replayed (older) messages must re-enter first to
        preserve per-channel FIFO order; the putters drain as the
        restarted consumer makes space.
        """
        purged = list(self._items)
        self._items.clear()
        if purged:
            self._on_length_change()
        return purged

    def requeue(self, item: Any) -> None:
        """Put a just-dequeued ``item`` back at the head of the buffer.

        A consumer superseded by a planned hand-over (live migration)
        between its ``get`` being served and its process resuming gives
        the item back so the replacement consumer sees it first —
        unlike the crash path, nothing will replay it.  The insertion
        hook is deliberately not invoked: the item was already recorded
        when it first entered the buffer.
        """
        self._items.appendleft(item)
        self._on_length_change()
        self._drain_getters()

    def discard_getters(self) -> int:
        """Drop all pending get requests (their requesters are gone).

        A worker that died mid-``get`` leaves its request queued; were it
        left in place it would swallow the first replayed item.  Returns
        the number of requests discarded.
        """
        discarded = len(self._getters)
        self._getters.clear()
        return discarded

    # -- internals -----------------------------------------------------------

    def _insert(self, item: Any) -> None:
        self._items.append(item)
        self._on_length_change()
        if self.on_insert is not None:
            self.on_insert(item)
        self._drain_getters()

    def _serve_getter(self, request: GetRequest) -> None:
        if self._items:
            item = self._items.popleft()
            self._on_length_change()
            request.succeed(item)
            self._admit_putters()
        else:
            self._getters.append(request)

    def _drain_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            item = self._items.popleft()
            self._on_length_change()
            getter.succeed(item)

    def _admit_putters(self, inline: bool = False) -> None:
        """Store blocked puts in FIFO order while there is room.

        With ``inline``, parked producers whose resumptions would be the
        next events processed run after the loop, in admission order —
        exactly as their events would have, back to back.
        """
        env, items, putters, capacity = self.env, self._items, self._putters, self.capacity
        ready = []
        while putters and (capacity is None or len(items) < capacity):  # not is_full
            putter = putters.popleft()
            items.append(putter.item)
            self._on_length_change()
            if self.on_insert is not None:
                self.on_insert(putter.item)
            if inline and type(putter) is _Parked and env.next_up(env.now):  # resumption next
                ready.append(putter.resume)
            else:
                putter.succeed()
            if self._getters:
                self._drain_getters()
        for resume in ready:
            resume(None)

    def admit_waiting(self) -> None:
        """Serve blocked producers/consumers after out-of-band mutation.

        ``purge`` empties the buffer without touching waiters; once a
        failover has refilled it (or decided not to), this re-admits
        blocked putters into the freed space and hands queued items to
        any already-registered getters.  Their producers resume by event:
        the caller goes on (a failover spawns the restarted worker next).
        """
        self._drain_getters()
        self._admit_putters()

    def _on_length_change(self) -> None:
        """Hook for subclasses tracking occupancy; default does nothing."""


class BoundedQueue(Store):
    """A stage input buffer instrumented for the adaptation algorithm.

    This is the queue in the paper's queuing-network model: the adaptation
    algorithm samples its current length ``d`` and the recent average
    ``d̄`` of its last ``window`` lengths, one per change.  ``capacity``
    is the paper's C (required: the adaptation formulas normalize by it).
    """

    def __init__(self, env: Environment, capacity: int, window: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity C must be >= 1, got {capacity}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        super().__init__(env, capacity=capacity)
        self._recent: Deque[int] = deque([0], maxlen=window)

    @property
    def current_length(self) -> int:
        """``d`` — instantaneous queue length."""
        return len(self._items)

    @property
    def recent_average(self) -> float:
        """``d̄`` — mean of the lengths sampled over the recent window."""
        return sum(self._recent) / len(self._recent)

    def _on_length_change(self) -> None:
        self._recent.append(len(self._items))
