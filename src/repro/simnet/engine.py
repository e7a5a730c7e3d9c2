"""Generator-based discrete-event simulation kernel.

This module implements the minimal event-driven core that every simulated
subsystem in the reproduction is built on.  The design follows the classic
process-interaction style (as popularized by SimPy, re-implemented here from
scratch so the repository is self-contained):

* An :class:`Environment` owns the simulation clock and a priority queue of
  scheduled events.
* An :class:`Event` is a one-shot occurrence that callbacks can be attached
  to.  Events succeed with a value or fail with an exception.
* A :class:`Process` wraps a Python generator.  The generator *yields*
  events; the process is suspended until the yielded event fires, at which
  point the event's value (or exception) is sent (or thrown) back into the
  generator.
* :class:`Timeout` is an event that fires after a fixed delay --- the basic
  way processes let simulated time pass.
* :class:`AllOf` / :class:`AnyOf` compose events.
* Processes can be :meth:`Process.interrupt`-ed, which raises
  :class:`Interrupt` inside the generator at its current suspension point.

Determinism
-----------
Events scheduled for the same simulation time fire by priority (process
starts and interrupts, then ordinary events, then work completions) and, in
each, in FIFO order of scheduling (a sequence number breaks ties), so a run
is a pure function of its inputs and the model's random seeds.  This is what
makes the paper's experiments repeatable here, in contrast to the
JVM-thread-scheduler noise the authors mention.

Run to completion
-----------------
An operation whose event would be the very next one processed may run
inline instead, with no event at all: nothing can happen in between, so
the run observes exactly what the event would have shown it.
:meth:`Environment.next_up` is the one predicate that decides it; the
callers are a worker's dequeue (:meth:`Environment.settled`), a producer
admitted into a store (:meth:`~repro.simnet.resources.Store.offer`) and
work on a free core (:meth:`~repro.simnet.hosts.Host.execute_inline`).
Each caller would wait on the operation at once, so nothing of its own
comes in between either.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "StopProcess",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself.

    Examples: triggering an already-triggered event, yielding a non-event
    from a process generator, or running an environment whose queue is
    corrupt.  Model-level failures should use their own exception types and
    travel through events via :meth:`Event.fail`.
    """


class StopProcess(Exception):
    """Raised internally to stop a process early with a return value."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.  A process may catch :class:`Interrupt` and
    continue; uncaught, it terminates the process with this exception.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Processes wait on events by yielding them.

    Attributes
    ----------
    env:
        The owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event once it has been processed.
        ``None`` after processing (late callbacks run immediately).
        They run in list order, so a callback appended before a process
        yields the event runs before that process resumes.  Each callback
        sees the event as the previous one left it: an earlier callback
        that rewrites ``_ok``/``_value`` (a completion event whose owner
        settles its account first and may turn success into failure)
        decides what later callbacks, a waiting process and the
        undefused-failure check in :meth:`Environment.step` observe.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set True when a failure has been consumed (by a waiting process
        #: or an explicit ``defused`` assignment); undefused failures are
        #: re-raised by Environment.step() so errors are never silent.
        self.defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed/fail has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def complete(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Succeed ``delay`` from now: the end of work that starts now.

        One heap entry for the whole unit of work.  It is processed after
        the ordinary events of its instant — where the termination of a
        process that did ``yield env.timeout(delay)`` would be — so whoever
        waits on the work finds that instant's arrivals and samples made.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, delay, Environment._LATE)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception propagates into any process waiting on this event.
        If nobody consumes it, the environment re-raises it at step time.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    # -- callback plumbing ----------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Initialize(Event):
    """Internal event that starts a process at the current time."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, priority=0)


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises (failed).
    Other processes can therefore ``yield proc`` to join on it.
    """

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently suspended on (None if running
        #: or terminated).
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its wait point.

        Interrupting a terminated process is an error; interrupting a
        process that is currently scheduled to resume is allowed (the
        interrupt is delivered first).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        failure = Event(self.env)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure.defused = True
        failure.callbacks.append(self._resume)
        self.env._schedule(failure, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        # Detach from the event we were waiting on (if any): when an
        # interrupt arrives the original target may fire later, and must
        # not resume us a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                exc = event._value
                next_event = self._generator.throw(type(exc), exc, None)
        except StopIteration as stop:
            self.env._active_process = None
            self._terminate_ok(stop.value)
            return
        except StopProcess as stop:
            self.env._active_process = None
            self._generator.close()
            self._terminate_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - model errors flow via events
            self.env._active_process = None
            self._terminate_fail(exc)
            return
        self.env._active_process = None
        if not isinstance(next_event, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}"
            )
            self._terminate_fail(err)
            return
        if next_event.env is not self.env:
            self._terminate_fail(
                SimulationError("yielded event belongs to a different environment")
            )
            return
        self._target = next_event
        next_event.add_callback(self._resume)

    def _terminate_ok(self, value: Any) -> None:
        if self._value is _PENDING:
            self._ok = True
            self._value = value
            self.env._schedule(self)

    def _terminate_fail(self, exc: BaseException) -> None:
        if self._value is _PENDING:
            self._ok = False
            self._value = exc
            self.env._schedule(self)


class Condition(Event):
    """Base for composite events over a set of sub-events."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* sub-events have fired; value maps event -> value."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self.events})


class AnyOf(Condition):
    """Fires when *any* sub-event fires; value maps fired events -> values."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed({e: e._value for e in self.events if e.processed and e._ok})


class Environment:
    """Owner of the simulation clock and the scheduled-event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (default 0.0).

    Examples
    --------
    >>> env = Environment()
    >>> log = []
    >>> def proc(env):
    ...     yield env.timeout(2.5)
    ...     log.append(env.now)
    >>> _ = env.process(proc(env))
    >>> env.run()
    >>> log
    [2.5]
    """

    #: "Urgent" events (initialization, interrupts) run before the normal
    #: events of their time; completions (:meth:`Event.complete`) run after.
    _URGENT = 0
    _NORMAL = 1
    _LATE = 2

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: The latest time the loop driving this environment will process
        #: an event at; nothing past it runs inline (:meth:`next_up`).  Set
        #: by :meth:`run` and by a runtime that drives :meth:`step` itself.
        self.horizon = float("inf")

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def call_later(
        self, delay: float, callback: Callable[[Event], None], value: Any = None
    ) -> None:
        """Call ``callback(event)`` after ``delay``; ``event.value`` is ``value``.

        Scheduled like a process that waits ``delay`` and then calls, for
        one heap entry instead of three: with no delay the call is made at
        this instant ahead of every normal event already scheduled for it,
        as that process's start would be.
        """
        event = Event(self)
        event._ok = True
        event._value = value
        event.callbacks.append(callback)
        self._schedule(event, delay, self._NORMAL if delay else self._URGENT)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling / execution -------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = _NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def next_up(self, when: float, priority: int = _NORMAL) -> bool:
        """Would an event scheduled now for ``when`` be the next one processed?

        True when no scheduled event comes before it (an earlier time, or
        the same time at an equal or more urgent priority, which was
        scheduled first) and ``when`` is within :attr:`horizon`.  The
        operation that event would complete can then run inline: nothing
        can happen in between.  This is the simulator's only fast-path
        switch; answering False everywhere gives the same run, event by
        event.
        """
        if when > self.horizon:
            return False
        queue = self._queue
        if not queue:
            return True
        head = queue[0]
        return head[0] > when or (head[0] == when and head[1] > priority)

    def settled(self) -> bool:
        """True when only work completions are left for this instant.

        An event triggered now would then be the very next one processed
        (:meth:`next_up`), so a process that can take what it would wait
        for (an item already in a store) changes nothing by taking it
        without the event.
        """
        return self.next_up(self._now)

    def complete_inline(self, delay: float) -> bool:
        """Finish work that starts now and lasts ``delay`` without its event.

        When that work's completion (:meth:`Event.complete`) would be the
        next event processed, the clock moves to its end and True is
        returned; the caller then books the work itself.  Otherwise nothing
        changes and the caller schedules the completion.
        """
        when = self._now + delay
        if not self.next_up(when, self._LATE):
            return False
        self._now = when
        return True

    def step(self) -> None:
        """Process the next scheduled event.

        Raises the event's exception if it failed and nothing defused it —
        errors in model code are therefore loud by default.
        """
        if not self._queue:
            raise SimulationError("step() on empty schedule")
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value (raising if it failed).
        """
        if until is None:
            self.horizon = float("inf")
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            # The run ends with an event, at no time known in advance.
            self.horizon = float("-inf")
            stop: dict[str, Any] = {}

            def _done(event: Event) -> None:
                stop["event"] = event

            until.add_callback(_done)
            while self._queue and "event" not in stop:
                self.step()
            if "event" not in stop:
                raise SimulationError("run(until=event): schedule drained first")
            if not until._ok:
                until.defused = True
                raise until._value
            return until._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        self.horizon = horizon
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None
