"""Real-thread runtime with token-bucket throttled links.

The paper ran GATES stages as JVM threads over delay-injected cluster
links; this runtime is the Python equivalent, demonstrating the same
middleware (processors, adjustment parameters, the Section 4 adaptation
algorithm) under genuine concurrency and wall-clock time.

A configuration runs here through :func:`repro.core.run.run` (which
calls :meth:`ThreadedRuntime.from_config`); ``add_stage`` / ``connect``
also build a pipeline by hand.  Unlike the simulator it is noisy — the
"impact of the thread scheduler" the paper observed.

Processing cost is modeled by sleeping ``cost * time_scale`` seconds per
item (``time_scale`` defaults to 1.0; tests shrink it).

Fault tolerance (``resilience=``) covers the subset that makes sense
without a simulated fabric: poison-item quarantine under the configured
``error_policy`` (skip / dead-letter) and periodic stage checkpointing
to a :class:`~repro.resilience.checkpoint.CheckpointStore` — threads do
not crash-stop like simulated hosts, so live failover and replay remain
:class:`~repro.core.runtime_sim.SimulatedRuntime` features (see
docs/fault_tolerance.md).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.adaptation.protocol import LoadException
from repro.core.api import StreamProcessor
from repro.core.items import EndOfStream, Item, ItemQueue, ItemRun
from repro.core.kernel import (
    FLUSH,
    SEND,
    TAKE,
    WAIT,
    WORK,
    RouteUnit,
    SourceBinding,
    StageCore,
    adaptation_tick,
    build_route_units,
    check_binding,
    edge_spec,
    restore_checkpoint,
    run_report,
    run_setup,
    source_loop,
    stage_checkpoint,
    stage_finals,
    stage_loop,
    swap_processor,
)
from repro.core.results import RunResult
from repro.core.run import RunOptions, at, take
from repro.core.sharding import (
    ShardGroup,
    ShardScaler,
    export_keyed_state,
    groups_of,
    import_keyed_state,
)
from repro.core.termination import no_input_message
from repro.grid.admission import admit
from repro.obs.tracing import TraceCollector
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.policy import DeadLetterQueue, ResilienceConfig
from repro.simnet.links import TokenBucket

__all__ = ["ThreadedRuntime", "ThreadedRuntimeError"]


class ThreadedRuntimeError(Exception):
    """Raised for invalid threaded-runtime configuration or timeouts."""


class _MonitoredQueue(ItemQueue):
    """Bounded thread-safe :class:`~repro.core.items.ItemQueue`.

    ``put`` blocks while the queue holds ``capacity`` items, so a slow
    consumer exerts real backpressure on its producers — the Section-4
    queue-length signal stays meaningful instead of saturating on an
    unbounded deque.  ``force_put`` bypasses the bound for control
    messages that must never deadlock (the error-path end-of-stream),
    and ``close`` releases any blocked producers when the consumer dies.

    Items the consumer takes with :meth:`get_many` are *held*: they
    stay counted — in :attr:`current_length`, in the d̄ window and
    against ``capacity`` — until the consumer's next take releases them.
    So queued plus in-hand items never exceed ``capacity``, and the
    length still shows the backlog the stage has not served.
    """

    def __init__(self, capacity: int, window: int) -> None:
        super().__init__(capacity, window)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def put(self, entry: Any) -> None:
        """Append one entry, blocking while the queue is at capacity.  A
        run that does not fit is split: what fits goes now, the rest
        waits for room."""
        with self._lock:
            while entry is not None:
                while self._length >= self.capacity and not self._closed:
                    self._not_full.wait()
                if self._closed:
                    return
                entry = self._admit(entry, self.capacity - self._length)
                self._not_empty.notify()

    def put_many(self, items: List[Any]) -> None:
        """Append one-item entries under one lock acquisition, respecting
        capacity: as many as fit per wakeup, so the bound holds exactly
        and the per-item lock and notify round-trips are amortized over
        the batch."""
        with self._lock:
            index = 0
            while index < len(items):
                while self._length >= self.capacity and not self._closed:
                    self._not_full.wait()
                if self._closed:
                    return
                fit = items[index:index + self.capacity - self._length]
                self._admit_all(fit)
                self._not_empty.notify()
                index += len(fit)

    def force_put(self, item: Any) -> None:
        """Append regardless of capacity; never blocks.

        Reserved for control messages a dying producer must deliver (its
        end-of-stream) — blocking there could deadlock against a consumer
        that will never drain.
        """
        with self._lock:
            if self._closed:
                return
            self._admit(item)
            self._not_empty.notify()

    def close(self) -> None:
        """Mark the consumer gone: wake and release every blocked producer.

        Subsequent puts are dropped silently — there is nobody left to
        process them, and blocking a healthy upstream stage on a dead
        downstream queue would turn one stage failure into a run-wide
        deadlock.
        """
        with self._lock:
            self._closed = True
            self._not_full.notify_all()

    def idle(self) -> bool:
        """Whether nothing is queued (held items aside): the consumer is
        waiting, or will be at its next take.  An unlocked peek — a hint
        for a producer deciding when to hand over, never a guarantee."""
        return not self._items

    def get_many(self, max_items: int, timeout: Optional[float] = None) -> List[Any]:
        """Release the held items, block until the queue is non-empty
        (raising ``TimeoutError`` after ``timeout`` seconds), then take a
        chunk of up to ``max_items`` items without further waiting.  The
        taken items are held until the next take."""
        with self._lock:
            if self._held:
                self._not_full.notify(self._held)
            taken = self._take_item_chunk(max_items, True)
            if taken:
                return taken
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._items:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("queue get timed out")
                self._not_empty.wait(remaining)
            return self._take_item_chunk(max_items, True)

    @property
    def recent_average(self) -> float:
        with self._lock:  # producers append to the window
            return super().recent_average


@dataclass
class _ThreadEdge:
    dst: "_ThreadStage"
    bucket: Optional[TokenBucket]
    name: Optional[str] = None


class _ThreadStage(StageCore):
    """The kernel's stage record plus the threaded driver's locks and flags."""

    def __init__(self, *core: Any) -> None:
        super().__init__(*core, param_lock=threading.Lock())
        self.out_edges: List[_ThreadEdge] = []
        self.upstream: List["_ThreadStage"] = []
        #: Items routed to this stage through a shard group (written under
        #: the group's lock) vs ``consumed``, the items its worker finished
        #: with.  The autoscaler drains a group by waiting for the two to
        #: meet.
        self.delivered = 0
        #: Serializes arrival-rate observations (several producer threads
        #: feed one queue; the estimator requires non-decreasing times).
        self.rate_lock = threading.Lock()
        #: Serializes processor mutation (on_item/flush in the worker) against
        #: the checkpointer thread's snapshot(), keeping checkpoints
        #: item-consistent.
        self.state_lock = threading.Lock()
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class ThreadedRuntime:
    """A pipeline executed on real threads: built from a configuration
    by :meth:`from_config`, or stage by stage with :meth:`add_stage`,
    :meth:`connect` (optionally over a token-bucket link) and
    :meth:`bind_source`."""

    def __init__(self, **options: Any) -> None:
        """``options`` are the threaded build rows of
        :class:`~repro.core.run.RunOptions`; another row raises
        :class:`ThreadedRuntimeError`.  ``batch``'s ``max_delay`` is in
        scaled seconds, like processing cost (docs/performance.md)."""
        opts = take("threaded", ThreadedRuntimeError, options)
        self.policy = opts.policy
        self.time_scale = opts.time_scale
        self.adaptation_enabled = opts.adaptation_enabled
        self.metrics = opts.metrics
        self.tracer: Optional[TraceCollector] = opts.tracer()
        self.batch = opts.batch
        self.resilience: Optional[ResilienceConfig] = opts.resilience
        self.checkpoints: Optional[CheckpointStore] = opts.checkpoints
        self.dead_letters: Optional[DeadLetterQueue] = (
            DeadLetterQueue() if self.resilience is not None else None
        )
        self._stages: Dict[str, _ThreadStage] = {}
        self._sources: List[SourceBinding] = []
        #: (source name, exception) of every source that raised.
        self._source_errors: List[Tuple[str, BaseException]] = []
        #: Shard groups, and each one's routing lock: a producer holds it
        #: per routed item, the autoscaler for a whole rebalance, so no
        #: item is partitioned with a stale active count while keyed
        #: state is in flight.
        self._groups: Dict[str, ShardGroup] = {}
        self._group_locks: Dict[str, threading.Lock] = {}
        self._start_time = 0.0
        self._started = False
        #: Completed planned moves (MigrationReport), in commit order.
        self.migrations: List[Any] = []
        #: Per-stage lock serializing migrate_stage() calls: a second
        #: request while one is in flight queues at the lock, never
        #: interleaves.
        self._migration_locks: Dict[str, threading.Lock] = {}

    def elapsed(self) -> float:
        """Wall-clock seconds since :meth:`run` started."""
        return time.monotonic() - self._start_time

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config: "AppConfig",  # noqa: F821 - imported lazily below
        **options: Any,
    ) -> "ThreadedRuntime":
        """Admit ``config`` (:func:`~repro.grid.admission.admit` against
        the ``repository`` option; ``verify=False`` skips its
        static-verifier gate), instantiate its processors and wire its
        streams.  Sources still need :meth:`bind_source`; the other
        options go to the constructor."""
        opts = take("threaded", ThreadedRuntimeError, options, ("admit", "build"))
        config, factories = admit(
            config, ThreadedRuntimeError, repository=opts.repository, verify=opts.verify
        )
        runtime = cls(**at("build", options))
        for stage in config.stages:
            runtime.add_stage(stage.name, factories[stage.name](), properties=stage.properties)
        for stream in config.streams:
            runtime.connect(stream.src, stream.dst, name=stream.name)
        return runtime

    def add_stage(
        self,
        name: str,
        processor: StreamProcessor,
        properties: Optional[Dict[str, str]] = None,
    ) -> None:
        """Register a stage."""
        if self._started:
            raise ThreadedRuntimeError("cannot add stages after run()")
        if name in self._stages:
            raise ThreadedRuntimeError(f"duplicate stage {name!r}")
        if not isinstance(processor, StreamProcessor):
            raise ThreadedRuntimeError(f"{name}: processor must be a StreamProcessor")
        try:
            stage = _ThreadStage(
                name, processor, dict(properties or {}),
                lambda capacity: _MonitoredQueue(capacity, self.policy.window),
                self.policy, self.metrics, self.elapsed, self.batch, self.time_scale,
            )
        except ValueError as exc:
            raise ThreadedRuntimeError(f"{name}: {exc}") from None
        stage.resilience, stage.dead_letters = self.resilience, self.dead_letters
        self._stages[name] = stage

    def connect(
        self,
        src: str,
        dst: str,
        bandwidth: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        """Wire src -> dst, optionally through a token-bucket limited link.

        ``bandwidth`` is bytes/second of *scaled* time (i.e. the effective
        rate is bandwidth / time_scale in wall seconds).  ``name`` makes
        the edge addressable by ``context.emit(..., stream=name)``.
        """
        if self._started:
            raise ThreadedRuntimeError("cannot connect stages after run()")
        try:
            source, target = self._stages[src], self._stages[dst]
        except KeyError as exc:
            raise ThreadedRuntimeError(f"unknown stage {exc}") from None
        bucket = None
        if bandwidth is not None:
            if bandwidth <= 0:
                raise ThreadedRuntimeError(f"bandwidth must be > 0, got {bandwidth}")
            # Burst of ~10 ms of tokens: enough to amortize per-message
            # overhead, small enough that short transfers still see the
            # configured rate (a 1 s burst would let whole test workloads
            # through unthrottled).
            bucket = TokenBucket(
                rate=bandwidth, burst=max(1.0, bandwidth * 0.01), clock=time.monotonic
            )
        source.out_edges.append(_ThreadEdge(dst=target, bucket=bucket, name=name))
        target.upstream.append(source)
        target.eos.expect(group=source.options.shard_group)

    def bind_source(
        self,
        name: str,
        target: str,
        payloads: Iterable[Any],
        rate: Optional[float] = None,
        item_size: float | Callable[[Any], float] = 8.0,
        arrivals: Optional[Any] = None,
    ) -> None:
        """Attach an external stream to a stage or shard group: the fields
        of :class:`~repro.core.kernel.SourceBinding`, with ``rate`` in
        items per *scaled* second."""
        if self._started:
            raise ThreadedRuntimeError("cannot bind sources after run()")
        binding = SourceBinding(name, target, payloads, rate, item_size, arrivals)
        check_binding(
            binding, {n: s.options for n, s in self._stages.items()}, ThreadedRuntimeError
        )
        self._sources.append(binding)

    # -- execution ----------------------------------------------------------------

    def run(self, timeout: float = RunOptions.timeout) -> RunResult:
        """Run all threads to completion (or raise on ``timeout``)."""
        if self._started:
            raise ThreadedRuntimeError("run() may only be called once")
        self._build_shards()
        for source in self._sources:
            for name in source.targets(self._groups):
                self._stages[name].eos.expect()
        for stage in self._stages.values():
            if not stage.eos.has_inputs:
                raise ThreadedRuntimeError(no_input_message(stage.name))
        self._started = True
        self._start_time = time.monotonic()

        for stage in self._stages.values():
            stage.open_batch_buffers(range(len(stage.out_edges)))
            run_setup(stage, ThreadedRuntimeError)

        stop_monitors = threading.Event()
        checkpointing = (
            self.resilience is not None and self.resilience.checkpoint_interval is not None
        )
        bodies: List[Tuple[Callable[..., None], Tuple[Any, ...]]] = []
        for stage in self._stages.values():
            bodies.append((self._worker, (stage,)))
            if self.adaptation_enabled:
                bodies.append((self._monitor, (stage, stop_monitors)))
            if checkpointing:
                bodies.append((self._checkpointer, (stage, stop_monitors)))
        for group in self._groups.values():
            if group.policy.elastic:
                bodies.append((self._autoscaler, (group, stop_monitors)))
        bodies += [(self._feeder, (source,)) for source in self._sources]
        for body, args in bodies:
            threading.Thread(target=body, args=args, daemon=True).start()

        deadline = time.monotonic() + timeout
        for stage in self._stages.values():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not stage.done.wait(remaining):
                stop_monitors.set()
                raise ThreadedRuntimeError(
                    f"stage {stage.name!r} did not finish within {timeout}s"
                )
        stop_monitors.set()

        if self._source_errors:
            name, exc = self._source_errors[0]
            raise ThreadedRuntimeError(f"source {name!r} failed: {exc!r}") from exc
        errors = [s.error for s in self._stages.values() if s.error is not None]
        if errors:
            raise errors[0]

        elapsed = self.elapsed()
        return run_report(
            RunResult(app_name="threaded-app"), self.metrics, elapsed,
            dict.fromkeys(self._stages, "local-thread"),
            stage_finals(self._stages.values(), elapsed), self._groups, self.tracer,
        )

    # -- thread bodies -----------------------------------------------------------

    def _observe_arrival(self, stage: _ThreadStage, count: int = 1) -> None:
        """Record ``count`` arrivals; the lock keeps observation times monotone.

        Several producer threads (feeders, upstream workers) may feed one
        queue; reading the clock *inside* the lock guarantees the
        estimator sees non-decreasing times.  A batched handoff is one
        observation with ``count=n`` — the estimator's burst semantics,
        not ``n`` zero-gap observations.
        """
        with stage.rate_lock:
            stage.rate_estimator.observe(self.elapsed(), count=count)

    def _feeder(self, source: SourceBinding) -> None:
        """Interpret the kernel's :func:`source_loop` on this thread.

        Gaps are sleeps; a group-bound put happens per item under the
        group's lock (the autoscaler rebalances there).  Into any other
        stage, arrivals go as runs of up to a quarter of the queue's
        capacity, each one lock round-trip and one rate observation,
        and the loop puts a run at once when the queue is idle: its
        worker is or is about to be waiting.  So paced sources, and
        iterables that block between pulls while the stage keeps up,
        still deliver each item as it arrives.  A source that raises
        ends its targets' input and fails the run.
        """
        group = self._groups.get(source.target_stage)
        members = [self._stages[name] for name in source.targets(self._groups)]
        idle = members[0].queue.idle
        loop = source_loop(
            source, self._groups, self.elapsed, self.metrics, tracer=self.tracer,
            time_scale=self.time_scale, lock=self._group_locks.get(source.target_stage),
            batch=None if group else max(1, members[0].queue.capacity // 4),
            ready=lambda slot: idle(),
        )
        try:
            for effect in loop:
                if effect[0] is WAIT:
                    time.sleep(effect[1])
                    continue
                _, slot, message = effect
                member = members[slot]
                count = len(message.values) if type(message) is ItemRun else 1
                member.queue.put(message)  # may split a run: counted first
                if type(message) is not EndOfStream:
                    if group is not None:
                        member.delivered += 1  # one item, under the group lock
                    self._observe_arrival(member, count)
        except Exception as exc:  # surfaced by run()
            loop.close()  # releases the group lock if a put raised
            self._source_errors.append((source.name, exc))
            for member in members:
                member.queue.force_put(EndOfStream(origin=source.name))

    def _worker(self, stage: _ThreadStage) -> None:
        """Interpret the kernel's :func:`stage_loop` on this thread.

        Each ``TAKE`` drains the queue in one ``get_many``: up to the
        batch size under a batch policy, otherwise everything queued.
        The taken items stay counted in the queue until the next take.
        """
        step = stage_loop(stage, None).send
        get_many = stage.queue.get_many
        limit = stage.batch.max_items if stage.batch is not None else stage.queue.capacity
        reply: Any = None
        try:
            while True:
                effect = step(reply)
                reply = None
                kind = effect[0]
                if kind is TAKE:
                    try:
                        reply = get_many(limit, effect[1])
                    except TimeoutError:
                        reply = ()  # the oldest batch is due: the loop flushes it
                elif kind is WORK:
                    reply = effect[1].cost(effect[2], effect[3]) * self.time_scale
                    if reply > 0:
                        time.sleep(reply)
                elif kind is SEND:
                    self._send(stage, *effect[1:])
                elif kind is FLUSH:
                    self._ship(stage, effect[1], effect[2])
                else:  # EOS
                    for edge in stage.out_edges:
                        edge.dst.queue.put(EndOfStream(origin=stage.name))
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced by run()
            stage.error = exc
            # Release every neighbour promptly: producers blocked on our
            # bounded queue are woken (close), and downstream stages get
            # our end-of-stream so run() surfaces this error instead of
            # timing out.  force_put: a full downstream queue must not
            # block a dying stage.
            stage.queue.close()
            for edge in stage.out_edges:
                edge.dst.queue.force_put(EndOfStream(origin=stage.name))
        finally:
            stage.done.set()

    def _send(
        self,
        stage: _ThreadStage,
        route: Union[int, RouteUnit],
        payload: Any,
        size: float,
        stream: Optional[str],
        trace=None,
    ) -> None:
        """Deliver one emission on an out-edge, or across a shard family.

        Family (sharded) emissions never sit in a batch buffer: a
        buffered item routed with a pre-rebalance active count would land
        on a stale owner after the handoff.
        """
        if not isinstance(route, int):
            self._send_family(stage, route, payload, size, stream, trace)
            return
        edge = stage.out_edges[route]
        if edge.bucket is not None:
            wait = edge.bucket.consume(size)
            if wait > 0:
                time.sleep(wait * self.time_scale)
        self._put_emission(stage, edge, payload, size, trace)
        self._observe_arrival(edge.dst)

    def _put_emission(
        self, stage: _ThreadStage, edge: _ThreadEdge, payload: Any, size: float, trace: Any
    ) -> None:
        """Stamp one emission now and put it into the edge's queue."""
        now = self.elapsed()
        item = Item(payload, size, stage.name, now, trace)
        if trace is not None:
            # Open the hop before the put: the downstream worker may
            # dequeue immediately.  Emissions share the parent item's trace.
            item.hop = trace.begin_hop(edge.dst.name, now)
        edge.dst.queue.put(item)

    def _send_family(
        self,
        stage: _ThreadStage,
        unit: RouteUnit,
        payload: Any,
        size: float,
        stream: Optional[str],
        trace=None,
    ) -> None:
        """Ship one emission across a shard family: exactly one replica.

        The owner is the key's replica under the group's partitioner and
        current active count, chosen and delivered under the group's
        routing lock so a concurrent rebalance never splits a key's items
        between the old and the new owner.  Naming a concrete per-replica
        stream (``"t#1"``) overrides the partitioner for that emission.
        """
        group = self._groups[unit.group or ""]
        wait = 0.0
        with self._group_locks[group.name]:
            if stream is not None and stream in unit.named:
                slot = unit.named[stream]
            else:
                slot = group.owner(payload)
            edge = stage.out_edges[unit.edges[slot]]
            if edge.bucket is not None:
                wait = edge.bucket.consume(size)
            self._put_emission(stage, edge, payload, size, trace)
            edge.dst.delivered += 1
        if wait > 0:
            # The bucket already charged this emission; sleeping out here
            # paces the producer identically but keeps the routing lock
            # short — a throttled edge must stall only this thread, not
            # every producer routing to the group (and the autoscaler).
            time.sleep(wait * self.time_scale)
        self._observe_arrival(edge.dst)
        unit.counters[slot].inc()

    def _ship(self, stage: _ThreadStage, index: int, entries: List[Any]) -> None:
        """Ship one edge's flushed batch downstream: one token-bucket
        charge and one (amortized) queue handoff for the whole batch."""
        edge = stage.out_edges[index]
        if edge.bucket is not None:
            wait = edge.bucket.consume(sum(entry[1] for entry in entries))
            if wait > 0:
                time.sleep(wait * self.time_scale)
        now = self.elapsed()
        items: List[Item] = []
        for payload, size, created, trace, _ in entries:
            item = Item(payload, size, stage.name, created, trace)
            if trace is not None:
                item.hop = trace.begin_hop(edge.dst.name, now)
            items.append(item)
        edge.dst.queue.put_many(items)
        self._observe_arrival(edge.dst, count=len(items))

    # -- sharding and elastic scaling ---------------------------------------

    def _build_shards(self) -> None:
        """Discover shard groups and build every stage's routing units.

        Runs once at :meth:`run` start: reconstructs the groups from the
        expanded stages' properties, binds the ``shard.{stage}.items``
        counters, and turns each stage's flat out-edge list into the
        kernel's route units — solo edges as-is, per-replica edge
        families collapsed into one partitioned unit each.
        """
        self._groups = groups_of(s.options for s in self._stages.values())
        self._group_locks = {name: threading.Lock() for name in self._groups}
        for stage in self._stages.values():
            stage.route_units, stage.stream_names = build_route_units(
                [
                    edge_spec(edge.name, edge.dst.name, edge.dst.options, self.metrics)
                    for edge in stage.out_edges
                ]
            )

    def _autoscaler(self, group: ShardGroup, stop: threading.Event) -> None:
        """Per-group control loop: occupancy samples in, rebalances out.

        Samples mean queue occupancy across the group's active replicas
        on the adaptation cadence (the Section-4 queue-length signal,
        normalized by capacity), feeds it to a :class:`ShardScaler`, and
        executes the transitions it decides.  Every transition is
        recorded in the ``scale.*`` metric family.
        """
        group_name = group.name
        members = [self._stages[name] for name in group.members]
        scaler = ShardScaler(group.policy, group.active)
        replicas_series = self.metrics.series(f"scale.{group_name}.replicas")
        scale_ups = self.metrics.counter(f"scale.{group_name}.scale_ups")
        scale_downs = self.metrics.counter(f"scale.{group_name}.scale_downs")
        rebalance_seconds = self.metrics.histogram(
            f"scale.{group_name}.rebalance_seconds"
        )
        interval = self.policy.sample_interval * self.time_scale
        replicas_series.record(self.elapsed(), float(group.active))
        while not stop.wait(interval) and not all(m.done.is_set() for m in members):
            active_members = members[: group.active]
            occupancy = sum(
                min(1.0, m.queue.current_length / m.queue.capacity)
                for m in active_members
            ) / len(active_members)
            previous = group.active
            target = scaler.observe(occupancy)
            if target is None or target == previous:
                continue
            started = time.monotonic()
            if self._rebalance(group, members, target):
                rebalance_seconds.observe(time.monotonic() - started)
                (scale_ups if target > previous else scale_downs).inc()
                replicas_series.record(self.elapsed(), float(group.active))
            else:
                # Transition aborted (a member finished or died mid-drain);
                # resync the scaler with reality.
                scaler.active = group.active

    def _rebalance(
        self, group: ShardGroup, members: List[_ThreadStage], target: int
    ) -> bool:
        """Move the group to ``target`` active replicas with state handoff.

        Protocol: take the routing lock (producers can no longer route to
        the group), wait until every previously-active member has
        processed everything already delivered, export each member's
        keyed state (under its state lock, serializing against on_item
        and the checkpointer), repartition the merged state by the new
        active count, import, then publish the new count and release.

        Returns False — leaving the active count untouched — when a
        member terminates or errors while draining.
        """
        with self._group_locks[group.name]:
            previous = group.active
            while any(m.delivered > m.consumed for m in members[:previous]):
                if any(m.done.is_set() for m in members):
                    return False
                # The routing lock *is* the drain barrier here: producers
                # must stay parked while already-delivered items drain, so
                # this poll deliberately sleeps under the lock.
                time.sleep(0.001)  # repro: noqa[GA601]
            merged: Dict[Any, Any] = {}
            exported = False
            for member in members[:previous]:
                with member.state_lock:
                    keyed = export_keyed_state(member.processor)
                if keyed is not None:
                    exported = True
                    merged.update(keyed)
            if exported:
                buckets: List[Dict[Any, Any]] = [{} for _ in range(target)]
                for key, value in merged.items():
                    buckets[group.partitioner.select(key, target)][key] = value
                for index in range(target):
                    member = members[index]
                    with member.state_lock:
                        import_keyed_state(member.processor, buckets[index])
            group.active = target
        return True

    def _checkpointer(self, stage: _ThreadStage, stop: threading.Event) -> None:
        """Snapshot ``stage`` every ``checkpoint_interval`` scaled seconds.

        The threaded runtime has no replay buffer (threads do not
        crash-stop), so checkpoints carry empty cursors — they exist for
        durability (e.g. a :class:`JsonlCheckpointStore` a later process
        resumes from), not live failover.
        """
        assert self.resilience is not None
        assert self.resilience.checkpoint_interval is not None
        interval = self.resilience.checkpoint_interval * self.time_scale
        while not stop.wait(interval) and not stage.done.is_set():
            self._checkpoint_stage(stage)

    def _checkpoint_stage(self, stage: _ThreadStage) -> None:
        assert self.checkpoints is not None
        with stage.state_lock:
            checkpoint = stage_checkpoint(stage)
        self.checkpoints.save(checkpoint)
        self.metrics.counter(f"recovery.{stage.name}.checkpoints").inc()

    def migrate_stage(self, stage_name: str, factory: Optional[Callable[[], StreamProcessor]] = None):
        """Swap a running stage's processor live, preserving its state.

        The threaded runtime has no placement fabric, so its "move" is
        the processor half of a migration: checkpoint the stage at an
        item boundary (under ``state_lock``, exactly like the
        checkpointer), instantiate a replacement (``factory`` or the
        same class), swap it in with the kernel's
        :func:`~repro.core.kernel.swap_processor` (``setup()`` re-run,
        parameters bound to the live ones) and restore the checkpoint's
        processor state into it — while the worker thread is parked at
        the lock.  The stage record lives on, so its parameters,
        estimator and EOS progress are not rolled back.  Concurrent
        calls for the same stage queue at a per-stage lock; no two moves
        interleave.

        Returns the :class:`~repro.resilience.migration.MigrationReport`
        (hosts are ``"local"``; the pause is wall-clock scaled seconds).
        """
        from repro.resilience.migration import MigrationReport, book_move

        stage = self._stages.get(stage_name)
        if stage is None:
            raise ThreadedRuntimeError(f"unknown stage {stage_name!r}")
        lock = self._migration_locks.setdefault(stage_name, threading.Lock())
        with lock:
            requested_at = self.elapsed()
            t0 = time.monotonic()
            with stage.state_lock:
                if stage.done.is_set():
                    raise ThreadedRuntimeError(
                        f"stage {stage_name!r} already finished; nothing to migrate"
                    )
                checkpoint = stage_checkpoint(stage)
                replacement = (factory or type(stage.processor))()
                swap_processor(stage, replacement, ThreadedRuntimeError)
                restore_checkpoint(stage, checkpoint, processor_only=True)
            pause = (time.monotonic() - t0) / self.time_scale
            return book_move(
                MigrationReport(
                    stage=stage_name,
                    from_host="local",
                    to_host="local",
                    trigger="manual",
                    requested_at=requested_at,
                    completed_at=self.elapsed(),
                    pause_seconds=pause,
                ),
                self.metrics,
                self.migrations,
            )

    def _monitor(self, stage: _ThreadStage, stop: threading.Event) -> None:
        def report(exception: LoadException) -> None:
            for upstream in stage.upstream:
                upstream.receive_exception(exception)

        interval = self.policy.sample_interval * self.time_scale
        while not stage.done.is_set() and not stop.wait(interval):
            adaptation_tick(stage, report)
