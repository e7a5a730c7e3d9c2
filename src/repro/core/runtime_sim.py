"""Deterministic discrete-event runtime for deployed GATES applications.

This module ties everything together: it takes a
:class:`~repro.grid.deployer.Deployment` (stages already placed on hosts by
the grid substrate), wires the configured streams over the network's links,
instantiates the user processors inside their service instances, and runs
the pipeline plus the self-adaptation machinery as simulation processes.

Per stage, three kinds of processes run:

* the **worker** — runs the kernel's stage loop
  (:func:`~repro.core.kernel.stage_loop`): pulls items from the stage's
  input queue, charges the host CPU for each item, invokes the user's
  :class:`~repro.core.api.StreamProcessor`, and transmits emissions over
  the (bandwidth-limited) links to downstream queues.  Sender-side
  blocking on a saturated link is what backs data up into the stage's own
  queue — the mechanism behind the network-constraint adaptation of
  Figure 9.
* the **monitor** — on the adaptation cadence, feeds the stage's
  :class:`~repro.core.adaptation.LoadEstimator`, forwards any over-/
  under-load exception to the *upstream* stages' exception counters, and
  every ``adjust_every`` samples runs the stage's
  :class:`~repro.core.adaptation.ParameterController` s.
* **source feeders** — external stream arrivals (instruments,
  simulations) bound to first-layer stages at a configurable rate.

Downstream queue occupancy beyond capacity C is allowed (``force_put``):
the paper's model *observes* saturation (that is the signal adaptation
responds to) rather than hard-failing; lengths are clamped to C inside
the load factors.

Fault tolerance (opt-in via ``resilience=``; see docs/fault_tolerance.md)
adds three more per-stage mechanisms:

* a **checkpointer** snapshots the stage (processor state, adjustment
  parameters, adaptation state, replay cursors) on a cadence — never
  mid-item, so checkpoints are always item-consistent;
* every queue insertion is recorded in a bounded per-channel **replay
  buffer**; the worker acknowledges a message only after fully
  processing it, and :meth:`SimulatedRuntime.failover_stage` rebuilds a
  crashed stage from its last checkpoint and re-delivers everything
  unacknowledged (at-least-once: duplicates are counted, not hidden);
* transmission faults on lossy links are **retried** with exponential
  backoff, and poison items are skipped or quarantined to a dead-letter
  queue under the configured error policy.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.adaptation.protocol import LoadException
from repro.core.api import StreamProcessor
from repro.core.items import EndOfStream, Item
from repro.core.kernel import (
    FLUSH,
    SEND,
    TAKE,
    WAIT,
    WORK,
    SourceBinding,
    StageCore,
    adaptation_tick,
    build_route_units,
    check_binding,
    edge_spec,
    flush_buffers,
    quarantine,
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
from repro.core.options import read_options
from repro.core.run import RunOptions, take
from repro.core.sharding import ShardGroup, groups_of
from repro.core.termination import no_input_message
from repro.grid.config import StreamConfig
from repro.grid.deployer import Deployment
from repro.obs.tracing import TraceCollector
from repro.resilience.checkpoint import CheckpointStore, StageCheckpoint
from repro.resilience.policy import RECOVERY_POLL, DeadLetterQueue, ResilienceConfig, retry_delay
from repro.resilience.replay import ReplayBuffers
from repro.simnet.engine import Environment, Event, SimulationError
from repro.simnet.hosts import HostFailedError
from repro.simnet.links import Link, TransmissionError
from repro.simnet.resources import BoundedQueue
from repro.simnet.topology import Network

__all__ = ["RuntimeError_", "SimulatedRuntime", "SourceBinding"]


class RuntimeError_(Exception):
    """Raised for invalid runtime configuration (name avoids the builtin)."""


@dataclass
class _Edge:
    """One wired stream: src stage -> (link or colocated) -> dst stage."""

    stream: StreamConfig
    dst: "_StageRuntime"
    #: Bottleneck link along the routed path (None when colocated).
    link: Optional[Link]
    #: Total propagation latency of the remaining hops.
    extra_latency: float = 0.0


class _BatchEnvelope:
    """Several Items shipped over a link as one transmission.

    The envelope pays one token-bucket charge for the summed size (the
    batched fast path's saving); :meth:`SimulatedRuntime._arrive` unpacks
    it so the destination still sees individual items — per-item replay
    recording, hop opening, and queue occupancy are unchanged.
    """

    __slots__ = ("items", "size", "origin")

    def __init__(self, items: List[Item], origin: str) -> None:
        self.items = items
        self.size = sum(item.size for item in items)
        self.origin = origin


class _StageRuntime(StageCore):
    """Internal per-stage runtime state: the kernel's record plus what
    only the simulator has (a host, links, failover bookkeeping)."""

    def __init__(self, host_name: str, *core: Any) -> None:
        super().__init__(*core)
        self.host_name = host_name
        self.out_edges: List[_Edge] = []
        self.upstream: List["_StageRuntime"] = []
        self.done = False
        # -- fault-tolerance state (used only with resilience enabled) ----
        #: Channel (message origin) -> sequence number of the last fully
        #: processed delivery.  Deliveries are per-channel FIFO, so the
        #: worker's increment-per-message stays aligned with the insertion
        #: sequence numbers the replay buffer assigns.
        self.cursors: Dict[str, int] = {}
        #: Incarnation counter; bumped per failover so superseded workers
        #: notice and exit instead of corrupting the restored state.
        self.generation = 0
        #: When the stage went down (None while healthy).
        self.down_since: Optional[float] = None
        #: True while the worker is between dequeue and acknowledgment; the
        #: checkpointer defers to keep checkpoints item-consistent.
        self.in_flight = False
        self.checkpoint_due = False
        #: True while a planned migration is draining/switching this stage;
        #: the recovery watch and failure detector must not treat the
        #: hand-off as an outage (see docs/migration.md).
        self.migrating = False
        #: Worker generations superseded by a *planned* switch whose pending
        #: ``get`` may already hold an item: on resume they must give the
        #: item back (nothing replays on the planned path).  Entries are
        #: consumed by the superseded worker within the switch's timestep.
        self.requeue_generations: set = set()


class SimulatedRuntime:
    """Executes a deployment on the simulated grid fabric.

    Built by :func:`repro.core.run.build`, which launches the
    configuration on a :class:`~repro.grid.fabric.GridFabric`::

        sources = [SourceBinding("s0", "filter-0", payloads, rate=100.0)]
        result = run(config, "sim", RunOptions(), sources, fabric=fabric)

    ``run`` drives the environment until every stage has flushed (or
    ``max_sim_time`` elapses) and returns a
    :class:`~repro.core.results.RunResult`.

    Passing ``resilience=ResilienceConfig(...)`` arms the fault-tolerance
    machinery (checkpointing, replay-based failover, transmission retry,
    poison-item quarantine); without it the runtime keeps the original
    fail-stop behaviour — any fault aborts the run.
    """

    def __init__(
        self, env: Environment, network: Network, deployment: Deployment, **options: Any
    ) -> None:
        """``options`` are the sim build rows of
        :class:`~repro.core.run.RunOptions`; another row raises
        :class:`RuntimeError_`.  ``batch``'s ``max_delay`` is in simulated
        seconds (docs/performance.md)."""
        opts = take("sim", RuntimeError_, options)
        self.env = env
        #: ``env.now`` as a callable for the kernel; the C-level partial
        #: reads the attribute with no Python frame at all.
        self._clock: Callable[[], float] = partial(getattr, env, "now")
        self.network = network
        self.deployment = deployment
        self.policy = opts.policy
        self.adaptation_enabled = opts.adaptation_enabled
        self.metrics = opts.metrics
        self.tracer: Optional[TraceCollector] = opts.tracer()
        self.batch = opts.batch
        self.resilience: Optional[ResilienceConfig] = opts.resilience
        self.checkpoints: Optional[CheckpointStore] = opts.checkpoints
        self.replay: Optional[ReplayBuffers] = None
        self.dead_letters: Optional[DeadLetterQueue] = None
        self._retry_rng: Optional[random.Random] = None
        if self.resilience is not None:
            self.replay = ReplayBuffers()
            self.dead_letters = DeadLetterQueue()
            self._retry_rng = random.Random(self.resilience.seed)
        self._bindings: List[SourceBinding] = []
        self._stages: Dict[str, _StageRuntime] = {}
        #: Shard groups reconstructed from the expanded config's replica
        #: markers (see repro.core.sharding); static here — the
        #: simulated runtime runs the declared active count unchanged.
        self._groups: Dict[str, ShardGroup] = {}
        self._stage_done: Dict[str, Event] = {}
        self._result: Optional[RunResult] = None
        self._built = False
        #: Completed planned moves, in commit order.
        self.migrations: List[Any] = []
        #: Per-stage FIFO of pending migration requests; a drainer
        #: process per stage serializes them (double triggers queue).
        self._migration_queues: Dict[str, List[Tuple[Any, Optional[str], str]]] = {}
        self._migration_drainers: set = set()

    # -- setup -------------------------------------------------------------

    def bind_source(self, binding: SourceBinding) -> None:
        """Attach an external stream to a stage or shard group (before
        :meth:`run`); see :class:`~repro.core.kernel.SourceBinding`."""
        if self._built:
            raise RuntimeError_("cannot bind sources after run()")
        stages = {s.name: read_options(s.properties)[0] for s in self.deployment.config.stages}
        check_binding(binding, stages, RuntimeError_)
        self._bindings.append(binding)

    def _build(self) -> None:
        config = self.deployment.config
        for stage_cfg in config.stages:
            host_name = self.deployment.host_of(stage_cfg.name)
            properties = {
                k: str(v)
                for k, v in self.deployment.instance_of(stage_cfg.name).properties.items()
            }
            processor = self.deployment.instance_of(stage_cfg.name).instantiate_processor()
            if not isinstance(processor, StreamProcessor):
                raise RuntimeError_(
                    f"stage {stage_cfg.name!r} code is not a StreamProcessor "
                    f"(got {type(processor).__name__})"
                )
            try:
                stage = _StageRuntime(
                    host_name, stage_cfg.name, processor, properties,
                    lambda capacity: BoundedQueue(
                        self.env, capacity=capacity, window=self.policy.window
                    ),
                    self.policy, self.metrics, self._clock, self.batch,
                )
            except ValueError as exc:
                raise RuntimeError_(f"stage {stage_cfg.name!r}: {exc}") from None
            stage.resilience, stage.dead_letters = self.resilience, self.dead_letters
            if self.replay is not None:
                # Record every insertion at insertion time (including
                # blocked puts admitted later), so a failover's purge can
                # never outrun the replay record.
                stage.queue.on_insert = (
                    lambda message, _stage=stage: self._record_delivery(_stage, message)
                )
            self._stages[stage_cfg.name] = stage

        # Reconstruct shard groups from the expanded config's markers.
        self._groups = groups_of(stage.options for stage in self._stages.values())

        # Wire edges over the network.
        for stream in config.streams:
            src = self._stages[stream.src]
            dst = self._stages[stream.dst]
            edge = _Edge(stream=stream, dst=dst, link=None)
            self._wire_edge(edge, src)
            src.out_edges.append(edge)
            dst.upstream.append(src)
            dst.eos.expect(group=src.options.shard_group)
        for stage in self._stages.values():
            stage.route_units, stage.stream_names = build_route_units(
                [
                    edge_spec(edge.stream.name, edge.dst.name, edge.dst.options, self.metrics)
                    for edge in stage.out_edges
                ]
            )
            stage.open_batch_buffers(range(len(stage.out_edges)))

        # Account for external source bindings (a group target expects
        # one end-of-stream per replica slot — the feeder sends to all).
        for binding in self._bindings:
            for name in binding.targets(self._groups):
                self._stages[name].eos.expect()

        # Every stage must have at least one input, or it can never end.
        for stage in self._stages.values():
            if not stage.eos.has_inputs:
                raise RuntimeError_(no_input_message(stage.name))
        self._built = True

    def _wire_edge(self, edge: _Edge, src: _StageRuntime) -> None:
        """(Re)bind an edge to the current src/dst host placement."""
        src_host = src.host_name
        dst_host = edge.dst.host_name
        if src_host == dst_host:
            edge.link = None
            edge.extra_latency = 0.0
            return
        links = self.network.route(src_host, dst_host)
        bottleneck = min(links, key=lambda l: l.bandwidth)
        edge.extra_latency = sum(l.latency for l in links if l is not bottleneck)
        # The runtime tracks its own deliveries (it must attribute
        # each message to its edge); leaving inbox collection on
        # would let unrelated cross-traffic interleave and would
        # leak memory on long runs.
        bottleneck.collect_inbox = False
        bottleneck.bind_metrics(self.metrics)
        edge.link = bottleneck

    # -- execution -----------------------------------------------------------

    def run(
        self,
        max_sim_time: float = RunOptions.max_sim_time,
        stop_at: Optional[float] = RunOptions.stop_at,
    ) -> RunResult:
        """Execute to completion and collect results.

        ``stop_at`` ends the run gracefully at that simulation time even
        if the pipeline has not drained — the mode for continuous-stream
        experiments (Figures 8/9) where the interesting output is the
        parameter trajectory, not a final answer.  Without it, the run
        ends when every stage has flushed, and exceeding ``max_sim_time``
        raises (a wedged pipeline is a bug, not a result).
        """
        if self._built:
            raise RuntimeError_("run() may only be called once")
        self._build()

        result = RunResult(app_name=self.deployment.config.name)
        self._result = result
        start = self.env.now

        # Call setup() on every processor (parameters get declared here).
        for stage in self._stages.values():
            run_setup(stage, RuntimeError_)

        for stage in self._stages.values():
            stage.events = result.events
            self._stage_done[stage.name] = self.env.event()
            self._spawn_worker(stage)
            if self.adaptation_enabled:
                self.env.process(self._monitor(stage, result), name=f"monitor:{stage.name}")
            if self.resilience is not None:
                if self.resilience.checkpoint_interval is not None:
                    self.env.process(
                        self._checkpointer(stage), name=f"checkpoint:{stage.name}"
                    )
                self.env.process(
                    self._recovery_watch(stage), name=f"recovery:{stage.name}"
                )
        for binding in self._bindings:
            self._start_feeder(binding)

        done: List[Event] = []
        self.env.all_of(list(self._stage_done.values())).add_callback(done.append)
        # peek() is inf on an empty schedule, which must end the loop too.
        horizon = min(stop_at if stop_at is not None else max_sim_time, sys.float_info.max)
        self.env.horizon = horizon
        peek, step = self.env.peek, self.env.step
        while not done and peek() <= horizon:
            step()
        if not done and stop_at is None:
            raise SimulationError(
                f"run exceeded max_sim_time={max_sim_time} "
                f"(now={self.env.now}); pipeline likely wedged"
            )

        now = self.env.now
        return run_report(
            result, self.metrics, now - start,
            {name: stage.host_name for name, stage in self._stages.items()},
            stage_finals(self._stages.values(), now), self._groups, self.tracer,
        )

    # -- processes ------------------------------------------------------------

    def _start_feeder(self, binding: SourceBinding) -> None:
        """Interpret the kernel's :func:`source_loop` as callbacks: a gap
        is a timer, and a put into a full queue parks the feeder in the
        queue's putter FIFO (:meth:`~repro.simnet.resources.Store.offer`)
        until a take admits it.  The arrival rate is observed as an item
        lands; under ``drop_when_full`` an item finding the queue full is
        dropped.  It starts where a process of its own would have."""
        stages = [self._stages[name] for name in binding.targets(self._groups)]
        loop = source_loop(binding, self._groups, self._clock, self.metrics, tracer=self.tracer)
        send = loop.send
        env = self.env
        call_later = env.call_later
        landed: Optional[_StageRuntime] = None

        def resume(_event: Any) -> None:
            nonlocal landed
            reply = None
            while True:
                if landed is not None:
                    landed.rate_estimator.observe(env.now)
                    landed = None
                try:
                    effect = send(reply)
                except StopIteration:
                    return
                reply = None
                if effect[0] is WAIT:
                    call_later(effect[1], resume)
                    return
                _, slot, message = effect
                stage = stages[slot]
                if type(message) is Item:
                    landed = stage
                    if binding.drop_when_full:
                        if stage.queue.is_full:
                            stage.metrics.items_dropped.inc()
                            landed, reply = None, False
                        else:
                            stage.queue.force_put(message)
                        continue
                # A blocking put waits for queue space; that back-pressure
                # wait counts as queue time (the hop is already open).
                if not stage.queue.offer(message, resume):
                    return

        call_later(0.0, resume)

    def _spawn_worker(self, stage: _StageRuntime) -> None:
        self.env.process(
            self._worker(stage, stage.generation),
            name=f"worker:{stage.name}:g{stage.generation}",
        )
        if stage.batch_buffers:
            self.env.process(
                self._batch_flusher(stage, stage.generation),
                name=f"batch-flush:{stage.name}:g{stage.generation}",
            )

    def _worker(self, stage: _StageRuntime, generation: int) -> Generator:
        """Interpret the kernel's :func:`stage_loop` as a simulation process.

        One message per ``TAKE``; after each blocking step the worker
        checks whether a failover or planned switch superseded it (a
        fresh generation then owns the stage) or its host died.
        """
        host = self.network.host(stage.host_name)
        resilient = self.resilience is not None
        queue = stage.queue
        # Work a free core finishes before anything else happens is booked
        # inside the loop; only work that must wait comes out as WORK.
        step = stage_loop(stage, self._groups, price=host.execute_inline, deadlines=False).send
        message: Any = None
        reply: Any = None
        while True:
            effect = step(reply)
            reply = None
            kind = effect[0]
            if kind is TAKE:
                if resilient and message is not None:
                    if stage.generation != generation:
                        return
                    self._advance_cursor(stage, message)
                    # Between items: safe to take a deferred checkpoint.
                    stage.in_flight = False
                    if stage.checkpoint_due:
                        stage.checkpoint_due = False
                        self._checkpoint_stage(stage)
                while resilient:
                    if stage.generation != generation:
                        # Superseded before pulling anything (e.g. spawned
                        # by a planned switch that was itself immediately
                        # superseded by a queued second move): exit without
                        # touching the queue, or this stale worker would
                        # race the live one.
                        return
                    if not stage.migrating:
                        break
                    # A planned migration is draining this stage: pause
                    # at the item boundary (never mid-item) instead of
                    # pulling the next message.  The drainer checkpoints
                    # here and bumps the generation; this worker is then
                    # superseded.
                    yield self.env.timeout(self.MIGRATE_DRAIN_POLL)
                # An item already queued is taken now, with no event, when
                # the get's event would be the next one processed.
                message = queue.take()
                if message is None:
                    message = yield queue.get()
                if resilient:
                    if stage.generation != generation:
                        if generation in stage.requeue_generations:
                            # Superseded by a planned switch with this message
                            # already dequeued: give it back at the head — the
                            # planned path has no replay to re-deliver it.
                            stage.requeue_generations.discard(generation)
                            queue.requeue(message)
                        return  # superseded by a failover or planned switch
                    if host.failed:
                        # Dequeued but unprocessed: the cursor stays put, so the
                        # replay buffer re-delivers this message after recovery.
                        self._note_stage_down(stage)
                        return
                    stage.in_flight = True
                reply = (message,)
            elif kind is WORK:
                try:
                    reply = yield host.execute(effect[1], items=effect[2], nbytes=effect[3])
                except HostFailedError:
                    if not resilient:
                        raise
                    self._note_stage_down(stage)
                    return
                if resilient and stage.generation != generation:
                    return
            elif kind is SEND:
                edge = stage.out_edges[effect[1]]
                item = Item(
                    payload=effect[2], size=effect[3], origin=edge.stream.name,
                    created_at=self.env.now, trace=effect[5],
                )
                yield from self._send_one(stage, edge, item)
            elif kind is FLUSH:
                yield from self._ship(stage, effect[1], effect[2])
            else:  # EOS: the last input ended and everything is flushed
                if resilient:
                    self._advance_cursor(stage, message)
                for edge in stage.out_edges:
                    yield from self._send_one(
                        stage, edge, EndOfStream(origin=edge.stream.name), control=True
                    )
                if resilient and stage.generation != generation:
                    return
                stage.done = True
                stage.in_flight = False
                self._result.events.log(self.env.now, "stage-finished", stage=stage.name)
                self._stage_done[stage.name].succeed()
                return

    def _ship(self, stage: _StageRuntime, index: int, entries: List[Any]) -> Generator:
        """Ship one edge's flushed batch: one transmission, n items.

        The sender blocks once for the summed size.  Colocated edges skip
        the link but still amortize the handoff into one rate observation.
        """
        edge = stage.out_edges[index]
        origin = edge.stream.name
        items = [
            Item(payload=payload, size=size, origin=origin, created_at=created, trace=trace)
            for payload, size, created, trace, _ in entries
        ]
        if edge.link is None:
            self._enqueue(edge.dst, items)
        else:
            yield from self._send_one(stage, edge, _BatchEnvelope(items, origin))

    def _batch_flusher(self, stage: _StageRuntime, generation: int) -> Generator:
        """Enforce the age bound: every ``max_delay``, flush every
        non-empty buffer, so no batched item ever waits longer than
        ``max_delay`` for stragglers."""
        assert stage.batch is not None
        interval = stage.batch.max_delay
        if interval <= 0:
            return
        while not stage.done:
            yield self.env.timeout(interval)
            if stage.done or stage.generation != generation:
                return
            if stage.down_since is not None:
                continue
            for _, index, entries in flush_buffers(stage, stage.batch_buffers, age=True):
                yield from self._ship(stage, index, entries)

    def _send_one(self, stage: _StageRuntime, edge: _Edge, message, control: bool = False) -> Generator:
        """Transmit one message over an edge (blocking the sender for TX).

        With resilience enabled, a :class:`TransmissionError` (transient
        link loss) is retried up to ``max_retries`` times with
        exponential backoff plus jitter.  Exhausted retries on a *data*
        item follow the error policy (quarantine under skip/dead-letter);
        on a *control* end-of-stream marker they always raise — dropping
        it would wedge the downstream stage forever.
        """
        size = message.size if not control else 1.0
        if edge.link is None:
            self._enqueue(edge.dst, [message])
            return
        attempt = 0
        while True:
            try:
                yield edge.link.send(message, size)
            except TransmissionError as exc:
                if self.resilience is None:
                    raise
                if attempt >= self.resilience.max_retries:
                    if control or self.resilience.error_policy == "fail":
                        raise
                    if isinstance(message, _BatchEnvelope):
                        for item in message.items:
                            quarantine(stage, item.payload, exc, reason="transmission")
                    else:
                        quarantine(
                            stage,
                            getattr(message, "payload", message),
                            exc,
                            reason="transmission",
                        )
                    return
                self.metrics.counter(f"fault.{stage.name}.retries").inc()
                yield self.env.timeout(retry_delay(attempt, self._retry_rng))
                attempt += 1
                continue
            break
        # Arrival waits out the propagation delay (bottleneck + remaining
        # hops); transmission time was already paid inside link.send().
        self.env.call_later(
            edge.link.latency + edge.extra_latency, partial(self._arrive, edge.dst), message
        )

    def _arrive(self, dst: _StageRuntime, arrival: Event) -> None:
        message = arrival.value
        self._enqueue(dst, message.items if isinstance(message, _BatchEnvelope) else [message])

    def _enqueue(self, dst: _StageRuntime, messages: List[Any]) -> None:
        """Put what reached ``dst`` into its queue, one message at a time.

        A batch is unpacked here: per-item hop opening, replay recording
        (``queue.on_insert`` fires per ``force_put``) and queue occupancy
        are those of one-at-a-time delivery; only the arrival-rate
        observation is amortized.  End-of-stream markers are not arrivals.
        """
        for message in messages:
            if isinstance(message, Item) and message.trace is not None:
                # The downstream hop record starts as the item is enqueued.
                message.hop = message.trace.begin_hop(dst.name, self.env.now)
            dst.queue.force_put(message)
        if isinstance(messages[0], Item):
            dst.rate_estimator.observe(self.env.now, count=len(messages))

    def _monitor(self, stage: _StageRuntime, result: RunResult) -> Generator:
        def report(exception: LoadException) -> None:
            result.events.log(
                self.env.now,
                "load-exception",
                stage=stage.name,
                exception_kind=exception.kind.value,
                score=exception.score,
            )
            for upstream in stage.upstream:
                upstream.receive_exception(exception)

        while not stage.done:
            yield self.env.timeout(self.policy.sample_interval)
            if stage.done:
                return
            if stage.down_since is not None:
                continue  # a dead stage reports no load
            for parameter, value in adaptation_tick(stage, report):
                result.events.log(
                    self.env.now,
                    "parameter-adjusted",
                    stage=stage.name,
                    parameter=parameter,
                    value=value,
                )

    # -- fault tolerance -------------------------------------------------------

    def _record_delivery(self, stage: _StageRuntime, message: Any) -> None:
        assert self.replay is not None
        self.replay.append(stage.name, message.origin, message)

    def _advance_cursor(self, stage: _StageRuntime, message: Any) -> None:
        """Acknowledge one fully processed message (at-least-once; only
        with resilience on)."""
        origin = message.origin
        stage.cursors[origin] = stage.cursors.get(origin, 0) + 1

    def _checkpointer(self, stage: _StageRuntime) -> Generator:
        assert self.resilience is not None
        interval = self.resilience.checkpoint_interval
        while not stage.done:
            yield self.env.timeout(interval)
            if stage.done:
                return
            if stage.down_since is not None:
                continue
            if self.network.host(stage.host_name).failed:
                continue
            if stage.in_flight:
                # Mid-item state is not a consistent cut; the worker takes
                # the checkpoint as soon as it finishes the current item.
                stage.checkpoint_due = True
                continue
            self._checkpoint_stage(stage)

    def _checkpoint_stage(self, stage: _StageRuntime) -> StageCheckpoint:
        """Snapshot the stage and trim its acknowledged replay history."""
        assert self.checkpoints is not None and self.replay is not None
        checkpoint = stage_checkpoint(stage, stage.generation, stage.cursors)
        self.checkpoints.save(checkpoint)
        for channel, cursor in checkpoint.cursors.items():
            self.replay.trim(stage.name, channel, cursor)
        self.metrics.counter(f"recovery.{stage.name}.checkpoints").inc()
        return checkpoint

    def _note_stage_down(self, stage: _StageRuntime) -> None:
        if stage.down_since is not None:
            return
        stage.down_since = self.env.now
        if self._result is not None:
            self._result.events.log(
                self.env.now, "stage-down", stage=stage.name, host=stage.host_name
            )

    def _recovery_watch(self, stage: _StageRuntime) -> Generator:
        """In-place restart when a failed host recovers before failover.

        Also notices hosts that fail while the stage's worker is idle
        (blocked in ``get()``) — the worker only observes the failure on
        its next dequeue or CPU charge, but the outage clock should start
        at the crash.
        """
        assert self.resilience is not None
        while not stage.done:
            yield self.env.timeout(RECOVERY_POLL)
            if stage.done:
                return
            if stage.migrating:
                # A planned migration owns the stage's lifecycle until it
                # commits; its drainer handles a mid-move crash itself.
                continue
            host_failed = self.network.host(stage.host_name).failed
            if stage.down_since is None:
                if host_failed:
                    self._note_stage_down(stage)
                continue
            if not host_failed:
                # Either the host recovered in place, or a Redeployer
                # moved the stage's placement; both restore the same way.
                self.failover_stage(stage.name)

    def failover_stage(self, stage_name: str, down_since: Optional[float] = None) -> None:
        """Restore a crashed stage from its last checkpoint and replay.

        Call after the deployment's placement for ``stage_name`` points
        at a healthy host again — either the Redeployer moved it (live
        failover) or its original host recovered (in-place restart).
        ``down_since`` optionally back-dates the outage start (e.g. to
        the host's last heartbeat) for the recovery-latency histogram.
        """
        stage = self._stages.get(stage_name)
        if stage is None:
            raise RuntimeError_(f"unknown stage {stage_name!r}")
        if self.resilience is None:
            raise RuntimeError_("failover_stage requires resilience= on the runtime")
        if stage.done:
            return
        if down_since is not None and (
            stage.down_since is None or down_since < stage.down_since
        ):
            stage.down_since = down_since
        self._note_stage_down(stage)
        self._restore_stage(stage)

    def _restore_stage(self, stage: _StageRuntime) -> Tuple[int, int]:
        """Restore from the last checkpoint and replay; returns the
        ``(replayed, duplicates)`` counts."""
        assert self.replay is not None and self.checkpoints is not None
        down_since = stage.down_since if stage.down_since is not None else self.env.now
        stage.generation += 1
        new_host = self.deployment.host_of(stage.name)
        if new_host != stage.host_name:
            stage.host_name = new_host
            self._rewire_stage(stage)

        # The crashed worker's queue content is lost with the host; its
        # pending get must not swallow the first replayed message.
        stage.queue.discard_getters()
        stage.queue.purge()
        live_cursors = dict(stage.cursors)

        checkpoint = self._reinstantiate_from_checkpoint(stage)

        # Re-deliver everything unacknowledged, per channel, in order.
        # The insertion hook is suspended so replayed entries keep their
        # original sequence numbers instead of being re-recorded.
        replayed = duplicates = dropped_total = 0
        saved_hook, stage.queue.on_insert = stage.queue.on_insert, None
        try:
            for channel in self.replay.channels(stage.name):
                cursor = stage.cursors.get(channel, 0)
                dropped, entries = self.replay.replay_from(stage.name, channel, cursor)
                if dropped:
                    # Evicted entries can never be processed; align the
                    # cursor with the oldest retained sequence number.
                    dropped_total += dropped
                    stage.cursors[channel] = cursor + dropped
                for seq, message in entries:
                    if isinstance(message, Item):
                        message.hop = None
                        if seq <= live_cursors.get(channel, 0):
                            duplicates += 1
                    replayed += 1
                    stage.queue.force_put(message)
        finally:
            stage.queue.on_insert = saved_hook
        # Producers blocked on the previously full queue resume (their
        # items enter *after* the replayed backlog, preserving FIFO).
        stage.queue.admit_waiting()

        stage.down_since = None
        stage.in_flight = False
        stage.checkpoint_due = False
        latency = self.env.now - down_since
        self.metrics.counter(f"fault.{stage.name}.failovers").inc()
        self.metrics.histogram(f"recovery.{stage.name}.latency").observe(latency)
        if replayed:
            self.metrics.counter(f"recovery.{stage.name}.items_replayed").inc(replayed)
        if duplicates:
            self.metrics.counter(f"recovery.{stage.name}.duplicates").inc(duplicates)
        if dropped_total:
            self.metrics.counter(f"recovery.{stage.name}.replay_dropped").inc(dropped_total)
        if self._result is not None:
            self._result.events.log(
                self.env.now,
                "stage-recovered",
                stage=stage.name,
                host=stage.host_name,
                replayed=replayed,
                duplicates=duplicates,
                dropped=dropped_total,
                outage=latency,
                checkpoint_time=checkpoint.time if checkpoint is not None else None,
            )
        self._spawn_worker(stage)
        return replayed, duplicates

    def _reinstantiate_from_checkpoint(self, stage: _StageRuntime):
        """Fresh processor from the stage's (possibly new) service
        instance, restored from the latest checkpoint.

        Shared by crash failover and planned migration: both replace the
        processor object wholesale and rebuild its state from the
        checkpoint store; only the surrounding queue/replay treatment
        differs.  Returns the checkpoint used (None if none existed).
        """
        assert self.checkpoints is not None
        processor = self.deployment.instance_of(stage.name).instantiate_processor()
        swap_processor(stage, processor, RuntimeError_)
        checkpoint = self.checkpoints.latest(stage.name)
        restore_checkpoint(stage, checkpoint)
        stage.cursors = dict(checkpoint.cursors) if checkpoint is not None else {}
        return checkpoint

    def _rewire_stage(self, stage: _StageRuntime) -> None:
        """Re-route every edge touching a stage after its host changed."""
        for edge in stage.out_edges:
            self._wire_edge(edge, stage)
        for up in stage.upstream:
            for edge in up.out_edges:
                if edge.dst is stage:
                    self._wire_edge(edge, up)

    # -- planned migration -----------------------------------------------------

    #: Drain poll while waiting for the in-flight item at a migration's
    #: pause point (simulated seconds).
    MIGRATE_DRAIN_POLL = 0.01

    def scale_stage(self, group_name: str, active: int) -> None:
        """Change a shard group's active replica count mid-run.

        The simulated counterpart of the threaded autoscaler's
        transitions: items emitted after the call are partitioned over
        the new count (slots are pre-provisioned to the group's ceiling
        by ``expand_shards``, so scaling up needs no new workers).
        Items already queued at a replica stay there — per-key order is
        preserved because routing only ever changes *between* items.
        Logged as a ``shard-scaled`` event so recorded runs capture the
        decision.
        """
        group = self._groups.get(group_name)
        if group is None:
            raise RuntimeError_(f"unknown shard group {group_name!r}")
        if not 1 <= active <= len(group.members):
            raise RuntimeError_(
                f"group {group_name!r}: active must be in "
                f"[1, {len(group.members)}], got {active}"
            )
        previous = group.active
        if active == previous:
            return
        group.active = active
        self.metrics.gauge(f"shard.{group_name}.replicas").set(float(active))
        if self._result is not None:
            self._result.events.log(
                self.env.now,
                "shard-scaled",
                group=group_name,
                previous=previous,
                active=active,
            )

    def migrating_stages(self) -> frozenset:
        """Names of stages currently under planned migration."""
        return frozenset(
            name for name, stage in self._stages.items() if stage.migrating
        )

    def migrate_stage(
        self,
        stage_name: str,
        migrator=None,
        target_host: Optional[str] = None,
        trigger: str = "manual",
    ) -> None:
        """Request a planned, non-destructive move of a healthy stage.

        The request is asynchronous: a per-stage drainer process drains
        the stage to an item boundary, checkpoints it, asks ``migrator``
        (a :class:`repro.resilience.migration.Migrator`) to secure the
        replacement service instance on ``target_host`` (or a
        Matchmaker-selected host), and switches the channels over.  A
        second request while one is in flight is queued behind it, never
        interleaved.  Completed moves append a ``MigrationReport`` to
        :attr:`migrations`.

        Requires ``resilience=`` (the pause point is a checkpoint).  If
        the source host dies mid-move, the switch degrades to the
        ordinary failover restore (checkpoint + replay) and the report
        carries ``planned=False``.
        """
        if self.resilience is None:
            raise RuntimeError_("migrate_stage requires resilience= on the runtime")
        if migrator is None:
            raise RuntimeError_(
                "migrate_stage requires a migrator= "
                "(repro.resilience.migration.Migrator)"
            )
        stage = self._stages.get(stage_name)
        if stage is None:
            raise RuntimeError_(f"unknown stage {stage_name!r}")
        queue = self._migration_queues.setdefault(stage_name, [])
        queue.append((migrator, target_host, trigger))
        if stage_name not in self._migration_drainers:
            self._migration_drainers.add(stage_name)
            self.env.process(
                self._migration_drainer(stage), name=f"migrate:{stage_name}"
            )

    def _migration_drainer(self, stage: _StageRuntime) -> Generator:
        queue = self._migration_queues[stage.name]
        try:
            while queue:
                migrator, target_host, trigger = queue.pop(0)
                yield from self._migrate_once(stage, migrator, target_host, trigger)
        finally:
            self._migration_drainers.discard(stage.name)

    def _migrate_once(
        self,
        stage: _StageRuntime,
        migrator,
        target_host: Optional[str],
        trigger: str,
    ) -> Generator:
        from repro.resilience.migration import MigrationReport, book_move

        if stage.done:
            return
        requested_at = self.env.now
        stage.migrating = True
        try:
            # Drain to an item boundary: the pause clock starts when the
            # request lands, because upstream output is still flowing —
            # only this stage's consumption pauses at the boundary.
            while stage.in_flight and stage.down_since is None and not stage.done:
                yield self.env.timeout(self.MIGRATE_DRAIN_POLL)
            if stage.done:
                return
            crashed = (
                stage.down_since is not None
                or self.network.host(stage.host_name).failed
            )
            if not crashed:
                # Item-consistent snapshot at the pause point; the
                # replay buffer trims to it, so nothing needs replaying
                # on the planned path below.
                self._checkpoint_stage(stage)
            old_host, new_host = migrator.place(stage.name, target_host)
            replayed = duplicates = 0
            if crashed:
                # The source host died mid-plan: the queue content is
                # gone with it, so fall through to the ordinary failover
                # restore (checkpoint + replay, at-least-once).
                replayed, duplicates = self._restore_stage(stage)
            else:
                self._switch_stage(stage)
            pause = self.env.now - requested_at
            book_move(
                MigrationReport(
                    stage=stage.name,
                    from_host=old_host,
                    to_host=new_host,
                    trigger=trigger,
                    requested_at=requested_at,
                    completed_at=self.env.now,
                    pause_seconds=pause,
                    items_replayed=replayed,
                    duplicates=duplicates,
                    planned=not crashed,
                ),
                self.metrics,
                self.migrations,
            )
            if self._result is not None:
                self._result.events.log(
                    self.env.now,
                    "stage-migrated",
                    stage=stage.name,
                    from_host=old_host,
                    to_host=new_host,
                    trigger=trigger,
                    pause=pause,
                    planned=not crashed,
                )
        finally:
            stage.migrating = False

    def _switch_stage(self, stage: _StageRuntime) -> None:
        """The loss-free channel switch-over of a planned move.

        Unlike :meth:`_restore_stage`, the queue's backlog survives in
        place (nothing was lost, so nothing is purged or replayed): the
        superseded worker's pending ``get`` is discarded, the fresh
        processor restores from the checkpoint just taken at the pause
        point, and a new worker generation resumes consuming the same
        queue — zero loss, zero duplicates.
        """
        stage.requeue_generations.add(stage.generation)
        stage.generation += 1
        new_host = self.deployment.host_of(stage.name)
        if new_host != stage.host_name:
            stage.host_name = new_host
            self._rewire_stage(stage)
        stage.queue.discard_getters()
        self._reinstantiate_from_checkpoint(stage)
        stage.queue.admit_waiting()
        stage.in_flight = False
        stage.checkpoint_due = False
        self._spawn_worker(stage)
