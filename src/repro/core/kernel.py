"""The stage-execution kernel shared by the three runtimes.

GATES runs a stage and adapts its parameters in *one* middleware; the
developer writes ``on_item`` once.  This module is that one middleware:
the stage record (:class:`StageCore`), the
:class:`~repro.core.api.StageContext` handed to processors, routing over
plain and sharded out-edges, the ``setup()`` bracket, the per-item loop
(:func:`stage_loop`), the source loop feeding first-layer stages
(:func:`source_loop`), the Section-4 sampling tick, micro-batch flush
bookkeeping, checkpoint capture and restore (with the processor swap
failover and migration share), dead-letter construction, and the report
of a finished run (:func:`stage_finals`, :func:`run_report`).

It knows nothing about *how* a driver waits.  Both loops are generators
that yield a plain effect record wherever a driver must block (take
input, charge CPU work, send, flush a batch, send end-of-stream; wait
out a source's gap, put an arrival) and run everything in between
themselves; ``runtime_sim`` (generator processes over virtual time),
``runtime_threads`` (threads, locks, token buckets) and ``net.worker``
/ ``net.coordinator`` (asyncio tasks, frames, credit) only interpret
those effects over their own queues and links.

The simulator executes this module, so it must stay deterministic: no
wall clock, no global RNG — time always comes from ``stage.clock``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Generator, Iterable, Iterator, List
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.adaptation.controller import ParameterController
from repro.core.adaptation.load import LoadEstimator
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import ExceptionCounter, LoadException
from repro.core.api import AdjustmentParameter, ProcessorError, StageContext, StreamProcessor
from repro.core.batching import BatchBuffer, BatchPolicy
from repro.core.items import EndOfStream, Item, ItemRun
from repro.core.options import StageOptions, stage_options
from repro.core.sharding import ShardGroup, logical_stream
from repro.core.termination import EosTracker
from repro.metrics.rates import RateEstimator
from repro.obs.registry import BatchMetrics, MetricsRegistry, StageMetrics
from repro.obs.tracing import publish_traces
from repro.resilience.checkpoint import StageCheckpoint
from repro.resilience.policy import DeadLetter, DeadLetterQueue, ResilienceConfig

if TYPE_CHECKING:
    from repro.core.results import RunResult

__all__ = [
    "EOS", "FLUSH", "PUT", "SEND", "TAKE", "WAIT", "WORK",
    "EdgeSpec", "KernelStageContext", "RouteUnit", "SourceBinding", "StageCore",
    "adaptation_tick", "build_route_units", "check_binding", "edge_spec", "flush_buffers",
    "next_flush_timeout", "quarantine", "restore_checkpoint", "route_indices", "run_report",
    "run_setup", "source_loop", "stage_checkpoint", "stage_finals", "stage_loop",
    "swap_processor",
]

#: Stands in for ``param_lock`` / ``state_lock`` on single-threaded drivers
#: (off the item path).
_NO_LOCK = nullcontext()


# -- routing -----------------------------------------------------------------


class EdgeSpec(NamedTuple):
    """Runtime-neutral description of one out-edge, for route building.

    ``stream`` is the edge's concrete name (None for an unnamed
    programmatic edge).  The remaining fields are set when the
    destination is a shard replica: its ``group``, its ``slot`` among
    the group's ``slots`` members, and the ``shard.{dst}.items``
    ``counter`` to bump when a partitioned emission picks this edge.
    """

    stream: Optional[str]
    group: Optional[str] = None
    slot: int = 0
    slots: int = 0
    counter: Optional[Any] = None


@dataclass
class RouteUnit:
    """One routing decision among a stage's out-edges.

    A *solo* unit (``group is None``) wraps one ordinary edge.  A
    *family* unit wraps the per-replica edges fanning out to one sharded
    destination group: ``edges[slot]`` is the out-edge index reaching
    replica ``slot``, and exactly one of them — the key owner's — gets
    each emitted item.  ``accepts`` holds every stream name addressing
    the unit (the concrete name plus the declared one); ``named`` maps a
    concrete per-replica stream name to its slot so an explicit
    ``emit(..., stream="t#1")`` overrides the partitioner;
    ``counters[slot]`` is that replica's routed-items counter.
    """

    accepts: FrozenSet[str]
    edges: List[int]
    group: Optional[str] = None
    named: Dict[str, int] = field(default_factory=dict)
    counters: List[Any] = field(default_factory=list)


def edge_spec(
    stream: Optional[str], dst: str, options: StageOptions, registry: MetricsRegistry
) -> EdgeSpec:
    """Describe an out-edge into stage ``dst`` (whose options are
    ``options``) for :func:`build_route_units`: an edge into a shard
    replica carries the replica's group, slot and slot count, and its
    ``shard.{dst}.items`` counter."""
    if options.shard_group is None:
        return EdgeSpec(stream)
    return EdgeSpec(
        stream, options.shard_group, options.shard_index or 0, options.shard_count or 0,
        registry.counter(f"shard.{dst}.items"),
    )


def build_route_units(
    edges: Sequence[EdgeSpec],
) -> Tuple[List[RouteUnit], FrozenSet[str]]:
    """Group a stage's out-edges into routing units.

    Edges fanning out to the replicas of one sharded destination group
    (same declared stream name, same group) collapse into one
    partitioned *family* unit; everything else stays a solo unit.  A
    partial family — some replica edge missing, which only hand-built
    wiring can produce — falls back to solo units rather than
    partitioning over an incomplete slot set.  Every unit accepts the
    declared name as well as the concrete one: a processor written
    against the declared configuration may name a stream that sharding
    expanded into per-replica edges (``"t"`` for ``"t#0"``).

    Returns the units in declared edge order, and every stream name
    ``emit(..., stream=...)`` may use.
    """
    families: Dict[Tuple[str, str], Dict[int, int]] = {}
    order: List[Tuple[Optional[Tuple[str, str]], int]] = []
    for index, edge in enumerate(edges):
        if edge.group is None or edge.stream is None:
            order.append((None, index))
            continue
        key = (logical_stream(edge.stream), edge.group)
        if key not in families:
            order.append((key, index))
            families[key] = {}
        families[key][edge.slot] = index
    units: List[RouteUnit] = []
    for key, index in order:
        if key is None:
            members = [index]
        else:
            mapping = families[key]
            slots = edges[index].slots
            if set(mapping) == set(range(slots)):
                members = [mapping[slot] for slot in range(slots)]
                names = [str(edges[i].stream) for i in members]
                units.append(
                    RouteUnit(
                        accepts=frozenset(names) | {key[0]},
                        edges=members,
                        group=key[1],
                        named={name: slot for slot, name in enumerate(names)},
                        counters=[edges[i].counter for i in members],
                    )
                )
                continue
            members = sorted(mapping.values())
        for member in members:
            name = edges[member].stream
            accepts = frozenset() if name is None else frozenset({name, logical_stream(name)})
            units.append(RouteUnit(accepts=accepts, edges=[member]))
    return units, frozenset().union(*(unit.accepts for unit in units))


def route_indices(
    units: Sequence[RouteUnit],
    groups: Optional[Mapping[str, Any]],
    payload: Any,
    stream: Optional[str],
) -> Iterator[Union[int, RouteUnit]]:
    """Out-edge indices one emission goes to.

    Solo units behave like the pre-sharding fan-out (every edge matching
    the requested stream, or all of them on a broadcast); a family unit
    contributes exactly one edge — the key owner's under
    ``groups[unit.group].owner(payload)``, or the explicitly addressed
    replica's.  With ``groups`` None a family unit is yielded itself:
    the driver picks the owner under its own routing lock.
    """
    for unit in units:
        if stream is not None and stream not in unit.accepts:
            continue
        if unit.group is None:
            yield unit.edges[0]
            continue
        if groups is None:
            yield unit
            continue
        if stream is not None and stream in unit.named:
            slot = unit.named[stream]
        else:
            slot = groups[unit.group].owner(payload)
        counter = unit.counters[slot]
        if counter is not None:
            counter.inc()
        yield unit.edges[slot]


# -- the stage record and its context ----------------------------------------


class KernelStageContext(StageContext):
    """The stage context handed to user processors on every runtime."""

    def __init__(self, stage: "StageCore") -> None:
        self._stage = stage
        #: The driver's clock, bound here so ``now`` is one call deep.
        self._clock = stage.clock
        self._in_setup = False
        #: True while a failover or live migration re-runs setup() on a
        #: fresh processor instance; duplicate parameter declarations
        #: then return the surviving parameter object (its value,
        #: history series, and controller all outlive the old instance).
        self._restoring = False
        #: Emissions not yet routed; :func:`stage_loop` routes them after
        #: the item (or the chunk) that made them.  Each entry is
        #: (payload, size, stream-or-None).
        self.pending: List[Tuple[Any, float, Optional[str]]] = []
        if stage.param_lock is not None:
            # Bound once: single-threaded drivers keep the plain dict
            # lookup with no lock-presence branch per call.
            self.get_suggested_value = self._locked_suggested_value  # type: ignore[method-assign]

    def specify_parameter(
        self,
        name: str,
        initial: float,
        minimum: float,
        maximum: float,
        increment: float,
        direction: int,
    ) -> AdjustmentParameter:
        """Declare an adjustment parameter (only inside ``setup()``)."""
        stage = self._stage
        if not self._in_setup:
            raise ProcessorError(f"{stage.name}: specify_parameter must be called in setup()")
        if name in stage.parameters:
            if self._restoring:
                return stage.parameters[name]
            raise ProcessorError(f"{stage.name}: parameter {name!r} declared twice")
        param = AdjustmentParameter(name, initial, minimum, maximum, increment, direction)
        param.set_value(initial, self._clock())
        stage.parameters[name] = param
        stage.controllers[name] = ParameterController(param, stage.policy)
        return param

    def get_suggested_value(self, name: str) -> float:
        """Current middleware-suggested value of a declared parameter."""
        try:
            return self._stage.parameters[name].value
        except KeyError:
            raise ProcessorError(f"{self._stage.name}: unknown parameter {name!r}") from None

    def _locked_suggested_value(self, name: str) -> float:
        with self._stage.param_lock:
            return KernelStageContext.get_suggested_value(self, name)

    def emit(self, payload: Any, size: float = 8.0, stream: Optional[str] = None) -> None:
        """Buffer one emission for the driver to transmit after the call."""
        if size < 0:
            raise ProcessorError(f"emit size must be >= 0, got {size}")
        if stream is not None and stream not in self._stage.stream_names:
            raise ProcessorError(
                f"{self._stage.name}: emit to unknown stream {stream!r} "
                f"(have {sorted(self._stage.stream_names)})"
            )
        self.pending.append((payload, float(size), stream))

    @property
    def now(self) -> float:
        """Current time on the hosting runtime's clock."""
        return self._clock()

    @property
    def stage_name(self) -> str:
        """Name of the stage this processor runs as."""
        return self._stage.name

    @property
    def properties(self) -> Dict[str, str]:
        """Configuration properties uploaded with the stage code."""
        return self._stage.properties


class StageCore:
    """Per-stage state every runtime keeps; drivers subclass it.

    Subclasses add what their blocking model needs (out-edges, done
    flags, failover cursors).  ``properties`` are parsed once, into
    :attr:`options` (an invalid one raises ``ValueError`` or
    ``ShardingError``); ``queue(capacity)`` builds the stage's input
    queue (anything with ``current_length`` / ``recent_average``),
    ``clock`` is the driver's time source, ``param_lock`` the lock guarding
    parameter values where several threads touch them (None elsewhere).
    ``batch_default`` is the runtime-level micro-batch policy, resolved
    here against the stage's ``batch-*`` options with ``max_delay``
    pre-scaled by ``time_scale`` so deadlines compare directly against
    ``clock()``.
    """

    def __init__(
        self,
        name: str,
        processor: StreamProcessor,
        properties: Dict[str, str],
        queue: Callable[[int], Any],
        policy: AdaptationPolicy,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        batch_default: Optional[BatchPolicy] = None,
        time_scale: float = 1.0,
        param_lock: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.processor = processor
        self.properties = properties
        self.options: StageOptions = stage_options(properties)
        self.queue = queue(self.options.queue_capacity)
        self.policy = policy
        self.registry = registry
        self.clock = clock
        self.param_lock = param_lock
        #: Held around ``on_item`` / ``flush`` where another thread may
        #: snapshot or swap the processor (None on single-threaded drivers).
        self.state_lock: Optional[Any] = None
        #: Poison-item handling (None: a processing error ends the stage),
        #: its dead-letter queue, and the run's event log for
        #: ``item-quarantined`` records (None: not logged).
        self.resilience: Optional[ResilienceConfig] = None
        self.dead_letters: Optional[DeadLetterQueue] = None
        self.events: Optional[Any] = None
        #: Input items finished (processed or quarantined), counted per chunk.
        self.consumed = 0
        self.eos = EosTracker()
        self.parameters: Dict[str, AdjustmentParameter] = {}
        self.controllers: Dict[str, ParameterController] = {}
        self.exceptions = ExceptionCounter()
        self.rate_estimator = RateEstimator()
        #: Monitor samples taken so far (drives the ``adjust_every`` cadence).
        self.samples = 0
        #: Routing decisions (see :attr:`route_units`) and the stream
        #: names ``emit`` accepts; set from :func:`build_route_units`
        #: once the edges are wired.
        self.route_units = []
        self.stream_names: FrozenSet[str] = frozenset()
        #: Effective micro-batch policy (None = one-at-a-time emission).
        self.batch: Optional[BatchPolicy] = None
        effective = self.options.batch_policy(batch_default)
        if effective is not None and effective.enabled:
            self.batch = BatchPolicy(
                max_items=effective.max_items, max_delay=effective.max_delay * time_scale
            )
        #: Accumulating batches keyed by out-edge index (see
        #: :meth:`open_batch_buffers`); what an entry is, is the driver's.
        self.batch_buffers: Dict[int, BatchBuffer[Any]] = {}
        self.batch_metrics: Optional[BatchMetrics] = None
        #: Registry-backed metric handles (items/bytes/latency/queue...).
        self.metrics = StageMetrics(registry, name)
        self.estimator = LoadEstimator(name, self.queue, policy)
        registry.series(f"adapt.{name}.d_tilde", self.estimator.history)
        self.context = KernelStageContext(self)

    @property
    def route_units(self) -> List[RouteUnit]:
        """Routing decisions over the driver's out-edges."""
        return self._route_units

    @route_units.setter
    def route_units(self, units: List[RouteUnit]) -> None:
        """Set the units, and :attr:`solo_edges`: every unit's edge when
        all are solo (an emission naming no stream goes to each), else
        None, worked out once here rather than per routed emission."""
        self._route_units = units
        solo = [unit.edges[0] for unit in units if unit.group is None]
        self.solo_edges: Optional[List[int]] = solo if len(solo) == len(units) else None

    def open_batch_buffers(self, indices: Iterable[int]) -> None:
        """Give each listed out-edge a batch buffer (no-op when unbatched)."""
        if self.batch is None:
            return
        for index in indices:
            self.batch_buffers[index] = BatchBuffer(self.batch)
        if self.batch_buffers:
            self.batch_metrics = BatchMetrics(self.registry, self.name)

    def receive_exception(self, exception: LoadException) -> None:
        """Account one downstream over-/under-load exception (Section 4)."""
        self.exceptions.report(exception)
        self.metrics.exceptions_received.inc()


def run_setup(
    stage: StageCore, error: Callable[[str], Exception], restoring: bool = False
) -> None:
    """Call ``stage.processor.setup()`` inside the setup bracket.

    Parameters may be declared only in here; emissions may not — a
    stray one would ride out with the first item, so it is rejected
    with ``error(message)`` (each driver's own exception type).
    ``restoring`` marks a re-run on a replacement processor: existing
    parameters are rebound instead of redeclared.  Emissions pending
    from before the call are kept.  Afterwards every parameter's
    trajectory is published as ``adapt.{stage}.param.{name}``.
    """
    ctx = stage.context
    held, ctx.pending = ctx.pending, []
    ctx._in_setup, ctx._restoring = True, restoring
    try:
        stage.processor.setup(ctx)
    finally:
        ctx._in_setup = ctx._restoring = False
        emitted, ctx.pending = ctx.pending, held
    if emitted:
        raise error(
            f"stage {stage.name!r} emitted during setup(); emissions "
            "are only allowed from on_item()/flush()"
        )
    for pname, param in stage.parameters.items():
        stage.registry.series(f"adapt.{stage.name}.param.{pname}", param.history)


# -- the Section-4 sampling tick ----------------------------------------------


def adaptation_tick(
    stage: StageCore, report: Callable[[LoadException], None]
) -> List[Tuple[str, float]]:
    """One monitor sample of ``stage``; the driver sleeps between calls.

    Records the queue length, feeds the load estimator, hands any
    over-/under-load exception to ``report`` (the driver's fan-out to
    the upstream stages) when the policy enables exceptions, and on
    every ``adjust_every``-th sample runs the stage's parameter
    controllers with the exception counts drained since the last round
    (under ``param_lock`` where the driver has one).

    Returns the ``(parameter, new value)`` adjustments made.
    """
    now = stage.clock()
    policy = stage.policy
    stage.metrics.queue_len.record(now, float(stage.queue.current_length))
    exception = stage.estimator.sample(now)
    if exception is not None and policy.exceptions_enabled:
        stage.metrics.exceptions_reported.inc()
        report(exception)
    stage.samples += 1
    if stage.samples % policy.adjust_every or not stage.controllers:
        return []
    t1, t2 = stage.exceptions.drain()
    score = stage.estimator.normalized_score
    with stage.param_lock or _NO_LOCK:
        return [(n, c.adjust(score, t1, t2, now)) for n, c in stage.controllers.items()]


# -- the per-item loop and its batch flushes ------------------------------------

#: Effect tags: the first field of every record :func:`stage_loop` yields.
TAKE, WORK, SEND, FLUSH, EOS = "take", "work", "send", "flush", "eos"

_Effects = Generator[Tuple[Any, ...], Any, None]
_TAKE = (TAKE, None)
_STREAM = itemgetter(2)  # the stream an emission names (None: every edge)


def next_flush_timeout(stage: StageCore) -> Optional[float]:
    """Seconds until the oldest buffered batch hits its age bound."""
    deadlines = [
        d for d in (b.deadline() for b in stage.batch_buffers.values()) if d is not None
    ]
    if not deadlines:
        return None
    return max(0.0, min(deadlines) - stage.clock())


def flush_buffers(stage: StageCore, indices: Iterable[int], age: bool = False) -> _Effects:
    """Yield one ``(FLUSH, index, entries)`` effect per non-empty buffer.

    Each flush is counted in ``batch.*`` (``age``: forced by the age
    bound), and the time the driver spends shipping it is shared equally
    among its entries' traced parent hops.  Entries are ``(payload,
    size, created_at, trace, parent_hop)``.
    """
    clock = stage.clock
    metrics = stage.batch_metrics
    for index in indices:
        entries = stage.batch_buffers[index].drain()
        if not entries:
            continue
        assert metrics is not None
        metrics.batches.inc()
        metrics.items.inc(len(entries))
        metrics.flush_size.observe(float(len(entries)))
        if age:
            metrics.age_flushes.inc()
        start = clock()
        yield (FLUSH, index, entries)
        elapsed = clock() - start
        if elapsed > 0:
            share = elapsed / len(entries)
            for entry in entries:
                if entry[4] is not None:
                    entry[4].tx_t += share


def stage_loop(
    stage: StageCore, groups: Optional[Mapping[str, Any]], *,
    price_free_work: bool = False, deadlines: bool = True,
) -> _Effects:
    """The one per-item loop, as a generator of blocking effects.

    A driver primes it with ``send(None)`` and answers each effect:

    - ``(TAKE, timeout)``: wait up to ``timeout`` seconds (None: no
      bound); reply with a chunk of ``Item`` / ``ItemRun`` /
      ``EndOfStream`` messages, ``()`` on timeout, or None at a drain
      boundary (every buffer is flushed and the loop ends without
      end-of-stream).
    - ``(WORK, cost_model, items, nbytes)``: charge one item's CPU work;
      reply with the seconds charged.
    - ``(SEND, route, payload, size, stream, trace)``: deliver one
      emission on an unbuffered out-edge (``route`` is its index, or a
      family unit when ``groups`` is None; see :func:`route_indices`).
    - ``(FLUSH, index, entries)``: ship a batch (:func:`flush_buffers`).
    - ``(EOS,)``: send end-of-stream on every out-edge; the loop is done.

    Everything else runs in here: per-chunk counters, EOS counting then
    ``flush``, latency and busy time, ``on_item`` under
    ``stage.state_lock`` where there is one, quarantine under
    ``stage.resilience``, and routing ``ctx.pending``.  Unbuffered or
    traced emissions are routed after their item, the rest once per
    chunk, so an item that blocks on nothing costs no generator resume;
    emissions naming no stream from a stage whose out-edges are all
    solo skip the per-emission route generator, and go into a lone
    buffered edge as one list.
    ``price_free_work`` charges work even under a free cost model (a
    simulated core is still claimed); ``deadlines`` bounds each wait by
    the oldest batch's age and flushes due batches after every chunk
    (False when the driver flushes aged batches on a timer of its own).
    """
    ctx = stage.context
    metrics = stage.metrics
    clock = stage.clock
    lock = stage.state_lock
    buffers = stage.batch_buffers
    deadlines = deadlines and bool(buffers)
    resilience = stage.resilience
    tolerant = resilience is not None and resilience.error_policy != "fail"
    priced: Any = None
    free = False
    observe = metrics.latency.observe
    while True:
        chunk = yield (TAKE, next_flush_timeout(stage)) if deadlines else _TAKE
        if chunk is None:
            yield from flush_buffers(stage, buffers)
            return
        count = 0
        nbytes = 0.0
        for message in chunk:
            if type(message) is ItemRun:
                count += len(message.values)
                nbytes += sum(message.sizes)
            elif type(message) is not EndOfStream:
                count += 1
                nbytes += message.size
        if count:
            metrics.items_in.inc(count)
            metrics.bytes_in.inc(nbytes)
        for message in chunk:
            if type(message) is EndOfStream:
                if not stage.eos.observe():
                    continue
                # The last input ended: flush the processor, then every
                # buffer, then end-of-stream.
                stage.consumed += count
                with lock or _NO_LOCK:
                    stage.processor.flush(ctx)
                    ctx.det.finalize_stage(stage.processor)
                if ctx.pending:
                    pending, ctx.pending = ctx.pending, []
                    yield from _route(stage, groups, pending, None, None)
                yield from flush_buffers(stage, buffers)
                yield (EOS,)
                return
            if type(message) is ItemRun:
                # Untraced arrivals sharing one arrival time.
                values, sizes, trace, hop = message.values, message.sizes, None, None
            else:
                values, sizes = (message.payload,), (message.size,)
                trace, hop = message.trace, message.hop
                if hop is not None:
                    hop.dequeue_t = clock()
            created_at = message.created_at
            processor = stage.processor
            if processor is not priced:
                priced = processor
                free = not price_free_work and getattr(processor.cost_model, "is_free", False)
            for payload, size in zip(values, sizes):
                if not free:
                    items, work_bytes = processor.work_amount(payload, size)
                    if items or work_bytes:
                        duration = yield (WORK, processor.cost_model, items, work_bytes)
                        # Free work (every item of a free model on the
                        # simulator) books nothing: skip the locked add.
                        if duration:
                            metrics.busy_seconds.inc(duration)
                            if hop is not None:
                                hop.process_t += duration
                mark = len(ctx.pending)
                try:
                    if lock is None:
                        processor.on_item(payload, ctx)
                    else:
                        with lock:
                            stage.processor.on_item(payload, ctx)
                except Exception as exc:
                    if not tolerant:
                        raise
                    # Drop what the poison item half-emitted; earlier
                    # chunk-mates' emissions stay.
                    del ctx.pending[mark:]
                    quarantine(stage, payload, exc)
                    continue
                observe(clock() - created_at)
                if ctx.pending and (trace is not None or not buffers):
                    pending, ctx.pending = ctx.pending, []
                    if mark:
                        yield from _route(stage, groups, pending[:mark], None, None)
                        del pending[:mark]
                    yield from _route(stage, groups, pending, trace, hop)
        stage.consumed += count
        if ctx.pending:
            pending, ctx.pending = ctx.pending, []
            yield from _route(stage, groups, pending, None, None)
        if deadlines:
            now = clock()
            due = [index for index, buffer in buffers.items() if buffer.due(now)]
            if due:
                yield from flush_buffers(stage, due, age=True)


def _route(
    stage: StageCore, groups: Optional[Mapping[str, Any]], pending: List[Any], trace: Any, hop: Any
) -> _Effects:
    """Buffer or send ``pending`` emissions; a buffer ships as it fills.

    ``trace`` / ``hop`` are the parent item's; an unbuffered stage adds
    the time its sends blocked to the parent's ``hop.tx_t``.
    """
    buffers = stage.batch_buffers
    now = stage.clock()
    nbytes = 0.0
    emitted = len(pending)
    # Every unit solo: an emission naming no stream goes to each edge,
    # and into one buffered edge the whole list goes in bulk.
    solo = stage.solo_edges
    if solo is not None and len(solo) == 1 and solo[0] in buffers and not any(
        map(_STREAM, pending)
    ):
        index, buffer = solo[0], buffers[solo[0]]
        entries = []
        for payload, size, _ in pending:
            nbytes += size
            entries.append((payload, size, now, trace, hop))
        while entries:
            room = buffer.policy.max_items - len(buffer)
            if buffer.extend(entries[:room], now):
                yield from flush_buffers(stage, (index,))
            del entries[:room]
        pending = []
    for payload, size, stream in pending:
        nbytes += size
        routes = (
            solo if stream is None and solo is not None
            else route_indices(stage.route_units, groups, payload, stream)
        )
        for route in routes:
            buffer = buffers.get(route) if type(route) is int else None
            if buffer is None:
                yield (SEND, route, payload, size, stream, trace)
            elif buffer.add((payload, size, now, trace, hop), now):
                yield from flush_buffers(stage, (route,))
    stage.metrics.items_out.inc(emitted)
    stage.metrics.bytes_out.inc(nbytes)
    if hop is not None and not buffers:
        hop.tx_t += stage.clock() - now


# -- the source loop -----------------------------------------------------------

#: Effect tags of :func:`source_loop`.
WAIT, PUT = "wait", "put"


@dataclass
class SourceBinding:
    """An external data stream feeding a first-layer stage.

    Parameters
    ----------
    name:
        Diagnostic name; also the ``origin`` tag on injected items.
    target_stage:
        Name of the stage receiving the stream, or of a shard group (the
        declared name of a stage expanded into replicas): each arrival
        then goes to the replica owning its key, and end-of-stream to
        every replica slot.
    payloads:
        Iterable of payload objects (consumed once).
    rate:
        Arrival rate in items per (scaled) second, or ``None`` to deliver
        as fast as the pipeline accepts (the finite-workload mode of the
        Figure 5/6 experiments).  Ignored when ``arrivals`` is given.
    item_size:
        Bytes per item, or a callable payload -> bytes.
    arrivals:
        Optional :class:`~repro.streams.arrivals.ArrivalProcess` supplying
        inter-arrival gaps (Poisson, bursty ON/OFF ...); overrides
        ``rate``.
    drop_when_full:
        If True, arrivals finding the stage queue at capacity are
        *dropped* (counted in the stage's ``items_dropped``) instead of
        back-pressuring the source — real instruments do not pause; "it
        is often not feasible to store all data" (Section 1).  Honoured
        by the simulated runtime.
    """

    name: str
    target_stage: str
    payloads: Iterable[Any]
    rate: Optional[float] = None
    item_size: float | Callable[[Any], float] = 8.0
    arrivals: Optional[Any] = None
    drop_when_full: bool = False

    def targets(self, groups: Mapping[str, ShardGroup]) -> List[str]:
        """The stages fed, in slot order: the shard group's members, or
        the one target stage."""
        group = groups.get(self.target_stage)
        return list(group.members) if group is not None else [self.target_stage]


def check_binding(
    binding: SourceBinding,
    stages: Mapping[str, StageOptions],
    error: Callable[[str], Exception],
) -> None:
    """Reject a binding to an unknown stage or group, or with ``rate`` <= 0.

    ``stages`` maps every stage name to its options (a replica's name
    its group's); ``error(message)`` builds the driver's exception.
    """
    target = binding.target_stage
    if target not in stages and not any(
        options.shard_group == target for options in stages.values()
    ):
        raise error(f"source {binding.name!r}: unknown stage {target!r}")
    if binding.rate is not None and binding.rate <= 0:
        raise error(f"source {binding.name!r}: rate must be > 0, got {binding.rate}")


def source_loop(
    binding: SourceBinding,
    groups: Mapping[str, ShardGroup],
    clock: Callable[[], float],
    registry: MetricsRegistry,
    *,
    tracer: Optional[Any] = None,
    time_scale: float = 1.0,
    lock: Optional[Any] = None,
    batch: Optional[BatchPolicy] = None,
) -> _Effects:
    """The one source loop, as a generator of blocking effects.

    It feeds the slots ``binding.targets(groups)``.  A driver answers
    ``(WAIT, seconds)`` by sleeping (the gap before an arrival: ``rate``
    or ``arrivals`` times ``time_scale``; a gap of 0 yields nothing),
    and ``(PUT, slot, message)`` by delivering the ``Item`` or
    ``EndOfStream`` into that slot's queue, blocking while it is full,
    or by replying False to report the item dropped (``drop_when_full``).

    In here: the payload's size, the ``Item`` stamped from ``clock``,
    ``tracer`` sampling (``run.traced_items``; the hop opens before the
    put), routing by ``ShardGroup.owner``, ``shard.<member>.items``
    counts, and end-of-stream to every slot, inactive replicas included.
    A routed put is answered while ``lock`` (the threaded group lock) is
    held, so a rebalance never splits owner and put.  What ``payloads``
    or ``item_size`` raise propagates.

    Under ``batch`` (a driver that ships batches, never drops, and
    passes no ``tracer`` or ``lock``) no ``Item`` is built: each slot's
    arrivals collect in an :class:`~repro.core.items.ItemRun`, put once
    it holds ``max_items`` or an arrival finds its first one
    ``max_delay`` old, and before the slot's end-of-stream.
    """
    name, item_size = binding.name, binding.item_size
    sized = callable(item_size)
    group = groups.get(binding.target_stage)
    members = binding.targets(groups)
    counters = [registry.counter(f"shard.{m}.items") for m in members] if group else []
    gaps = binding.arrivals.gaps() if binding.arrivals is not None else None
    fixed_gap = (1.0 / binding.rate) * time_scale if binding.rate else 0.0
    slot = 0
    # Under ``batch``, each slot's arrivals not yet put: payloads, sizes
    # and the first one's arrival time.
    runs: List[Optional[Tuple[List[Any], List[float], float]]] = [None] * len(members)
    for payload in binding.payloads:
        gap = next(gaps) * time_scale if gaps is not None else fixed_gap
        if gap:
            yield (WAIT, gap)
        now = clock()
        size = float(item_size(payload) if sized else item_size)
        if batch is not None:
            if group is not None:
                slot = group.owner(payload)
            run = runs[slot]
            if run is None:
                run = runs[slot] = ([], [], now)
            run[0].append(payload)
            run[1].append(size)
            if len(run[0]) >= batch.max_items or now - run[2] >= batch.max_delay:
                runs[slot] = None
                yield (PUT, slot, ItemRun(run[0], run[1], run[2], name))
                if counters:
                    counters[slot].inc(len(run[0]))
            continue
        item = Item(payload, size, name, now)
        trace = tracer.maybe_trace(name, now) if tracer is not None else None
        if trace is not None:
            registry.counter("run.traced_items").inc()
            item.trace = trace
        if lock is not None:  # by hand: a with-block costs a context manager per item
            lock.acquire()
        try:
            if group is not None:
                slot = group.owner(payload)
            if trace is not None:
                item.hop = trace.begin_hop(members[slot], now)
            delivered = (yield (PUT, slot, item)) is not False
        finally:
            if lock is not None:
                lock.release()
        if not delivered:
            if trace is not None:
                trace.hops.remove(item.hop)
        elif counters:
            counters[slot].inc()
    for slot, run in enumerate(runs):
        if run is not None:
            yield (PUT, slot, ItemRun(run[0], run[1], run[2], name))
            if counters:
                counters[slot].inc(len(run[0]))
        yield (PUT, slot, EndOfStream(origin=name))


# -- fault-tolerance records ---------------------------------------------------


def stage_checkpoint(
    stage: StageCore, generation: int = 0, cursors: Optional[Dict[str, int]] = None
) -> StageCheckpoint:
    """Snapshot a stage between items.

    The caller guarantees the processor is not mid-item (the simulator
    defers to the item boundary; the threaded driver holds its state
    lock; the networked worker waits for its migration fence).
    ``generation`` / ``cursors`` are the replay position where the
    driver has one; EOS progress is read from ``stage.eos``.
    """
    with stage.param_lock or _NO_LOCK:
        parameters = {name: p.value for name, p in stage.parameters.items()}
    return StageCheckpoint(
        stage=stage.name,
        time=stage.clock(),
        generation=generation,
        processor_state=stage.processor.snapshot(),
        parameters=parameters,
        estimator=stage.estimator.snapshot(),
        exceptions=stage.exceptions.snapshot(),
        cursors=dict(cursors or {}),
        eos_seen=stage.eos.snapshot(),
    )


def restore_checkpoint(
    stage: StageCore, checkpoint: Optional[StageCheckpoint], processor_only: bool = False
) -> None:
    """Apply ``checkpoint`` to ``stage``: the inverse of :func:`stage_checkpoint`.

    Every parameter the processor still declares takes its checkpointed
    value (stamped at ``stage.clock()``); the load estimator, exception
    counts, processor state and EOS progress are rebuilt; emissions not
    yet routed are dropped, since they followed the snapshot.  With
    ``checkpoint`` None (none was taken) only EOS progress restarts, at
    zero, and the processor keeps its fresh ``setup()`` state.
    ``processor_only`` applies the processor state alone: a threaded hot
    swap, whose stage record lives on and whose monitor thread samples
    the estimator without the state lock.
    """
    processor = stage.processor
    if processor_only:
        assert checkpoint is not None
        if checkpoint.processor_state is not None:
            processor.restore(checkpoint.processor_state)
        return
    stage.context.pending.clear()
    if checkpoint is None:
        stage.eos.restore(0)
        return
    now = stage.clock()
    with stage.param_lock or _NO_LOCK:
        for name, value in checkpoint.parameters.items():
            if name in stage.parameters:
                stage.parameters[name].set_value(value, now)
    if checkpoint.estimator is not None:
        stage.estimator.restore(checkpoint.estimator)
    if checkpoint.exceptions:
        stage.exceptions.restore(checkpoint.exceptions)
    if checkpoint.processor_state is not None:
        processor.restore(checkpoint.processor_state)
    stage.eos.restore(checkpoint.eos_seen)


def swap_processor(
    stage: StageCore, replacement: Any, error: Callable[[str], Exception]
) -> None:
    """Make ``replacement`` the stage's processor and re-run ``setup()``.

    ``replacement`` must be a :class:`StreamProcessor` (else
    ``error(message)``, the driver's exception).  Its ``setup()`` runs
    restoring, so parameter declarations rebind the live parameters; if
    it raises, the previous processor is put back and the exception
    propagates.  The caller holds the stage between items; the
    replacement's state comes from :func:`restore_checkpoint`.
    """
    if not isinstance(replacement, StreamProcessor):
        raise error(
            f"stage {stage.name!r}: replacement is not a StreamProcessor "
            f"(got {type(replacement).__name__})"
        )
    previous, stage.processor = stage.processor, replacement
    try:
        run_setup(stage, error, restoring=True)
    except BaseException:
        stage.processor = previous
        raise


def quarantine(
    stage: StageCore, payload: Any, exc: BaseException, reason: str = "processing"
) -> None:
    """Count (and under ``dead-letter``, retain) one poison item.

    Uses the stage's ``resilience`` / ``dead_letters``, and logs an
    ``item-quarantined`` event where the stage has an event log.
    """
    stage.registry.counter(f"fault.{stage.name}.quarantined").inc()
    resilience = stage.resilience
    if resilience is not None and resilience.error_policy == "dead-letter":
        assert stage.dead_letters is not None
        stage.dead_letters.add(
            DeadLetter(
                stage=stage.name,
                payload=payload,
                time=stage.clock(),
                error=repr(exc),
                reason=reason,
            )
        )
    if stage.events is not None:
        stage.events.log(
            stage.clock(), "item-quarantined", stage=stage.name, reason=reason, error=repr(exc)
        )


# -- the end of a run ------------------------------------------------------------


def stage_finals(stages: Iterable[StageCore], now: float) -> Dict[str, Any]:
    """Set each stage's arrival-rate gauge to its decayed estimate at
    ``now``; return each processor's ``result()`` by stage name."""
    finals: Dict[str, Any] = {}
    for stage in stages:
        stage.metrics.arrival_rate.set(stage.rate_estimator.decayed_rate(now))
        finals[stage.name] = stage.processor.result()
    return finals


def run_report(
    result: RunResult,
    metrics: MetricsRegistry,
    execution_time: float,
    hosts: Mapping[str, str],
    finals: Mapping[str, Any],
    groups: Mapping[str, ShardGroup],
    tracer: Optional[Any] = None,
) -> RunResult:
    """Fill ``result``, every runtime's report of a finished run: the
    ``run.execution_time`` and ``shard.{group}.replicas`` gauges, the
    tracer's traces, and a :class:`~repro.core.results.StageStats` per
    stage of ``hosts`` (stage -> host, in report order) with its final
    value from ``finals``."""
    # Imported here: a networked worker runs stages but never reports a run.
    from repro.core.results import StageStats

    result.execution_time = execution_time
    metrics.gauge("run.execution_time").set(execution_time)
    for name, group in groups.items():
        metrics.gauge(f"shard.{name}.replicas").set(float(group.active))
    if tracer is not None:
        result.traces = tracer.traces
        publish_traces(metrics, result.traces)
    for name, host in hosts.items():
        result.stages[name] = StageStats.from_registry(
            metrics, name, host_name=host, final_value=finals.get(name)
        )
    result.metrics = metrics
    return result
