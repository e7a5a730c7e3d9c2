"""The worker process: one GATES service container as a real OS process.

A worker is launched with ``python -m repro.net.worker`` (or ``repro
worker``), binds a TCP port, and announces it on stdout as
``REPRO-NET-WORKER <port> <name> <pid>`` so a coordinator spawning it
with ``--port 0`` can find it.  One such process serves one worker per
``--name``: it imports this module once and forks the others from
itself (:func:`main`).  Everything after that arrives over sockets:

1. the coordinator connects and HELLOs (assigning the worker its
   placement name, adaptation policy, time scale, and credit window);
2. REGISTER frames instantiate stage processors (code resolved through
   the same built-in repository every runtime admits against,
   :func:`repro.grid.admission.builtin_repository`: every built-in
   application's ``repo://`` publications plus ``py://module:attr``
   imports);
3. CHANNEL frames declare the stage graph's edges as seen from this
   worker — local (both ends here), inbound (remote sender will ATTACH),
   or outbound (dial the peer worker at START);
4. START begins execution: each stage runs the kernel's stage loop
   (:func:`repro.core.kernel.stage_loop`, the same one the other
   runtimes run) as an asyncio task, and — when adaptation is on — a monitor
   task executes the paper's Section 4 loop locally, delivering
   over-/under-load exceptions upstream *over the wire* when the
   upstream stage lives on another worker;
5. when every local stage has drained (one EndOfStream per input,
   tracked by the shared :class:`~repro.core.termination.EosTracker`)
   and the coordinator's "collect" has arrived, the worker sends RESULT
   with its stage finals (:func:`repro.core.kernel.stage_finals`) and
   its entire metrics registry, then waits for SHUTDOWN; a failed stage
   sends ERROR at once.

The worker is single-threaded asyncio: stages are tasks, not threads,
which keeps per-stage state lock-free while the real concurrency lives
between processes.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time
import traceback
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import LoadException, LoadExceptionKind
from repro.core.api import StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.items import EndOfStream, Item, ItemRun
from repro.core.kernel import (
    FLUSH,
    SEND,
    TAKE,
    WORK,
    StageCore,
    adaptation_tick,
    build_route_units,
    edge_spec,
    restore_checkpoint,
    run_setup,
    stage_checkpoint,
    stage_finals,
    stage_loop,
)
from repro.core.options import StageOptions, stage_options
from repro.core.sharding import ShardGroup
from repro.core.termination import no_input_message
from repro.grid.admission import builtin_repository
from repro.grid.repository import CodeRepository
from repro.net.channels import AsyncInbox, ChannelError, InChannel, OutChannel
from repro.net.debug import install_task_dump
from repro.net.protocol import (
    FrameStreamProtocol,
    FrameType,
    ProtocolError,
    announce_line,
    cap_read_buffer,
    decode_payload_columns,
    encode_json,
    read_frame,
    send_frame,
)
from repro.obs.registry import MetricsRegistry, Series
from repro.resilience.checkpoint import StageCheckpoint
from repro.simnet.trace import TimeSeries

__all__ = ["Worker", "WorkerError", "main"]

#: Accumulate modeled compute cost and sleep only past this debt, so
#: micro-costs (50 us/item) do not each pay the event loop's wakeup
#: granularity.
_SLEEP_DEBT_THRESHOLD = 0.001


class WorkerError(Exception):
    """Raised for protocol violations or invalid registrations."""


class _LocalRoute:
    """In-process edge between two stages hosted on the same worker."""

    def __init__(
        self, stream: str, dst: "_HostedStage", worker: "Worker", dst_options: StageOptions
    ) -> None:
        self.stream = stream
        self.dst = dst
        self.dst_name = dst.name
        #: The destination's options, from the CHANNEL frame.
        self.dst_options = dst_options
        self._worker = worker

    def ready(self, items: int) -> bool:
        return self.dst.inbox.current_length < self.dst.inbox.capacity

    async def send(self, payload: Any, size: float, origin: str) -> None:
        await self.dst.inbox.put(Item(payload, size, origin, self._worker.elapsed()))
        self.dst.rate_estimator.observe(self._worker.elapsed())

    async def send_eos(self, origin: str) -> None:
        await self.dst.inbox.force_put(EndOfStream(origin=origin))


class _WireRoute:
    """Outbound edge to a stage on another worker, via an OutChannel."""

    def __init__(self, channel: OutChannel, dst_options: StageOptions) -> None:
        self.channel = channel
        self.stream = channel.stream
        self.dst_name = channel.dst_stage
        #: The destination's options, from the CHANNEL frame.
        self.dst_options = dst_options

    def ready(self, items: int) -> bool:
        return self.channel.can_ship(items)

    async def send(self, payload: Any, size: float, origin: str) -> None:
        await self.channel.send(payload, size)

    async def send_eos(self, origin: str) -> None:
        await self.channel.send_eos()


class _HostedStage(StageCore):
    """The kernel's stage record plus the worker's channels and task flags."""

    def __init__(self, *core: Any) -> None:
        super().__init__(*core)
        self.inbox: AsyncInbox = self.queue
        self.out_routes: List[Any] = []
        #: Upstream stages on this worker (exception delivery in-process).
        self.upstream_local: List[str] = []
        #: Inbound wire channels feeding this stage (exception delivery over
        #: the socket, back to the remote sender).
        self.upstream_wire: List[InChannel] = []
        self.done = asyncio.Event()
        self.error: Optional[BaseException] = None
        #: True once this stage's live copy moved to another worker: its
        #: task exited at the migration fence and its final value lives on
        #: the adopting worker.
        self.migrated_away = False
        #: Set by the stage task when it exits at a migration fence (the
        #: export handler awaits it before snapshotting).
        self.fence_passed: Optional[asyncio.Event] = None

    def continue_series(self) -> None:
        """Record into the trajectories the registry holds under this
        stage's names: the earlier copy's, when the stage is hosted here
        again (:class:`_HostRegistry`), else its own."""
        prefix = f"adapt.{self.name}"
        self.estimator.history = self.registry.get(f"{prefix}.d_tilde").series
        for pname, param in self.parameters.items():
            param.history = self.registry.get(f"{prefix}.param.{pname}").series


class _HostRegistry(MetricsRegistry):
    """A worker's registry, where a stage may be hosted twice: moved
    away and back.  The copy hosted again registers fresh trajectories
    under names its earlier copy's still hold; each name keeps the
    earlier series, extended by the fresh samples, and the new copy
    records into it (:meth:`_HostedStage.continue_series`) — one series
    per name, in time order."""

    def series(self, name: str, series: Optional[TimeSeries] = None) -> Series:
        if series is not None and name in self:
            earlier = self.get(name)
            if earlier.series is not series:
                for t, v in series:
                    earlier.record(t, v)
                return earlier
        return super().series(name, series)


class _MigrateFence:
    """Inbox sentinel marking a live migration's drain boundary.

    Everything before the fence is processed here; nothing follows it
    (every upstream sender has detached).  The stage task reacts by
    flushing pending emissions, detaching its own out-channels (no EOS —
    the stream continues from the new worker), and exiting.
    """


def _return_credit(channels: Sequence[InChannel]) -> List[InChannel]:
    """Write each channel's earned grant; return those whose backchannel
    piled up past the high watermark, to drain before consuming more."""
    return [channel for channel in channels if channel.grant() and channel.needs_drain()]


class Worker:
    """One service container: hosts stages, talks frames, adapts locally."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "worker",
        repository: Optional[CodeRepository] = None,
        uds_path: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        #: When set, also listen on this UNIX-domain socket and announce
        #: it, so co-located senders skip the TCP stack entirely.
        self.uds_path = uds_path
        #: Built at the first REGISTER when not given; :func:`main` builds
        #: it once before forking (:func:`_preload`), so no fork imports
        #: the applications again.
        self.repository = repository
        self.metrics = _HostRegistry()
        self.policy = AdaptationPolicy()
        self.adaptation_enabled = True
        self.time_scale = 1.0
        self.credit_window = 32
        self.batch: Optional[BatchPolicy] = None
        self._stages: Dict[str, _HostedStage] = {}
        #: Sharded destination groups, built at START from the options of
        #: the replicas the CHANNEL frames name.
        self._route_groups: Dict[str, ShardGroup] = {}
        self._in_channels: Dict[str, InChannel] = {}
        self._out_channels: List[OutChannel] = []
        self._tasks: List[asyncio.Task] = []
        self._shutdown: Optional[asyncio.Event] = None
        self._started = False
        self._start_time = time.monotonic()
        #: Set by the coordinator's "collect": RESULT is held until then,
        #: so a stage adopted mid-run is included and a spare worker does
        #: not report before it might adopt one (an ERROR is never held).
        self._release: Optional[asyncio.Event] = None
        #: Set when a hosted stage fails: wakes a completion task held at
        #: the collect release (a stage adopted later may fail there).
        self._failure: Optional[asyncio.Event] = None

    def elapsed(self) -> float:
        """Wall-clock seconds since START (process start before that)."""
        return time.monotonic() - self._start_time

    # -- lifecycle -----------------------------------------------------------

    async def serve(self, announce=None) -> None:
        """Bind, announce (:func:`~repro.net.protocol.announce_line`) on
        ``announce`` or else on stdout, serve until SHUTDOWN."""
        self._shutdown = asyncio.Event()
        self._release = asyncio.Event()
        self._failure = asyncio.Event()
        install_task_dump(f"worker {self.name}")
        loop = asyncio.get_running_loop()
        server = await loop.create_server(
            self._connection_protocol, self.host, self.port
        )
        port = server.sockets[0].getsockname()[1]
        unix_server = None
        uds_bound: Optional[str] = None
        if self.uds_path:
            # Best effort: a platform without AF_UNIX (or a bad path)
            # just loses the fast path; TCP keeps everything working.
            try:
                unix_server = await loop.create_unix_server(
                    self._connection_protocol, path=self.uds_path
                )
                uds_bound = self.uds_path
            except (AttributeError, NotImplementedError, OSError):
                unix_server = None
        line = announce_line(port, self.name, os.getpid(), uds_bound)
        if announce is not None:
            announce.write(line)
        else:
            _announce_on_stdout(line)
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            if unix_server is not None:
                unix_server.close()
                try:
                    await unix_server.wait_closed()
                except (ConnectionError, OSError):
                    pass
            if uds_bound is not None:
                try:
                    os.unlink(uds_bound)
                except OSError:
                    pass
            for task in self._tasks:
                task.cancel()
            for channel in self._out_channels:
                await channel.close()

    def _connection_protocol(self) -> FrameStreamProtocol:
        """``asyncio.start_server``'s protocol, with a receive path that a
        data connection can divert (see :meth:`_serve_peer`)."""
        loop = asyncio.get_running_loop()
        return FrameStreamProtocol(
            asyncio.StreamReader(loop=loop), self._handle_connection, loop=loop
        )

    async def _handle_connection(self, reader, writer) -> None:
        """Dispatch on the first frame: HELLO = coordinator, ATTACH = peer."""
        cap_read_buffer(writer)
        try:
            first = await read_frame(reader)
            if first is None:
                return
            if first.type is FrameType.HELLO:
                await self._serve_coordinator(reader, writer, first)
            elif first.type is FrameType.ATTACH:
                await self._serve_peer(reader, writer, first)
            else:
                await send_frame(
                    writer, FrameType.ERROR,
                    encode_json({"error": f"unexpected first frame {first.type.name}"}),
                )
        except (ProtocolError, ConnectionError, WorkerError) as exc:
            try:
                await send_frame(
                    writer, FrameType.ERROR, encode_json({"error": str(exc)})
                )
            except (ProtocolError, ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- coordinator connection ----------------------------------------------

    async def _serve_coordinator(self, reader, writer, hello) -> None:
        body = hello.json()
        self.name = str(body.get("worker", self.name))
        self.time_scale = float(body.get("time_scale", self.time_scale))
        self.credit_window = int(body.get("credit_window", self.credit_window))
        self.adaptation_enabled = bool(
            body.get("adaptation", self.adaptation_enabled)
        )
        if body.get("policy") is not None:
            self.policy = AdaptationPolicy(**body["policy"])
        if body.get("batch") is not None:
            self.batch = BatchPolicy(
                max_items=int(body["batch"]["max_items"]),
                max_delay=float(body["batch"]["max_delay"]),
            )
        await send_frame(
            writer, FrameType.HELLO,
            encode_json({"role": "worker", "worker": self.name, "proto": 1}),
        )
        while True:
            frame = await read_frame(reader)
            if frame is None or frame.type is FrameType.SHUTDOWN:
                break
            await self._dispatch_control(frame, writer)
        assert self._shutdown is not None
        self._shutdown.set()

    async def _dispatch_control(self, frame, writer) -> None:
        if frame.type is FrameType.PING:
            await send_frame(writer, FrameType.PONG, frame.payload)
        elif frame.type is FrameType.REGISTER:
            self._register_stage(frame.json())
        elif frame.type is FrameType.CHANNEL:
            self._register_channel(frame.json())
        elif frame.type is FrameType.SYNC:
            await send_frame(
                writer, FrameType.READY, encode_json({"phase": "synced"})
            )
        elif frame.type is FrameType.START:
            await self._start(writer)
            await send_frame(
                writer, FrameType.READY, encode_json({"phase": "started"})
            )
        elif frame.type is FrameType.MIGRATE:
            await self._handle_migrate(frame.json(), writer)
        else:
            raise WorkerError(f"unexpected control frame {frame.type.name}")

    def _register_stage(self, body: Dict[str, Any]) -> None:
        """Instantiate one stage (REGISTER) — before START, or for a live
        migration adopting it.  A stage this worker handed off earlier is
        hosted again: the new record replaces the moved-away one."""
        name = body["stage"]
        prior = self._stages.get(name)
        if prior is not None and not prior.migrated_away:
            raise WorkerError(f"duplicate stage {name!r}")
        if self.repository is None:
            self.repository = builtin_repository()
        factory = self.repository.fetch(body["code"])
        processor = factory()
        if not isinstance(processor, StreamProcessor):
            raise WorkerError(f"{name}: code did not produce a StreamProcessor")
        properties = {str(k): str(v) for k, v in body.get("properties", {}).items()}
        try:
            self._stages[name] = _HostedStage(
                name, processor, properties,
                lambda capacity: AsyncInbox(capacity, self.policy.window),
                self.policy, self.metrics, self.elapsed, self.batch, self.time_scale,
            )
        except ValueError as exc:
            raise WorkerError(f"{name}: {exc}") from None

    def _register_channel(self, body: Dict[str, Any]) -> None:
        kind = body["kind"]
        stream = body["stream"]
        dst_options = stage_options(body.get("dst_properties") or {})
        if kind == "local":
            src = self._require_stage(body["src"], stream)
            dst = self._require_stage(body["dst"], stream)
            src.out_routes.append(_LocalRoute(stream, dst, self, dst_options))
            dst.eos.expect()
            dst.upstream_local.append(src.name)
        elif kind == "in":
            dst = self._require_stage(body["dst"], stream)
            window = int(body.get("window", self.credit_window))
            channel = InChannel(stream, dst.name, window)
            self._in_channels[stream] = channel
            dst.eos.expect()
            dst.upstream_wire.append(channel)
        elif kind == "out":
            src = self._require_stage(body["src"], stream)
            channel = OutChannel(
                stream,
                body["dst"],
                body["peer_host"],
                int(body["peer_port"]),
                self.metrics,
                clock=self.elapsed,
                on_exception=self._wire_exception_handler(src),
                uds_path=body.get("peer_uds"),
            )
            self._out_channels.append(channel)
            src.out_routes.append(_WireRoute(channel, dst_options))
        else:
            raise WorkerError(f"unknown channel kind {kind!r} for {stream!r}")

    def _require_stage(self, name: str, stream: str) -> _HostedStage:
        try:
            return self._stages[name]
        except KeyError:
            raise WorkerError(
                f"channel {stream!r} references unregistered stage {name!r}"
            ) from None

    def _wire_exception_handler(self, stage: _HostedStage):
        """Receive a downstream stage's load exception for ``stage``."""

        def _handle(body: Dict[str, Any]) -> None:
            try:
                exception = LoadException(
                    kind=LoadExceptionKind(body["kind"]),
                    reporter=str(body["reporter"]),
                    time=self.elapsed(),
                    score=float(body.get("score", 0.0)),
                )
            except (KeyError, ValueError):
                return
            stage.receive_exception(exception)

        return _handle

    async def _start(self, coordinator_writer) -> None:
        if self._started:
            raise WorkerError("START received twice")
        for stage in self._stages.values():
            if not stage.eos.has_inputs:
                raise WorkerError(no_input_message(stage.name))
        self._started = True
        self._start_time = time.monotonic()
        # Warm the deterministic-context module before any stage task
        # runs: StageContext.det imports it lazily, and paying a package
        # import inside the data path shows up as a multi-millisecond
        # latency spike on whichever item (or the EOS flush) touches
        # ``ctx.det`` first.
        import repro.ledger.context  # noqa: F401
        await self._host(list(self._stages.values()))
        self._tasks.append(
            asyncio.create_task(self._completion_task(coordinator_writer))
        )

    async def _host(
        self, stages: List[_HostedStage], checkpoint: Optional[StageCheckpoint] = None
    ) -> None:
        """Start registered ``stages``: at START, or one stage a live
        migration adopts from ``checkpoint``.

        Each stage gets its routes and ``setup()`` for structure, then
        the checkpoint (if any) restored on top with the kernel's
        :func:`restore_checkpoint` — parameters, load estimator,
        exception counts, processor state and EOS progress, the same
        restore failover uses.  Their outbound channels are dialed (the
        receiving workers declared their InChannels first: the
        coordinator barriers SYNC/READY before any START, and sends a
        move's CHANNEL frames before it resumes any sender), then their
        tasks start.
        """
        for stage in stages:
            self._build_routes(stage)
            run_setup(stage, WorkerError)
            stage.continue_series()
            if checkpoint is not None:
                restore_checkpoint(stage, checkpoint)
        await asyncio.gather(*(
            route.channel.connect()
            for stage in stages for route in stage.out_routes
            if isinstance(route, _WireRoute)
        ))
        for stage in stages:
            self._tasks.append(asyncio.create_task(self._stage_task(stage)))
            if self.adaptation_enabled:
                self._tasks.append(asyncio.create_task(self._monitor_task(stage)))

    def _build_routes(self, stage: _HostedStage) -> None:
        """Turn a stage's out-routes into the kernel's route units.

        Local and wire routes mix freely inside a family — the replicas
        may live anywhere in the fleet.  Each sharded destination group is
        built from the options of a replica the CHANNEL frames name.
        """
        stage.route_units, stage.stream_names = build_route_units(
            [edge_spec(r.stream, r.dst_name, r.dst_options, self.metrics) for r in stage.out_routes]
        )
        for unit in stage.route_units:
            if unit.group is not None and unit.group not in self._route_groups:
                self._route_groups[unit.group] = ShardGroup.of(
                    stage.out_routes[unit.edges[0]].dst_options
                )
        # Batch buffers exist only for wire routes: a local handoff is
        # already a single in-process append, while a wire route pays a
        # frame + syscall per send, which batching amortizes.
        stage.open_batch_buffers(
            i for i, r in enumerate(stage.out_routes) if isinstance(r, _WireRoute)
        )

    # -- stage execution -----------------------------------------------------

    async def _stage_task(self, stage: _HostedStage) -> None:
        """Interpret the kernel's :func:`stage_loop` as an asyncio task.

        A stage under a batch policy drains its inbox in chunks (one
        event-loop suspension per chunk).  Items taken from a wire
        channel count toward its next grant, written just before the
        task next suspends: an empty inbox, a send that cannot go out at
        once, a sleep, or the end.  Modeled CPU cost accumulates as a
        sleep debt, slept only past ``_SLEEP_DEBT_THRESHOLD``.
        """
        step = stage_loop(stage, self._route_groups).send
        limit = stage.batch.max_items if stage.batch is not None else 1
        inbox = stage.inbox
        in_channels = self._in_channels
        sleep_debt = 0.0
        reply: Any = None
        owed = False  # a grant is earned and not yet written

        async def suspending() -> None:
            nonlocal owed
            if owed:
                owed = False
                for channel in _return_credit(stage.upstream_wire):
                    await channel.drain()

        try:
            while True:
                try:
                    effect = step(reply)
                except StopIteration:
                    # Past a live-migration fence with everything flushed:
                    # detach the out-channels (no EOS — the stream
                    # continues from the new worker), and exit so the
                    # export handler can snapshot.
                    await suspending()
                    channels = [r.channel for r in stage.out_routes if isinstance(r, _WireRoute)]
                    await asyncio.gather(*(channel.detach() for channel in channels))
                    self._out_channels = [c for c in self._out_channels if c not in channels]
                    stage.migrated_away = True
                    assert stage.fence_passed is not None
                    stage.fence_passed.set()
                    return
                reply = None
                kind = effect[0]
                if kind is TAKE:
                    if effect[1] is None or (effect[1] > 0 and inbox.current_length):
                        # Unbounded, or a chunk is already queued: no
                        # timer task needed to take it.
                        if owed and not inbox.current_length:
                            await suspending()
                        reply = await inbox.get_many(limit)
                    else:
                        await suspending()
                        try:
                            reply = await asyncio.wait_for(inbox.get_many(limit), effect[1])
                        except asyncio.TimeoutError:
                            reply = ()
                            continue
                    if isinstance(reply[0], _MigrateFence):
                        # Drain boundary: the upstreams have detached, so
                        # nothing follows; reply None to flush and stop.
                        reply = None
                        continue
                    for message in reply:
                        if type(message) is ItemRun:
                            owed |= in_channels[message.origin].note_consumed(len(message.values))
                elif kind is WORK:
                    reply = effect[1].cost(effect[2], effect[3]) * self.time_scale
                    if reply > 0:
                        sleep_debt += reply
                        if sleep_debt >= _SLEEP_DEBT_THRESHOLD:
                            await suspending()
                            await asyncio.sleep(sleep_debt)
                            sleep_debt = 0.0
                elif kind is SEND:
                    route = stage.out_routes[effect[1]]
                    if owed and not route.ready(1):
                        await suspending()
                    await route.send(effect[2], effect[3], stage.name)
                elif kind is FLUSH:
                    route = stage.out_routes[effect[1]]
                    if owed and not route.ready(len(effect[2])):
                        await suspending()
                    await route.channel.send_batch(effect[2])
                else:  # EOS
                    await suspending()
                    for route in stage.out_routes:
                        await route.send_eos(stage.name)
                    return
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported via ERROR frame
            stage.error = exc
            assert self._failure is not None
            self._failure.set()
            # Release downstream stages (they will never hear from us
            # again); best effort — peers may already be gone.
            for route in stage.out_routes:
                try:
                    await route.send_eos(stage.name)
                except (ChannelError, ConnectionError, ProtocolError):
                    pass
        finally:
            stage.done.set()

    async def _monitor_task(self, stage: _HostedStage) -> None:
        """The Section 4 adaptation loop, run locally per stage."""
        reported: List[LoadException] = []
        interval = self.policy.sample_interval * self.time_scale
        while not stage.done.is_set():
            await asyncio.sleep(interval)
            if stage.done.is_set():
                return
            adaptation_tick(stage, reported.append)
            if reported:
                self._report_upstream(stage, reported.pop())
                for wire in stage.upstream_wire:
                    if wire.needs_drain():
                        await wire.drain()

    def _report_upstream(
        self, stage: _HostedStage, exception: LoadException
    ) -> None:
        """Deliver a load exception to every upstream: local or over the wire."""
        for src_name in stage.upstream_local:
            self._stages[src_name].receive_exception(exception)
        for channel in stage.upstream_wire:
            channel.send_exception(
                {
                    "stream": channel.stream,
                    "kind": exception.kind.value,
                    "reporter": exception.reporter,
                    "time": exception.time,
                    "score": exception.score,
                }
            )

    async def _completion_task(self, writer) -> None:
        """Send RESULT (or ERROR) once every local stage has drained."""
        while True:
            # Snapshot: a live migration may adopt a stage onto this
            # worker after the wait started, so re-check until the set
            # is stable and fully drained.
            stages = list(self._stages.values())
            for stage in stages:
                await stage.done.wait()
            # An error aborts the run: never hold it behind the collect
            # release, or a crashed stage stops consuming, the
            # coordinator's feeder starves on credit, and the release
            # broadcast it is waiting for never arrives.  The wait
            # below wakes on a failure too: a stage adopted after it
            # started was not in the snapshot.
            if self._failed_stages():
                break
            assert self._release is not None and self._failure is not None
            waits = [
                asyncio.ensure_future(event.wait())
                for event in (self._release, self._failure)
            ]
            try:
                await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
            finally:
                for wait in waits:
                    wait.cancel()
            if self._failed_stages():
                break
            self._failure.clear()  # a moved-away copy's failure is not ours
            if self._release.is_set() and len(self._stages) == len(stages) and all(
                s.done.is_set() for s in self._stages.values()
            ):
                break
        failed = self._failed_stages()
        try:
            if failed:
                await send_frame(
                    writer, FrameType.ERROR,
                    encode_json({
                        "error": f"stage {failed[0].name!r} failed: "
                                 f"{failed[0].error!r}",
                        "worker": self.name,
                    }),
                )
                return
            # A moved-away stage's live copy (and its final value) is on
            # another worker; ours is a stale snapshot.
            finals = stage_finals(
                (s for s in self._stages.values() if not s.migrated_away), self.elapsed()
            )
            for channel in self._out_channels:
                await channel.close()
            await send_frame(
                writer, FrameType.RESULT,
                encode_json({
                    "worker": self.name,
                    "finals": finals,
                    "metrics": self.metrics.to_wire(),
                }),
            )
        except (ConnectionError, ProtocolError, OSError):
            pass

    # -- live migration (docs/migration.md) ----------------------------------

    async def _handle_migrate(self, body: Dict[str, Any], writer) -> None:
        """One step of the coordinator's migration protocol: detach,
        export, adopt, resume, collect.

        Each action except ``collect`` replies with a MIGRATE frame
        carrying the completed ``phase`` (``export`` replies HANDOFF on
        success); ``collect`` only releases held results — replying here
        would interleave with the RESULT frames it unblocks.
        """
        action = body.get("action")
        if action == "detach":
            wanted = set(body["streams"])
            await asyncio.gather(*(
                channel.detach() for channel in self._out_channels if channel.stream in wanted
            ))
            phase = "detached"
        elif action == "export":
            await self._export_stage(self._stages[body["stage"]], writer)
            return
        elif action == "adopt":
            await self._host(
                [self._stages[body["stage"]]], StageCheckpoint.from_dict(body["checkpoint"])
            )
            phase = "adopted"
        elif action == "resume":
            wanted = set(body["streams"])
            await asyncio.gather(*(
                channel.dial(body["host"], int(body["port"]), body.get("uds"))
                for channel in self._out_channels
                if channel.stream in wanted and channel.detached
            ))
            phase = "resumed"
        elif action == "collect":
            assert self._release is not None
            self._release.set()
            return
        else:
            raise WorkerError(f"unknown MIGRATE action {action!r}")
        await send_frame(writer, FrameType.MIGRATE, encode_json({"phase": phase}))

    async def _export_stage(self, stage: _HostedStage, writer) -> None:
        """Fence a stage whose senders were told to detach, and hand its
        state off.

        Once every input has shown its marker — DETACH, or EOS from a
        sender that had already finished — everything the stage will
        ever get here is in its inbox.  A fence barrier then marks the
        boundary: when the stage task passes it, the inbox is empty and
        the processor is between items — the one moment a snapshot is
        consistent.
        """
        fence_passed = stage.fence_passed = asyncio.Event()

        async def fence() -> None:
            for channel in stage.upstream_wire:
                await channel.marked.wait()
            # A barrier, not an ordinary entry: it never rides inside an
            # item chunk, so the stage sees it alone, after every item.
            await stage.inbox.put_barrier(_MigrateFence())
            await fence_passed.wait()

        waits = [asyncio.ensure_future(fence()), asyncio.ensure_future(stage.done.wait())]
        await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
        for task in waits:
            task.cancel()
        if not stage.migrated_away:
            # The stage completed (every input had shown EOS) or failed
            # before reaching the fence — nothing to move; the
            # coordinator drops the move and lets the ordinary
            # RESULT/ERROR path report.
            await send_frame(
                writer, FrameType.MIGRATE,
                encode_json({"phase": "finished", "stage": stage.name}),
            )
            return
        await send_frame(
            writer, FrameType.HANDOFF, encode_json(stage_checkpoint(stage).to_dict())
        )

    # -- peer (data) connections ---------------------------------------------

    async def _serve_peer(self, reader, writer, attach) -> None:
        """Serve one data connection from the transport callback.

        From ATTACH on, the connection's bytes bypass the StreamReader:
        the protocol parses them inside ``data_received`` and the frame
        callback below queues each DATA frame in the stage inbox right
        there, as one :class:`~repro.core.items.ItemRun` entry, so its
        items are in the inbox before the event loop runs anything else.
        The switch happens before ``attach`` grants the
        first credit, and a sender ships nothing before that grant.
        This coroutine only waits for the connection to end.

        A sender's last frame is its marker: EOS at the end of the
        stream, or DETACH when it leaves mid-stream (live migration), at
        which the channel detaches with its backlog still queued here.
        An end with neither is a dead peer and fails the stage.
        """
        body = attach.json()
        stream = body["stream"]
        channel = self._in_channels.get(stream)
        if channel is None:
            raise ProtocolError(f"ATTACH for undeclared channel {stream!r}")
        if channel.attached:
            raise ProtocolError(f"channel {stream!r} attached twice")
        stage = self._stages[channel.dst_stage]
        inbox = stage.inbox
        observe = stage.rate_estimator.observe
        elapsed = self.elapsed
        marked = False
        ended = asyncio.get_running_loop().create_future()

        def on_frames(frames: List[Any]) -> None:
            nonlocal marked
            for frame in frames:
                if frame.type is FrameType.DATA:
                    values, sizes = decode_payload_columns(frame.payload)
                    now = elapsed()
                    inbox.put_nowait(ItemRun(values, sizes, now, stream))
                    observe(now, float(len(values)))
                elif frame.type is FrameType.EOS:
                    marked = True
                    inbox.put_nowait(EndOfStream(origin=stream))
                    channel.marked.set()
                elif frame.type is FrameType.DETACH:
                    marked = True
                    channel.detach(inbox.queued_from(stream))
                else:
                    raise ProtocolError(
                        f"unexpected {frame.type.name} frame on data channel "
                        f"{stream!r}"
                    )

        def on_close(error: Optional[BaseException]) -> None:
            if not ended.done():
                ended.set_result(error)

        writer.transport.get_protocol().divert(on_frames, on_close)
        channel.attach(writer)
        error = await ended
        if error is not None and not isinstance(error, ConnectionError):
            # A framing error (bad CRC, a frame cut off by EOF, ...): the
            # stream cannot be resynchronised and its items are lost.
            self._fail_stage(stage, f"data channel {stream!r}: {error}")
        elif not marked:
            # The sender vanished mid-stream.  Waiting for an EOS that
            # can never arrive would hang the whole run.
            self._fail_stage(stage, f"data channel {stream!r} closed before EOS")

    def _fail_stage(self, stage: _HostedStage, reason: str) -> None:
        """Fail ``stage`` so the worker reports ERROR and the coordinator
        aborts the run."""
        if stage.error is None:
            stage.error = WorkerError(reason)
        stage.done.set()
        if self._failure is not None:
            self._failure.set()

    def _failed_stages(self) -> List[_HostedStage]:
        """Hosted stages that failed (a moved-away copy is not hosted)."""
        return [
            s for s in self._stages.values()
            if s.error is not None and not s.migrated_away
        ]


def _announce_on_stdout(line: str) -> None:
    """Announce with one ``os.write``, then let go of stdout.

    Workers forked from one interpreter share one stdout pipe; a single
    write of a short line is atomic, so their lines never interleave.  A
    worker has nothing more to say there, so it points its stdout at
    ``/dev/null``: once every worker has announced, the pipe reaches
    end-of-file, and a worker that died before announcing shows as
    end-of-file at once rather than as a wait.
    """
    os.write(sys.stdout.fileno(), line.encode())
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _preload() -> CodeRepository:
    """Do once, before :func:`_fork_workers`, what every worker of this
    process would otherwise do on its own: build the built-in repository
    (importing every built-in application) for REGISTER, and import the
    deterministic-context module START warms.  Returns the repository."""
    import repro.ledger.context  # noqa: F401

    return builtin_repository()


def _fork_workers(count: int) -> Tuple[int, List[int]]:
    """Fork ``count - 1`` copies of this process: ``(index, forks)``.

    The calling process keeps index 0 and the forks' pids, which it must
    reap; a fork gets its own index and no pids.  Called before any
    thread or event loop exists, so a fork starts with this
    interpreter's imports done and nothing running.
    """
    forks: List[int] = []
    for index in range(1, count):
        pid = os.fork()
        if pid == 0:
            return index, []
        forks.append(pid)
    return 0, forks


def main(argv: Optional[List[str]] = None) -> NoReturn:
    """``python -m repro.net.worker`` / ``repro worker`` entry point.

    One process serves one worker per ``--name``: it imports once (with
    :func:`_preload`), forks a copy for every name after the first, and
    each process serves its own.  Every process leaves with
    ``os._exit`` once its standard streams are flushed, the first only
    after it has reaped every fork, so the forks' CPU time reaches
    whoever waits for the first.
    """
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Run repro.net worker processes (GATES service "
        "containers) and wait for a coordinator: one per --name, forked "
        "from this process after its imports.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to bind (default 0: ephemeral, "
                        "announced on stdout; several workers need 0)")
    parser.add_argument("--name", action="append", default=None,
                        help="fallback worker name until the coordinator "
                        "assigns one (default 'worker'); repeat for one "
                        "more worker each")
    parser.add_argument("--uds", action="append", default=None, metavar="PATH",
                        help="also listen on this UNIX-domain socket and "
                        "announce it (co-located fast path; ignored on "
                        "platforms without AF_UNIX); once per --name")
    args = parser.parse_args(argv)
    names = args.name or ["worker"]
    sockets = args.uds or []
    if sockets and len(sockets) != len(names):
        parser.error("give --uds once per --name, or not at all")
    if len(names) > 1 and args.port:
        parser.error("several workers cannot share one --port; use --port 0")
    if len(names) > 1 and not hasattr(os, "fork"):
        parser.error("several workers need os.fork; start one process per worker")
    repository = _preload()
    index, forks = _fork_workers(len(names))
    worker = Worker(
        host=args.host, port=args.port, name=names[index], repository=repository,
        uds_path=sockets[index] if sockets else None,
    )
    code = 0
    try:
        asyncio.run(worker.serve())
    except KeyboardInterrupt:
        code = 130
    except Exception:
        traceback.print_exc()
        code = 1
    for pid in forks:
        os.waitpid(pid, 0)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
