"""The coordinator: deploys an AppConfig onto real worker OS processes.

This is the networked counterpart of the simulated
:class:`~repro.grid.deployer.Deployer` + runtime pair: the same
:class:`~repro.grid.config.AppConfig` describes the application, the
same :class:`~repro.grid.matchmaker.Matchmaker` decides placement (the
worker fleet is modeled as a full-mesh grid so ``near:`` hints and
core-count requirements keep working), and the result is the same
:class:`~repro.core.results.RunResult` — but the stages run in separate
OS processes connected by TCP, with credit-based flow control per stream
and the Section 4 adaptation loop executing inside each worker.

Lifecycle driven by :meth:`NetworkedRuntime.run`:

1. spawn the local workers as one ``python -m repro.net.worker --port 0``
   process, which imports once and forks one copy per further worker,
   and read each worker's ``REPRO-NET-WORKER <port> <name> <pid>``
   announce line — or attach to externally started workers given as
   ``(host, port)`` pairs;
2. HELLO each worker (assigning its name, adaptation policy, time
   scale, and credit window), then PING a few times to seed the
   ``net.{worker}.rtt`` histogram;
3. REGISTER every stage on its matched worker and declare every edge
   with CHANNEL frames — ``local`` when both ends share a worker, an
   ``in``/``out`` pair across workers, and ``in`` on the target worker
   for every coordinator-fed source binding;
4. barrier with SYNC/READY (all inbound channels must exist before any
   worker dials out), then START everyone;
5. feed the source bindings over the coordinator's own credit-bounded
   :class:`~repro.net.channels.OutChannel` connections;
6. once the feeders drain, broadcast "collect" (MIGRATE), read one
   RESULT (or ERROR) frame per worker, merge every worker's metrics
   registry into the coordinator's, SHUTDOWN the fleet, and report the
   run with the kernel's :func:`~repro.core.kernel.run_report`.
"""

from __future__ import annotations

import asyncio
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.batching import BatchPolicy
from repro.core.items import EndOfStream, ItemRun
from repro.core.kernel import WAIT, SourceBinding, check_binding, run_report, source_loop
from repro.core.results import RunResult
from repro.core.run import RunOptions, take
from repro.core.options import StageOptions, stage_options
from repro.core.sharding import SHARD_SEPARATOR, ShardGroup, groups_of
from repro.grid.admission import admit
from repro.grid.config import AppConfig
from repro.grid.matchmaker import Matchmaker
from repro.grid.registry import ServiceRegistry
from repro.net.channels import OutChannel
from repro.net.debug import install_task_dump
from repro.net.protocol import (
    FrameType,
    ProtocolError,
    cap_read_buffer,
    encode_json,
    parse_announce,
    read_frame,
    send_frame,
)
from repro.resilience.migration import MigrationPlan, MigrationReport, book_move
from repro.simnet.engine import Environment
from repro.simnet.topology import Network
from repro.simnet.trace import TimeSeries

__all__ = ["NetworkedRuntime", "NetworkedRuntimeError"]

#: Worker-fleet link speed used only for matchmaking (real transfers go
#: over loopback TCP; this just satisfies min-bandwidth requirements).
_MESH_BANDWIDTH = 1e9

_PING_ROUNDS = 3

#: Seconds a clean run waits for its spawned workers to exit after
#: SHUTDOWN before it kills them.
_EXIT_BOUND = 2.0


class NetworkedRuntimeError(Exception):
    """Raised for deployment or protocol failures in the networked runtime."""


def _read_announces(
    stdout: int, pending: Dict[str, "_WorkerHandle"], deadline: float
) -> None:
    """Fill each pending handle from its worker's announce line.

    The lines arrive on one pipe, whole and in any order.  End of file
    (every live worker has announced and let go of the pipe) or the
    deadline with a worker still pending fails the run naming it."""
    buffered = b""
    while pending:
        ready, _, _ = select.select([stdout], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(stdout, 4096) if ready else b""
        if not chunk:
            got = f" (got {buffered!r})" if buffered else ""
            raise NetworkedRuntimeError(f"worker {', '.join(pending)} failed to announce{got}")
        *lines, buffered = (buffered + chunk).split(b"\n")
        for line in lines:
            try:
                name, port, _pid, uds = parse_announce(line.decode())
                handle = pending.pop(name)
            except (ValueError, KeyError):
                raise NetworkedRuntimeError(
                    f"worker {', '.join(pending)} failed to announce (got {line!r})"
                ) from None
            handle.port, handle.uds = port, uds


@dataclass
class _WorkerHandle:
    """One worker in the fleet: address and control socket."""

    name: str
    host: str
    port: int
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    #: UNIX-socket path the worker announced (spawned co-located workers
    #: only); advertised to peers as the fast path with TCP fallback.
    uds: Optional[str] = None


class NetworkedRuntime:
    """Run an :class:`AppConfig` across worker OS processes on localhost.

    ``workers`` is either a count (that many local workers are spawned,
    forked from one process, and reaped) or a list of ``(host, port)``
    pairs of already-running workers (started with ``repro worker --port
    N``).
    """

    def __init__(self, config: AppConfig, **options: Any) -> None:
        """``options`` are the net rows of :class:`~repro.core.run.RunOptions`;
        another row raises :class:`NetworkedRuntimeError`.  ``config`` is
        admitted here (:func:`~repro.grid.admission.admit` against
        ``repository``), before any worker process is spawned;
        ``verify=False`` skips its static-verifier gate.

        ``batch`` switches the data plane onto the micro-batched fast
        path: workers pack up to ``batch.max_items`` items per DATA
        frame (never holding a partial batch longer than
        ``batch.max_delay`` runtime seconds), the coordinator's source
        feeders do the same, and credit is still charged per item so
        the flow-control invariant is unchanged.  Stage properties
        ``batch-max-items`` / ``batch-max-delay`` override it per
        stage.

        ``migrations`` schedules planned live moves
        (:class:`~repro.resilience.migration.MigrationPlan`): each
        stage's senders detach at an item boundary, its state is handed
        off over MIGRATE/HANDOFF frames, and the senders dial the new
        worker mid-run (see docs/migration.md).  A plan not yet started
        when every source feeder has finished is dropped.  Completed moves land
        in :attr:`migrations` as
        :class:`~repro.resilience.migration.MigrationReport` records.
        The verify gate treats every planned stage as migration-enabled,
        so a class that cannot hand its state off (GA230) or a sharded
        target (GA231) is rejected before any worker spawns."""
        opts = take("net", NetworkedRuntimeError, options, ("admit", "build"))
        plans = list(opts.migrations or ())
        for plan in plans:
            if not isinstance(plan, MigrationPlan):
                raise NetworkedRuntimeError(
                    f"migrations must be MigrationPlan instances, got {plan!r}"
                )
        self.config, _ = admit(
            config, NetworkedRuntimeError, repository=opts.repository, verify=opts.verify,
            migrating=[plan.stage for plan in plans],
        )
        # Parsed here as well as on the workers, so an invalid option
        # fails before any worker spawns.
        self._options: Dict[str, StageOptions] = {}
        for stage in self.config.stages:
            try:
                self._options[stage.name] = stage_options(stage.properties)
            except ValueError as exc:
                raise NetworkedRuntimeError(f"stage {stage.name!r}: {exc}") from None
        self._groups: Dict[str, ShardGroup] = groups_of(self._options.values())
        self.workers_spec = opts.workers
        if isinstance(self.workers_spec, int) and not hasattr(os, "fork"):
            raise NetworkedRuntimeError(
                "spawned workers are forked from one process, and this platform "
                "has no os.fork: start each worker with `repro worker --port N` "
                "and pass workers=[(host, port), ...]"
            )
        self.policy = opts.policy
        self.adaptation_enabled = opts.adaptation_enabled
        self.time_scale = opts.time_scale
        self.credit_window = opts.credit_window
        self.batch = opts.batch
        self._uds_dir: Optional[str] = None
        #: The one process the spawned workers run in (``int`` workers only).
        self._process: Optional[subprocess.Popen] = None
        self.metrics = opts.metrics
        self._sources: List[SourceBinding] = []
        self._started = False
        #: stage name -> worker name, decided by the matchmaker at run().
        self.placement: Dict[str, str] = {}
        stage_names = {s.name for s in self.config.stages}
        for plan in plans:
            if plan.stage in self._groups or SHARD_SEPARATOR in plan.stage:
                raise NetworkedRuntimeError(
                    f"cannot migrate sharded stage {plan.stage!r}"
                )
            if plan.stage not in stage_names:
                raise NetworkedRuntimeError(
                    f"migration plan names unknown stage {plan.stage!r}"
                )
        #: Scheduled plans, executed in ``at`` order, one at a time (a
        #: plan firing while another runs waits its turn).
        self._migration_plans = sorted(plans, key=lambda p: p.at)
        #: Completed moves, in execution order.
        self.migrations: List[MigrationReport] = []
        #: Each source-feeder channel by stream name, resolved once it is
        #: connected, so a migration can detach and re-dial the
        #: coordinator's own data plane.
        self._feed_channels: Dict[str, "asyncio.Future[OutChannel]"] = {}

    def bind_source(
        self,
        name: str,
        target: str,
        payloads: Iterable[Any],
        rate: Optional[float] = None,
        item_size: Union[float, Callable[[Any], float]] = 8.0,
    ) -> None:
        """Attach an external stream to a stage or shard group, fed by the
        coordinator process: the fields of
        :class:`~repro.core.kernel.SourceBinding`, with ``rate`` in items
        per *scaled* second (None: as fast as the credit window allows)."""
        if self._started:
            raise NetworkedRuntimeError("cannot bind sources after run()")
        if name in {s.name for s in self.config.streams}:
            raise NetworkedRuntimeError(f"source binding {name!r} collides with a stream name")
        binding = SourceBinding(name, target, payloads, rate, item_size)
        check_binding(binding, self._options, NetworkedRuntimeError)
        self._sources.append(binding)

    # -- placement -----------------------------------------------------------

    @staticmethod
    def _matchmaker(worker_names: List[str]) -> Matchmaker:
        """A matchmaker over the worker fleet, modeled as a full mesh."""
        network = Network(Environment())
        for name in worker_names:
            network.create_host(name, cores=4)
        for i, a in enumerate(worker_names):
            for b in worker_names[i + 1:]:
                network.connect(a, b, bandwidth=_MESH_BANDWIDTH)
        registry = ServiceRegistry()
        registry.register_network(network)
        return Matchmaker(registry, allow_colocation=True)

    def _place(self, worker_names: List[str]) -> Dict[str, str]:
        """Matchmake stages onto the worker fleet."""
        requirements = [(s.name, s.requirement) for s in self.config.stages]
        try:
            return self._matchmaker(worker_names).match_all(requirements)
        except Exception as exc:
            raise NetworkedRuntimeError(f"resource matching failed: {exc}") from exc

    # -- worker process management -------------------------------------------

    def _spawn_workers(
        self, count: int, handles: List[_WorkerHandle], timeout: float
    ) -> None:
        """Launch ``count`` local workers from one process and read their ports.

        One ``python -m repro.net.worker`` process, given ``--name`` (and
        ``--uds``) once per worker, imports once and forks the others;
        each worker announces itself by name, in any order.  Every worker
        joins ``handles`` before the first line is read, so the caller
        takes them all down even when one fails to announce within
        ``timeout``."""
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        # Workers are quiet by default; REPRO_NET_WORKER_STDERR=inherit
        # surfaces their stderr (tracebacks, SIGUSR1 task dumps) for
        # debugging wedged runs.
        stderr = (
            None
            if env.get("REPRO_NET_WORKER_STDERR") == "inherit"
            else subprocess.DEVNULL
        )
        # Spawned workers are co-located, so each gets a UNIX-socket fast
        # path where the platform has AF_UNIX.  Externally attached
        # workers never do — they may be on other hosts — and TCP is
        # always the fallback anyway.
        use_uds = hasattr(socket, "AF_UNIX")
        if use_uds and self._uds_dir is None:
            # Short prefix: AF_UNIX paths are capped around ~100 bytes.
            self._uds_dir = tempfile.mkdtemp(prefix="repro-uds-")
        argv = [sys.executable, "-m", "repro.net.worker", "--port", "0"]
        pending: Dict[str, _WorkerHandle] = {}
        for i in range(count):
            name = f"worker-{i}"
            argv += ["--name", name]
            if use_uds:
                assert self._uds_dir is not None
                argv += ["--uds", os.path.join(self._uds_dir, f"w{i}.sock")]
            pending[name] = _WorkerHandle(name=name, host="127.0.0.1", port=0)
        handles += pending.values()
        # A process group of its own: a failed run kills the group, which
        # holds every fork, announced or not.  Python 3.10 has no
        # ``process_group`` and starts a session instead; where the kernel
        # schedules by session (Linux autogroup), that also takes the
        # workers out of this process's scheduling group.
        group: Dict[str, Any] = (
            {"process_group": 0} if sys.version_info >= (3, 11)
            else {"start_new_session": True}
        )
        self._process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, env=env, **group
        )
        assert self._process.stdout is not None
        try:
            _read_announces(
                self._process.stdout.fileno(), pending, time.monotonic() + timeout
            )
        finally:
            self._process.stdout.close()

    def _reap(self, clean: bool) -> None:
        """End the spawned workers' process.

        After a clean run the workers have their SHUTDOWN and exit on
        their own, the first process last, once it has reaped every fork:
        waiting for it (up to ``_EXIT_BOUND``) brings every worker's CPU
        time into this process's ``RUSAGE_CHILDREN``.  After a failed
        run, or past the bound, the process group is killed at once.
        """
        process, self._process = self._process, None
        if process is None:
            return
        if clean:
            try:
                process.wait(_EXIT_BOUND)
            except subprocess.TimeoutExpired:
                pass
        if process.returncode is None:
            # The unreaped first process pins the group id, so the
            # signal cannot reach anyone else's processes.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()

    # -- execution -----------------------------------------------------------

    def run(self, timeout: float = RunOptions.timeout) -> RunResult:
        """Deploy, execute to completion, and collect the merged result."""
        if self._started:
            raise NetworkedRuntimeError("run() may only be called once")
        self._started = True

        handles: List[_WorkerHandle] = []
        outcome: List[RunResult] = []

        async def main() -> None:
            # The result leaves through ``outcome``, not as this task's
            # result: on its way out ``asyncio.run`` restores SIGINT,
            # and CPython 3.11's ``signal.getsignal`` formats the
            # installed handler — a partial holding the main task, whose
            # repr holds its result — twice.
            outcome.append(
                await asyncio.wait_for(self._run_async(handles), timeout)
            )

        clean = False
        try:
            if isinstance(self.workers_spec, int):
                self._spawn_workers(self.workers_spec, handles, timeout)
            else:
                handles += [
                    _WorkerHandle(name=f"worker-{i}", host=host, port=port)
                    for i, (host, port) in enumerate(self.workers_spec)
                ]
            asyncio.run(main())
            clean = True
            return outcome[0]
        except asyncio.TimeoutError:
            raise NetworkedRuntimeError(
                f"networked run did not complete within {timeout}s"
            ) from None
        finally:
            self._reap(clean)
            if self._uds_dir is not None:
                shutil.rmtree(self._uds_dir, ignore_errors=True)
                self._uds_dir = None

    async def _run_async(self, handles: List[_WorkerHandle]) -> RunResult:
        install_task_dump("coordinator")
        self.placement = self._place([h.name for h in handles])
        by_name = {h.name: h for h in handles}

        # ``execution_time`` starts at the post-START barrier (re-stamped
        # below), matching the threaded runtime, which stamps its start
        # after the stage graph is built: the measured window is the run
        # itself, not the per-process control-plane handshake.
        run_started = time.monotonic()
        feeders: List["asyncio.Future[None]"] = []
        loop = asyncio.get_running_loop()
        self._feed_channels = {
            name: loop.create_future() for name, src, _ in self._edges() if src is None
        }
        try:
            for handle in handles:
                await self._hello(handle)
            for handle in handles:
                await self._ping(handle)
            await self._deploy(handles, by_name)
            # Barrier: every worker has all its InChannels declared before
            # any worker (or the coordinator) dials an outbound channel.
            for handle in handles:
                await self._expect_ready(handle, FrameType.SYNC, "synced")
            for handle in handles:
                await self._expect_ready(handle, FrameType.START, "started")
            run_started = time.monotonic()
            feeders = [asyncio.ensure_future(self._feed_source(b, by_name)) for b in self._sources]
            fed = asyncio.gather(*feeders)
            # Control RPCs and RESULT collection share each worker's
            # single control connection, so migrations run to completion
            # before any reader starts waiting on RESULT frames.  Workers
            # hold their results until the "collect" broadcast, sent once
            # the feeders drain: an adopted stage is then included, and a
            # spare worker does not report before it might adopt one.
            await self._run_migrations(by_name, run_started, fed)
            # Alongside the feeders, so a failing source — or a failing
            # stage, whose worker reports ERROR at once — ends the run at
            # once.
            results, _ = await asyncio.gather(
                asyncio.gather(*(self._collect_result(h) for h in handles)),
                self._collect_after(fed, handles),
            )
        finally:
            for feeder in feeders:
                feeder.cancel()  # when the run failed, stops the other sources
            for handle in handles:
                await self._shutdown(handle)
            for connected in self._feed_channels.values():
                if connected.done():  # a no-op once a feeder closed it
                    await connected.result().close(linger=0.0)
        elapsed = time.monotonic() - run_started

        finals: Dict[str, Any] = {}
        for handle, body in zip(handles, results):
            finals.update(body.get("finals", {}))
            self._merge_registry(body.get("metrics", {}), handle.name)
        return run_report(
            RunResult(app_name=self.config.name), self.metrics, elapsed,
            {stage.name: self.placement[stage.name] for stage in self.config.stages},
            finals, self._groups,
        )

    # -- control-plane steps --------------------------------------------------

    async def _hello(self, handle: _WorkerHandle) -> None:
        try:
            handle.reader, handle.writer = await asyncio.open_connection(
                handle.host, handle.port
            )
        except OSError as exc:
            raise NetworkedRuntimeError(
                f"cannot reach worker {handle.name} at "
                f"{handle.host}:{handle.port}: {exc}"
            ) from exc
        cap_read_buffer(handle.writer)
        await send_frame(
            handle.writer,
            FrameType.HELLO,
            encode_json({
                "worker": handle.name,
                "time_scale": self.time_scale,
                "credit_window": self.credit_window,
                "adaptation": self.adaptation_enabled,
                "policy": asdict(self.policy),
                "batch": (
                    {
                        "max_items": self.batch.max_items,
                        "max_delay": self.batch.max_delay,
                    }
                    if self.batch is not None and self.batch.enabled
                    else None
                ),
            }),
        )
        reply = await self._next_frame(handle)
        if reply.type is not FrameType.HELLO:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: expected HELLO reply, "
                f"got {reply.type.name}"
            )

    async def _ping(self, handle: _WorkerHandle) -> None:
        rtt = self.metrics.histogram(f"net.{handle.name}.rtt")
        assert handle.writer is not None
        for seq in range(_PING_ROUNDS):
            sent = time.monotonic()
            await send_frame(
                handle.writer, FrameType.PING, encode_json({"seq": seq})
            )
            reply = await self._next_frame(handle)
            if reply.type is not FrameType.PONG:
                raise NetworkedRuntimeError(
                    f"worker {handle.name}: expected PONG, got {reply.type.name}"
                )
            rtt.observe(time.monotonic() - sent)

    async def _deploy(
        self,
        handles: List[_WorkerHandle],
        by_name: Dict[str, _WorkerHandle],
    ) -> None:
        """Ship REGISTER and CHANNEL frames reflecting the placement."""
        for stage in self.config.stages:
            await self._register(by_name[self.placement[stage.name]], stage.name)
        for edge in self._edges():
            for worker, body in self._channel_bodies(by_name, *edge):
                await self._declare_channel(by_name[worker], body)

    async def _register(self, handle: _WorkerHandle, stage_name: str) -> None:
        """Send ``handle``'s worker the REGISTER frame of one stage."""
        stage = self.config.stage(stage_name)
        assert handle.writer is not None
        await send_frame(handle.writer, FrameType.REGISTER, encode_json({
            "stage": stage.name, "code": stage.code_url, "properties": stage.properties,
        }))

    def _edges(self) -> List[Tuple[str, Optional[str], str]]:
        """Every data edge as ``(stream, src, dst)``: the configuration's
        streams, then each source binding's channels (``src`` None: the
        coordinator feeds them)."""
        edges: List[Tuple[str, Optional[str], str]] = [
            (s.name, s.src, s.dst) for s in self.config.streams
        ]
        for binding in self._sources:
            edges += [(name, None, target) for name, target in self._source_channels(binding)]
        return edges

    def _channel_bodies(
        self, by_name: Dict[str, _WorkerHandle], stream: str, src: Optional[str], dst: str,
        wire: bool = False,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """The CHANNEL declarations of one edge under the current
        placement, as ``(worker, body)`` pairs: ``local`` when both ends
        share a worker (and ``wire`` is not asked for), else ``in`` on
        the receiving worker and — unless the coordinator feeds it —
        ``out`` on the sending one.  A sending end carries the
        destination's properties, so a worker sending into a shard-group
        replica can collapse the per-replica edges into one
        key-partitioned route."""
        dst_worker = self.placement[dst]
        properties = self.config.stage(dst).properties
        if src is not None and self.placement[src] == dst_worker and not wire:
            return [(dst_worker, {
                "kind": "local", "stream": stream, "src": src, "dst": dst,
                "dst_properties": properties,
            })]
        bodies = [(dst_worker, {
            "kind": "in", "stream": stream, "dst": dst, "window": self.credit_window,
        })]
        if src is not None:
            peer = by_name[dst_worker]
            bodies.append((self.placement[src], {
                "kind": "out", "stream": stream, "src": src, "dst": dst,
                "peer_host": peer.host, "peer_port": peer.port, "peer_uds": peer.uds,
                "dst_properties": properties,
            }))
        return bodies

    @staticmethod
    async def _declare_channel(handle: _WorkerHandle, body: Dict[str, Any]) -> None:
        """Send one CHANNEL declaration to ``handle``'s worker."""
        assert handle.writer is not None
        await send_frame(handle.writer, FrameType.CHANNEL, encode_json(body))

    def _source_channels(self, binding: SourceBinding) -> List[Tuple[str, str]]:
        """The (stream name, target stage) pairs one source binding feeds.

        A stage-bound source is one channel; a group-bound source gets
        one channel per replica slot, suffixed like the expanded streams.
        """
        group = self._groups.get(binding.target_stage)
        if group is None:
            return [(binding.name, binding.target_stage)]
        return [
            (f"{binding.name}{SHARD_SEPARATOR}{slot}", member)
            for slot, member in enumerate(group.members)
        ]

    async def _expect_ready(
        self, handle: _WorkerHandle, request: FrameType, phase: str
    ) -> None:
        assert handle.writer is not None
        await send_frame(handle.writer, request, encode_json({}))
        reply = await self._next_frame(handle)
        if reply.type is not FrameType.READY or reply.json().get("phase") != phase:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: expected READY/{phase}, "
                f"got {reply.type.name}"
            )

    async def _next_frame(self, handle: _WorkerHandle):
        assert handle.reader is not None
        try:
            frame = await read_frame(handle.reader)
        except ProtocolError as exc:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: protocol error: {exc}"
            ) from exc
        if frame is None:
            raise NetworkedRuntimeError(
                f"worker {handle.name} closed the control connection"
            )
        if frame.type is FrameType.ERROR:
            raise NetworkedRuntimeError(
                f"worker {handle.name} reported: {frame.json().get('error')}"
            )
        return frame

    @staticmethod
    async def _collect_after(fed: Awaitable[Any], handles: List[_WorkerHandle]) -> None:
        """Broadcast the "collect" release once ``fed`` (the feeders) is done."""
        await fed
        for handle in handles:
            assert handle.writer is not None
            await send_frame(
                handle.writer, FrameType.MIGRATE, encode_json({"action": "collect"}),
            )

    async def _collect_result(self, handle: _WorkerHandle) -> Dict[str, Any]:
        frame = await self._next_frame(handle)
        if frame.type is not FrameType.RESULT:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: expected RESULT, got {frame.type.name}"
            )
        return frame.json()

    async def _shutdown(self, handle: _WorkerHandle) -> None:
        if handle.writer is None:
            return
        try:
            await send_frame(handle.writer, FrameType.SHUTDOWN, encode_json({}))
            handle.writer.close()
            await handle.writer.wait_closed()
        except (ConnectionError, ProtocolError, OSError):
            pass
        handle.writer = None
        handle.reader = None

    # -- live migration (docs/migration.md) ------------------------------------

    async def _run_migrations(
        self, by_name: Dict[str, _WorkerHandle], run_started: float, fed: "asyncio.Future[Any]"
    ) -> None:
        """Execute the scheduled plans, one at a time, in ``at`` order.

        A plan not started by the time ``fed`` (every source feeder)
        is done is dropped: nothing more enters the run, and waiting for
        its ``at`` would only hold the run open.
        """
        for plan in self._migration_plans:
            delay = plan.at * self.time_scale - (time.monotonic() - run_started)
            if delay > 0:
                await asyncio.wait([fed], timeout=delay)
            if fed.done():
                return
            await self._migrate_stage(plan, by_name, run_started)

    async def _migrate_rpc(
        self, handle: _WorkerHandle, body: Dict[str, Any], phase: str
    ) -> Dict[str, Any]:
        """One MIGRATE request/response exchange with a worker."""
        assert handle.writer is not None
        await send_frame(handle.writer, FrameType.MIGRATE, encode_json(body))
        reply = await self._next_frame(handle)
        if reply.type is not FrameType.MIGRATE:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: expected MIGRATE/{phase}, "
                f"got {reply.type.name}"
            )
        decoded = reply.json()
        if decoded.get("phase") != phase:
            raise NetworkedRuntimeError(
                f"worker {handle.name}: expected MIGRATE phase {phase!r}, "
                f"got {decoded.get('phase')!r}"
            )
        return decoded

    async def _migrate_stage(
        self,
        plan: MigrationPlan,
        by_name: Dict[str, _WorkerHandle],
        run_started: float,
    ) -> None:
        """Move one live stage to another worker with a bounded pause.

        Four phases over the control plane (the worker side is
        :meth:`~repro.net.worker.Worker._handle_migrate`), then the
        run's usual *collect* (see :meth:`_run_async`):

        1. *detach* — every sender feeding the stage (upstream workers
           and the coordinator's own source feeders) parks at an item
           boundary, writes a DETACH marker behind its last item and
           closes; a sender that already sent EOS has nothing to leave;
        2. *export* — the old worker fences the stage once every input
           has shown its marker (DETACH or EOS), the stage detaches its
           own out-channels, and its state comes back (HANDOFF);
        3. *adopt* — the target worker gets the stage's REGISTER and
           CHANNEL frames, as at deployment, then hosts it from the
           handoff and dials its outbound channels;
        4. *resume* — every detached sender dials the new worker and
           continues exactly where it stopped (the new connection's
           window is fresh, so no item is lost or duplicated).

        If the stage finishes before the fence (every input had already
        shown EOS), export reports ``finished``: no sender detached, and
        the ordinary completion path reports the stage where it ran.
        """
        stage_name = plan.stage
        source_name = self.placement[stage_name]
        source = by_name[source_name]
        edges = [e for e in self._edges() if stage_name in e[1:]]
        for stream, src, dst in edges:
            other = src if dst == stage_name else dst
            if other is not None and self.placement[other] == source_name:
                raise NetworkedRuntimeError(
                    f"cannot migrate {stage_name!r}: stream {stream!r} "
                    f"is worker-local (colocated with {other!r})"
                )
        target_name = plan.target or self._select_target(stage_name, by_name)
        if target_name not in by_name:
            raise NetworkedRuntimeError(
                f"migration target {target_name!r} is not a worker"
            )
        if target_name == source_name:
            raise NetworkedRuntimeError(
                f"stage {stage_name!r} is already on {source_name!r}"
            )
        target = by_name[target_name]
        t0 = time.monotonic()

        # Phase 1: every sender of the stage's inputs detaches.
        upstream: Dict[str, List[str]] = {}
        feeds: List[OutChannel] = []
        for stream, src, dst in edges:
            if dst != stage_name:
                continue
            if src is None:
                feeds.append(await self._feed_channels[stream])
            else:
                upstream.setdefault(self.placement[src], []).append(stream)
        for worker_name, streams in upstream.items():
            await self._migrate_rpc(
                by_name[worker_name], {"action": "detach", "streams": streams}, "detached"
            )
        await asyncio.gather(*(channel.detach() for channel in feeds))

        # Phase 2: fence the stage and export its state.
        assert source.writer is not None
        await send_frame(
            source.writer, FrameType.MIGRATE,
            encode_json({"action": "export", "stage": stage_name}),
        )
        reply = await self._next_frame(source)
        if reply.type is FrameType.MIGRATE and reply.json().get("phase") == "finished":
            return
        if reply.type is not FrameType.HANDOFF:
            raise NetworkedRuntimeError(
                f"worker {source.name}: expected HANDOFF, "
                f"got {reply.type.name}"
            )

        # Phase 3: the target worker hosts the stage from the handoff.
        self.placement[stage_name] = target_name
        await self._register(target, stage_name)
        for stream, src, dst in edges:
            bodies = self._channel_bodies(by_name, stream, src, dst, wire=True)
            await self._declare_channel(target, bodies[0 if dst == stage_name else 1][1])
        await self._migrate_rpc(
            target, {"action": "adopt", "stage": stage_name, "checkpoint": reply.json()},
            "adopted",
        )

        # Phase 4: every detached sender dials the new worker.
        for worker_name, streams in upstream.items():
            await self._migrate_rpc(
                by_name[worker_name],
                {"action": "resume", "streams": streams,
                 "host": target.host, "port": target.port, "uds": target.uds},
                "resumed",
            )
        await asyncio.gather(*(
            channel.dial(target.host, target.port, target.uds)
            for channel in feeds if channel.detached
        ))

        pause_seconds = (time.monotonic() - t0) / self.time_scale
        requested_at = (t0 - run_started) / self.time_scale
        book_move(
            MigrationReport(
                stage=stage_name,
                from_host=source_name,
                to_host=target_name,
                trigger="planned",
                requested_at=requested_at,
                completed_at=requested_at + pause_seconds,
                pause_seconds=pause_seconds,
            ),
            self.metrics,
            self.migrations,
        )

    def _select_target(
        self, stage_name: str, by_name: Dict[str, _WorkerHandle]
    ) -> str:
        """Matchmake a destination worker, mirroring :meth:`_place`.

        The fleet is re-modeled as a full mesh and the current worker is
        always excluded.  :meth:`~repro.grid.matchmaker.Matchmaker.match_relaxed`
        (the Migrator's and Redeployer's rule) relaxes a pin it cannot
        honour; it runs first with every worker already hosting a stage
        excluded too, so an unoccupied worker is preferred.
        """
        current = self.placement[stage_name]
        requirement = self.config.stage(stage_name).requirement
        matchmaker = self._matchmaker(list(by_name))
        occupied = {w for s, w in self.placement.items() if s != stage_name}
        try:
            return matchmaker.match_relaxed(requirement, {current} | occupied, strict=True)
        except Exception:
            try:
                return matchmaker.match_relaxed(requirement, {current}, strict=True)
            except Exception as exc:
                raise NetworkedRuntimeError(
                    f"no migration target for stage {stage_name!r}: {exc}"
                ) from exc

    # -- data plane ------------------------------------------------------------

    async def _feed_source(
        self, binding: SourceBinding, by_name: Dict[str, _WorkerHandle]
    ) -> None:
        """Interpret the kernel's :func:`source_loop` over one
        credit-bounded channel per target slot; under a batch policy the
        loop hands over each slot's arrivals as one ``ItemRun`` per DATA
        frame.  A source that raises
        fails the run with its channels still open, so no worker reports
        the cut stream first; :meth:`_run_async` closes them once the
        workers are torn down."""
        channels: List[OutChannel] = []
        for stream_name, target in self._source_channels(binding):
            handle = by_name[self.placement[target]]
            channel = OutChannel(
                stream_name,
                target,
                handle.host,
                handle.port,
                self.metrics,
                clock=time.monotonic,
                uds_path=handle.uds,
            )
            await channel.connect()
            channels.append(channel)
            # Visible to _migrate_stage, which detaches and re-dials the
            # feeder's channels when their target stage moves.
            self._feed_channels[stream_name].set_result(channel)
        batch = None
        if self.batch is not None and self.batch.enabled:
            # The feeder runs on the wall clock, so pre-scale the age
            # bound the same way the workers do.
            batch = BatchPolicy(self.batch.max_items, self.batch.max_delay * self.time_scale)
        try:
            for effect in source_loop(
                binding, self._groups, time.monotonic, self.metrics,
                time_scale=self.time_scale, batch=batch,
            ):
                if effect[0] is WAIT:
                    await asyncio.sleep(effect[1])
                    continue
                _, slot, message = effect
                channel = channels[slot]
                if type(message) is ItemRun:
                    await channel.send_columns(message.values, message.sizes)
                elif type(message) is EndOfStream:
                    await channel.send_eos()
                else:
                    await channel.send(message.payload, message.size)
        except Exception as exc:
            raise NetworkedRuntimeError(f"source {binding.name!r} failed: {exc!r}") from exc
        for channel in channels:
            await channel.close()

    # -- metrics merge ---------------------------------------------------------

    def _merge_registry(self, data: Dict[str, Any], worker: str) -> None:
        """Fold the registry ``worker`` exported into the coordinator's.

        Counters add, gauges overwrite, histogram samples (packed, see
        :meth:`Histogram.to_wire`) append, series adopt the shipped
        trajectory (merged by time with another worker's of that name).
        A stage's gauge (``<family>.<stage>.<name>``) is taken only from
        the worker hosting the stage at the end of the run: a worker
        the stage moved away from still holds its last, stale value.
        Whole-run metrics are skipped (the coordinator owns ``run.*``),
        and sender-side-only accounting in the workers means ``net.*``
        families never double-count.
        """
        for name, payload in data.items():
            if name.startswith("run."):
                continue
            kind = payload["kind"]
            if kind == "counter":
                self.metrics.counter(name).inc(payload["value"])
            elif kind == "gauge":
                stage = name.partition(".")[2].rpartition(".")[0]
                if self.placement.get(stage, worker) == worker:
                    self.metrics.gauge(name).set(payload["value"])
            elif kind == "histogram":
                try:
                    self.metrics.histogram(name).extend_wire(payload)
                except (KeyError, TypeError, ValueError) as exc:
                    raise NetworkedRuntimeError(
                        f"malformed histogram {name!r} in RESULT: {exc!r}"
                    ) from exc
            elif kind == "series":
                incoming = TimeSeries.from_dict(payload["series"])
                if name in self.metrics:
                    # Two workers exported the same trajectory — a stage
                    # that migrated mid-run recorded on both: merge the
                    # samples by time, whatever order the workers report.
                    metric = self.metrics.get(name)
                    samples = sorted([*metric.series, *incoming], key=lambda sample: sample[0])
                    metric.series = TimeSeries(incoming.name)
                    for t, v in samples:
                        metric.series.record(t, v)
                else:
                    self.metrics.series(name, incoming)
            else:
                raise NetworkedRuntimeError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )
