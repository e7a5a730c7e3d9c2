"""Data-channel building blocks: inboxes and credit-flow-controlled wires.

One stream edge between stages on different workers becomes a dedicated
socket: the sender's :class:`OutChannel` dials the receiving worker —
over a UNIX-domain socket when the coordinator advertised one (the
co-located fast path; see docs/performance.md) with transparent TCP
fallback — announces itself with an ATTACH frame, and then ships DATA
frames downstream while CREDIT and EXCEPTION frames flow back upstream
on the same socket (full duplex, exactly the paper's inter-server
arrangement where load exceptions travel against the data).

Flow control is credit-based: the receiver grants an initial window of
``window`` *items* and replenishes in batches as its stage consumes
them.  Credit is charged per item — a batched DATA frame carrying n
items costs n credits — so the invariant is independent of framing: at
most ``window`` items are ever in flight, and backpressure is explicit
and bounded rather than hidden in socket buffers.  The sender blocks
(`net.{channel}.credit_stalls`) when the window is exhausted;
``net.{channel}.in_flight_peak`` records the observed maximum.

The send path is zero-copy: each DATA frame is built once in a
:func:`repro.net.protocol.new_frame_buffer` (payload encoded straight
into the buffer, header packed in place by ``finish_frame``) and handed
to the transport as a single gathered write — one buffer and one
``write()`` per frame regardless of batch size.  A send with its
credits on hand and nothing in its way writes without awaiting at all
(:meth:`OutChannel._ship_now`); any other send awaits the credit, pause
and drain discipline of :meth:`OutChannel._ship`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Dict, Optional, Union

from repro.net.protocol import (
    FrameType,
    ProtocolError,
    cap_read_buffer,
    encode_frame,
    encode_json,
    encode_payload_batch_into,
    encode_payload_into,
    finish_frame,
    new_frame_buffer,
    read_frame,
    send_frame,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "AsyncInbox",
    "BACKCHANNEL_HIGH_WATERMARK",
    "ChannelError",
    "InChannel",
    "OutChannel",
]

#: Outstanding backchannel bytes (CREDIT/EXCEPTION frames toward a
#: sender) past which the receiver awaits ``drain()`` before writing
#: more.  Credit frames are tiny, so a healthy peer never gets near
#: this; a stalled peer stops accumulating transport buffer at ~256 KiB
#: instead of growing without bound.
BACKCHANNEL_HIGH_WATERMARK = 256 * 1024


class ChannelError(Exception):
    """Raised when a data channel breaks mid-stream."""


class _Barrier:
    """A :meth:`AsyncInbox.put_barrier` entry, unwrapped on delivery."""

    __slots__ = ("entry",)

    def __init__(self, entry: Any) -> None:
        self.entry = entry


def _wake_one(waiters: deque) -> None:
    """Resolve the first still-pending waiter future in ``waiters``."""
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            return


async def _park(waiters: deque, passes_on: Callable[[], bool]) -> None:
    """Wait on a fresh future queued in ``waiters`` until it is resolved.

    If the wait is cancelled after the future was resolved (a
    ``wait_for`` timeout landing in the same loop iteration as the
    wakeup), the wakeup is handed to the next waiter when
    ``passes_on()`` says there is still something for it.
    """
    waiter = asyncio.get_running_loop().create_future()
    waiters.append(waiter)
    try:
        await waiter
    except BaseException:
        waiter.cancel()
        try:
            waiters.remove(waiter)
        except ValueError:
            pass
        if not waiter.cancelled() and passes_on():
            _wake_one(waiters)
        raise


class AsyncInbox:
    """A stage's input queue, satisfying the estimator's QueueLike protocol.

    Two producer paths: local routes ``put`` (blocking while full — the
    in-process backpressure), and wire channels ``put_nowait`` /
    ``put_many_nowait`` (synchronous and never refused: the credit
    window already bounds what a remote sender can have outstanding, and
    in-flight data cannot be un-sent — the same reasoning as the
    simulated runtime's ``force_put``).  The worker calls the synchronous
    pair from the transport's ``data_received``, so a received frame's
    items are queued before the event loop runs anything else.

    One event-loop thread owns the inbox, so it needs no lock: a deque
    of entries plus FIFO queues of getter and putter futures, each
    wakeup resolving exactly one waiter that can make progress.  A
    woken consumer that leaves entries behind wakes the next one; a
    woken producer that leaves room wakes the next producer.  No entry
    is taken before a consumer's last suspension, so cancelling a
    ``get``/``get_many`` (a ``wait_for`` timeout) never loses one.

    ``put_barrier`` appends a plain FIFO entry that ``get_many`` never
    mixes into an item chunk: it is delivered alone, after every entry
    enqueued before it (the live-migration fence).
    """

    def __init__(self, capacity: int, window: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: deque = deque()
        self._recent: deque = deque([0], maxlen=window)
        self._getters: deque = deque()
        self._putters: deque = deque()

    def _record(self) -> None:
        self._recent.append(len(self._entries))

    def _has_room(self) -> bool:
        return len(self._entries) < self.capacity

    def _has_entries(self) -> bool:
        return bool(self._entries)

    def put_nowait(self, entry: Any) -> None:
        """Append ``entry`` past any capacity and wake one consumer."""
        self._entries.append(entry)
        self._record()
        if self._getters:
            _wake_one(self._getters)

    def put_many_nowait(self, entries: "list") -> None:
        """Append a whole batch and wake one consumer.

        One queue-length sample for the batch, matching the threaded
        runtime's batched-handoff semantics (a burst is one observation,
        not n zero-gap ones).
        """
        if not entries:
            return
        self._entries.extend(entries)
        self._record()
        if self._getters:
            _wake_one(self._getters)

    async def put(self, entry: Any) -> None:
        while len(self._entries) >= self.capacity:
            await _park(self._putters, self._has_room)
        self.put_nowait(entry)
        if self._putters and self._has_room():
            _wake_one(self._putters)

    async def force_put(self, entry: Any) -> None:
        self.put_nowait(entry)

    async def force_put_many(self, entries: "list") -> None:
        self.put_many_nowait(entries)

    async def put_barrier(self, entry: Any) -> None:
        """Enqueue ``entry`` to be delivered alone, never inside a chunk."""
        self.put_nowait(_Barrier(entry))

    def _taken(self) -> None:
        """Bookkeeping after a consumer took entries: sample the length,
        and pass the wakeups on."""
        self._record()
        if self._entries and self._getters:
            _wake_one(self._getters)
        if self._putters:
            _wake_one(self._putters)

    async def get(self) -> Any:
        entries = self._entries
        while not entries:
            await _park(self._getters, self._has_entries)
        entry = entries.popleft()
        self._taken()
        return entry.entry if type(entry) is _Barrier else entry

    async def get_many(self, max_items: int) -> "list":
        """Await the first entry, then drain up to ``max_items`` without
        further waiting — the consumer-side half of the batched handoff
        (one event-loop suspension per chunk instead of per item).
        A barrier is never mixed into an item chunk: it is returned
        alone, once the entries before it have been taken."""
        entries = self._entries
        while not entries:
            await _park(self._getters, self._has_entries)
        if type(entries[0]) is _Barrier:
            out = [entries.popleft().entry]
        elif max_items == 1 or len(entries) == 1:
            out = [entries.popleft()]
        else:
            out = []
            while entries and len(out) < max_items and type(entries[0]) is not _Barrier:
                out.append(entries.popleft())
        self._taken()
        return out

    @property
    def current_length(self) -> int:
        return len(self._entries)

    @property
    def recent_average(self) -> float:
        return sum(self._recent) / len(self._recent)


class InChannel:
    """Receiver-side endpoint of a wire channel: grants and replenishes credit.

    Created when the coordinator declares the channel (CHANNEL frame,
    kind="in"); the socket arrives later, when the remote sender dials in
    with ATTACH.  Credit is replenished in batches of ``window // 2`` (at
    least 1): on a busy pipeline every credit frame costs a syscall and
    a cross-process wakeup, so half-window batches halve that traffic
    while the outstanding half-window keeps the sender from starving.

    Backchannel writes (CREDIT/EXCEPTION) are fire-and-forget so stage
    loops never await a slow upstream inline — but once the transport
    buffer crosses :data:`BACKCHANNEL_HIGH_WATERMARK` the owner must
    await :meth:`drain` before more items are consumed (the worker
    checks :meth:`needs_drain` after each ``note_consumed``), bounding
    what a stalled peer can pin in memory.
    """

    def __init__(self, stream: str, dst_stage: str, window: int) -> None:
        if window < 1:
            raise ValueError(f"credit window must be >= 1, got {window}")
        self.stream = stream
        self.dst_stage = dst_stage
        self.window = window
        self.replenish_batch = max(1, window // 2)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._consumed = 0

    @property
    def attached(self) -> bool:
        return self._writer is not None

    def detach(self) -> None:
        """Forget a sender that closed without EOS (live migration).

        The migrated stage's replacement dials in next; ``attach`` then
        grants it a fresh window.  Any items the old sender had in
        flight were drained before its FIN (the export fence), so the
        re-grant does not double the effective bound for long.
        """
        self._writer = None
        self._consumed = 0

    def _write(self, data: bytes) -> bool:
        """Write to the sender if its socket is still up (it may legally
        disappear once it has shipped its EOS)."""
        if self._writer is None or self._writer.is_closing():
            return False
        self._writer.write(data)
        return True

    def needs_drain(self) -> bool:
        """True when backchannel bytes piled up past the high watermark.

        Cheap and synchronous — call after any backchannel write; only
        when it answers True must the (async) :meth:`drain` be awaited.
        """
        writer = self._writer
        if writer is None or writer.is_closing():
            return False
        transport = getattr(writer, "transport", None)
        get_size = getattr(transport, "get_write_buffer_size", None)
        if get_size is None:
            return False
        try:
            return bool(get_size() >= BACKCHANNEL_HIGH_WATERMARK)
        except Exception:
            return False

    async def drain(self) -> None:
        """Flush the backchannel transport buffer toward the sender."""
        writer = self._writer
        if writer is None or writer.is_closing():
            return
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    def attach(self, writer: asyncio.StreamWriter) -> None:
        """Bind the sender's socket and grant the initial window."""
        self._writer = writer
        self._write(
            encode_frame(
                FrameType.CREDIT,
                encode_json({"stream": self.stream, "n": self.window}),
            )
        )

    def note_consumed(self, n: int = 1) -> bool:
        """The stage finished ``n`` items from this channel; maybe replenish.

        Returns True when a credit frame actually went out — the only
        time the caller needs to bother with the watermark check."""
        self._consumed += n
        if self._consumed >= self.replenish_batch:
            if self._write(
                encode_frame(
                    FrameType.CREDIT,
                    encode_json({"stream": self.stream, "n": self._consumed}),
                )
            ):
                self._consumed = 0
                return True
        return False

    def send_exception(self, body: Dict[str, Any]) -> bool:
        """Ship one load exception upstream; False if not yet attached."""
        return self._write(
            encode_frame(FrameType.EXCEPTION, encode_json(body))
        )


class OutChannel:
    """Sender-side endpoint: frames items downstream, honoring credit.

    ``on_exception`` (if given) is invoked with the JSON body of every
    EXCEPTION frame the receiver sends back — the worker binds it to the
    sending stage's exception counter, completing the paper's upstream
    exception path across process boundaries.

    When ``uds_path`` is set (the coordinator advertises it for workers
    sharing a host), :meth:`connect` dials the UNIX-domain socket first
    and falls back to TCP if the dial fails for any reason — the peer
    may be remote after a migration, the platform may lack AF_UNIX, or
    the socket file may be gone.  :attr:`transport_kind` records which
    path a live connection took (``"uds"`` or ``"tcp"``).

    All ``net.{channel}.*`` wire metrics are counted here, on the sender
    side only, so merging every participant's registry never
    double-counts a channel.
    """

    def __init__(
        self,
        stream: str,
        dst_stage: str,
        host: str,
        port: int,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        on_exception: Optional[Callable[[Dict[str, Any]], None]] = None,
        uds_path: Optional[str] = None,
    ) -> None:
        self.stream = stream
        self.dst_stage = dst_stage
        self.host = host
        self.port = port
        self.uds_path = uds_path
        #: "uds" or "tcp" once connected; the dialed fast path.
        self.transport_kind = "tcp"
        self._clock = clock
        self._on_exception = on_exception
        prefix = f"net.{stream}"
        self.frames = registry.counter(f"{prefix}.frames")
        self.bytes = registry.counter(f"{prefix}.bytes")
        self.credit_stalls = registry.counter(f"{prefix}.credit_stalls")
        self.credit_wait = registry.counter(f"{prefix}.credit_wait_seconds")
        self.in_flight_peak = registry.gauge(f"{prefix}.in_flight_peak")
        self.exceptions = registry.counter(f"{prefix}.exceptions")
        self._credits = 0
        self._window = 0
        #: Bumped when a redial resets the credit pool: credits acquired
        #: against an older epoch are never returned into the new pool.
        self._grant_epoch = 0
        self._peak = 0
        self._broken = False
        self._cond = asyncio.Condition()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        #: Items shipped so far (the receiver compares against its own
        #: receive count during a migration's drain barrier).
        self.items_sent = 0
        #: True once the EOS sentinel went out on this channel.
        self.eos_sent = False
        #: Cleared by pause(): senders park *before* shipping the next
        #: item, so a pause lands exactly at an item boundary.
        self._resume = asyncio.Event()
        self._resume.set()
        #: Held for the duration of each ship; pause() acquires it once
        #: to wait out an in-flight send.
        self._send_gate = asyncio.Lock()

    @property
    def window(self) -> int:
        """The credit window the receiver granted (0 until connected)."""
        return self._window

    @property
    def peak_in_flight(self) -> int:
        return self._peak

    async def _dial(self) -> None:
        """Open the data connection: UDS fast path, then TCP fallback."""
        if self.uds_path:
            try:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.uds_path
                )
                self.transport_kind = "uds"
                cap_read_buffer(self._writer)
                return
            except (OSError, NotImplementedError, AttributeError):
                pass  # remote peer, missing socket file, or no AF_UNIX
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.transport_kind = "tcp"
        cap_read_buffer(self._writer)

    async def connect(self, timeout: float = 10.0) -> None:
        """Dial the receiving worker, attach, and await the initial grant."""
        await self._dial()
        assert self._writer is not None
        await send_frame(
            self._writer,
            FrameType.ATTACH,
            encode_json({"stream": self.stream, "dst": self.dst_stage}),
        )
        self._reader_task = asyncio.create_task(self._read_loop())

        async def _await_window() -> None:
            async with self._cond:
                while self._window == 0 and not self._broken:
                    await self._cond.wait()

        await asyncio.wait_for(_await_window(), timeout)
        if self._broken:
            raise ChannelError(
                f"channel {self.stream!r}: receiver closed before granting credit"
            )

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                if frame.type is FrameType.CREDIT:
                    n = int(frame.json()["n"])
                    async with self._cond:
                        if self._window == 0:
                            self._window = n  # the initial grant sizes the window
                        self._credits += n
                        self._cond.notify_all()
                elif frame.type is FrameType.EXCEPTION:
                    self.exceptions.inc()
                    if self._on_exception is not None:
                        self._on_exception(frame.json())
        except (ProtocolError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            async with self._cond:
                self._broken = True
                self._cond.notify_all()

    async def _acquire_credit(self, n: int = 1) -> int:
        """Take ``n`` credits (one per item), waiting for replenishment.

        Credit is charged per item, not per frame: a batched DATA frame
        carrying n items acquires n credits before it ships, so the
        receiver's in-flight bound (``window`` items) holds no matter how
        items are packed into frames.  Returns the grant epoch the
        credits were taken from, so an unused acquisition can be returned
        to the right pool (see :meth:`_release_credit`).
        """
        async with self._cond:
            if self._credits < n:
                self.credit_stalls.inc()
                stalled_at = self._clock()
                while self._credits < n and not self._broken:
                    await self._cond.wait()
                self.credit_wait.inc(max(0.0, self._clock() - stalled_at))
            if self._broken and self._credits < n:
                raise ChannelError(
                    f"channel {self.stream!r}: receiver went away mid-stream"
                )
            self._charge(n)
            return self._grant_epoch

    def _charge(self, n: int) -> None:
        """Spend ``n`` held credits and track the in-flight peak."""
        self._credits -= n
        in_flight = self._window - self._credits
        if in_flight > self._peak:
            self._peak = in_flight
            self.in_flight_peak.set(float(in_flight))

    async def _release_credit(self, n: int, epoch: int) -> None:
        """Return credits a send acquired but did not spend (pause race).

        Dropped silently when the grant epoch has moved on: a redial
        reset the pool, and credits taken from the old receiver's window
        must not inflate the new receiver's grant.
        """
        async with self._cond:
            if epoch == self._grant_epoch:
                self._credits += n
                self._cond.notify_all()

    def _ship_now(self, frame: Union[bytes, bytearray], items: int) -> bool:
        """Write ``frame`` without awaiting when nothing could hold it up.

        That is when the channel is connected, not paused and not
        broken, holds ``items`` credits, no send holds ``_send_gate``,
        and the transport has nothing queued (so a drain would return at
        once).  Returns False having changed nothing otherwise; the
        caller then awaits :meth:`_ship`, which behaves exactly as if
        this had not been tried.  Each channel has one sending task, so
        no parked sender can be overtaken.
        """
        writer = self._writer
        if (
            writer is None
            or self._broken
            or self._credits < items
            or not self._resume.is_set()
            or self._send_gate.locked()
        ):
            return False
        transport = writer.transport
        if transport.is_closing() or transport.get_write_buffer_size():
            return False
        if items:
            self._charge(items)
        writer.write(frame)
        self.frames.inc()
        self.bytes.inc(len(frame))
        self.items_sent += items
        return True

    async def _ship(self, frame: Union[bytes, bytearray], items: int) -> None:
        """Credit + pause discipline shared by every send path.

        ``frame`` is a complete pre-built frame buffer (header already
        packed in place by ``finish_frame``), written to the transport
        as one gathered buffer — no header+payload concatenation here.

        Waits out a pause *before* taking the gate (so ``pause()`` never
        deadlocks behind a parked sender), and acquires credit *outside*
        the gate: ``pause()`` waits on the gate, so a credit-stalled
        sender holding it would make a migration pause unbounded — the
        bounded-pause guarantee requires the gate to only ever cover one
        in-flight frame write.  Under the gate the pause flag is
        re-checked; if a pause raced in while this sender waited for
        credit, the credits go back to their grant epoch's pool and the
        sender re-parks.
        """
        while True:
            await self._resume.wait()
            epoch = 0
            if items:
                epoch = await self._acquire_credit(items)
            async with self._send_gate:
                if not self._resume.is_set():
                    if items:
                        await self._release_credit(items, epoch)
                    continue
                if self._writer is None:
                    if items:
                        await self._release_credit(items, epoch)
                    raise ChannelError(f"channel {self.stream!r} is not connected")
                self._writer.write(frame)
                await self._writer.drain()
                self.frames.inc()
                self.bytes.inc(len(frame))
                self.items_sent += items
                return

    async def send(self, payload: Any, size: float) -> None:
        """Ship one item; blocks while the credit window is exhausted.

        No eager connected-check here: during a migration re-dial the
        writer is transiently ``None`` while ``_resume`` is cleared, and
        a send racing that window must park in :meth:`_ship` — which
        re-checks the writer under the gate — instead of failing.
        """
        buf = new_frame_buffer()
        encode_payload_into(buf, payload, size)
        frame = finish_frame(buf, FrameType.DATA)
        if not self._ship_now(frame, 1):
            await self._ship(frame, 1)

    async def send_batch(self, items: "list[tuple[Any, float]]") -> None:
        """Ship several ``(payload, declared size)`` items batched.

        Chunks the batch to at most ``window`` items per DATA frame —
        acquiring more credits than the window holds would deadlock, and
        the receiver sized its buffering to the window.  Each chunk is
        encoded straight into one frame buffer and costs one write and
        one drain instead of one per item.
        """
        if not items:
            return
        start = 0
        while start < len(items):
            limit = self._window if self._window > 0 else 1
            chunk = items[start:start + limit]
            start += len(chunk)
            buf = new_frame_buffer()
            if len(chunk) == 1:
                encode_payload_into(buf, chunk[0][0], chunk[0][1])
            else:
                encode_payload_batch_into(buf, chunk)
            frame = finish_frame(buf, FrameType.DATA)
            if not self._ship_now(frame, len(chunk)):
                await self._ship(frame, len(chunk))

    async def send_eos(self) -> None:
        """Ship the end-of-stream sentinel (EOS frames consume no credit)."""
        buf = new_frame_buffer()
        buf += encode_json({"stream": self.stream})
        frame = finish_frame(buf, FrameType.EOS)
        if not self._ship_now(frame, 0):
            await self._ship(frame, 0)
        self.eos_sent = True

    async def pause(self) -> None:
        """Park the channel at an item boundary (live migration).

        After this returns, no further DATA/EOS leaves the channel until
        :meth:`resume`, the last in-flight send has fully completed, and
        :attr:`items_sent` is stable — the receiver can be drained
        against it.
        """
        self._resume.clear()
        async with self._send_gate:
            pass

    def resume(self) -> None:
        """Lift a :meth:`pause`; parked senders continue."""
        self._resume.set()

    async def redial(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        uds_path: Optional[str] = None,
    ) -> None:
        """Re-point the channel at a new receiver and reconnect.

        Used by live migration after the destination stage moved: the
        old socket is torn down with the ordinary FIN/drain close (the
        old worker sees EOF, not an error), then the channel dials the
        stage's new worker — over its UNIX socket when one is advertised
        for the new location — and awaits its fresh credit grant.  Call
        while paused; :meth:`resume` afterwards releases the senders.
        """
        await self.close()
        self.host = host
        self.port = port
        self.uds_path = uds_path
        self._broken = False
        self._window = 0
        self._credits = 0
        self._grant_epoch += 1
        await self.connect(timeout)

    async def close(self, linger: float = 5.0) -> None:
        """Tear down gracefully: FIN, drain the backchannel, then close.

        Closing a socket that still has unread inbound bytes (credit
        grants race with shutdown) sends RST instead of FIN, and an RST
        destroys in-flight DATA/EOS still queued on the receiver's side.
        So: half-close our direction, keep consuming CREDIT/EXCEPTION
        frames until the receiver has read everything and closed its
        side (the read loop exits on its FIN), and only then release the
        socket.  ``linger`` bounds the wait when the peer is gone.
        """
        if self._writer is not None and self._reader_task is not None:
            try:
                await self._writer.drain()
                if self._writer.can_write_eof():
                    self._writer.write_eof()
            except (ConnectionError, OSError):
                pass
            try:
                await asyncio.wait_for(asyncio.shield(self._reader_task), linger)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
