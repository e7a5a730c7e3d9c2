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
``window`` *items* and returns credit as its stage takes them, at most
one CREDIT per channel per stage-task wakeup (:class:`InChannel`), a
binary count the sender reads in the transport callback.  Credit is
charged per item — a DATA frame carrying n items costs n credits — so
the invariant is independent of framing: at most ``window`` items are
ever in flight, and backpressure is explicit and bounded rather than
hidden in socket buffers.  The sender blocks
(`net.{channel}.credit_stalls`) when the window is exhausted;
``net.{channel}.in_flight_peak`` records the observed maximum.

The send path is zero-copy: each DATA frame is built once in a
:func:`repro.net.protocol.new_frame_buffer` (payload encoded straight
into the buffer, header packed in place by ``finish_frame``) and handed
to the transport as a single gathered write — one buffer and one
``write()`` per frame regardless of batch size.  A send with its
credits on hand and nothing in its way writes without awaiting at all
(:meth:`OutChannel._ship_now`); any other send awaits the credit, detach
and drain discipline of :meth:`OutChannel._ship`.

A sender that leaves mid-stream (live migration) writes one credit-free
DETACH frame and closes (:meth:`OutChannel.detach`): the receiver then
knows that everything sent before it has arrived and that the end of
the connection is planned.  An end with neither EOS nor DETACH is a
dead peer.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.items import ItemQueue, ItemRun
from repro.net.protocol import (
    FrameType,
    ProtocolError,
    decode_credit,
    encode_credit,
    encode_frame,
    encode_json,
    encode_payload_columns_into,
    encode_payload_into,
    finish_frame,
    new_frame_buffer,
    open_frame_connection,
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


class AsyncInbox(ItemQueue):
    """A stage's input :class:`~repro.core.items.ItemQueue` on the
    worker's event loop.

    Two producer paths: local routes ``put`` (blocking while full — the
    in-process backpressure), and wire channels ``put_nowait`` (synchronous
    and never refused: the credit window already bounds what a remote
    sender can have outstanding, and in-flight data cannot be un-sent —
    the same reasoning as the simulated runtime's ``force_put``).  The
    worker calls ``put_nowait`` from the transport's ``data_received``,
    one :class:`~repro.core.items.ItemRun` entry per DATA frame, so a
    frame's items are queued before the event loop runs anything else.
    A take stops counting its items at once.  ``put_barrier`` queues
    the live-migration fence, which a take delivers alone.

    One event-loop thread owns the inbox, so it needs no lock: FIFO
    queues of getter and putter futures, each wakeup resolving exactly
    one waiter that can make progress.  A woken consumer that leaves
    entries behind wakes the next one; a woken producer that leaves room
    wakes the next producer.  No entry is taken before a consumer's last
    suspension, so cancelling a ``get``/``get_many`` (a ``wait_for``
    timeout) never loses one.
    """

    def __init__(self, capacity: int, window: int) -> None:
        super().__init__(capacity, window)
        self._getters: deque = deque()
        self._putters: deque = deque()

    def _has_room(self) -> bool:
        return self._length < self.capacity

    def _has_entries(self) -> bool:
        return bool(self._items)

    def put_nowait(self, entry: Any) -> None:
        """Append ``entry`` past any capacity and wake one consumer."""
        self._admit(entry)
        if self._getters:
            _wake_one(self._getters)

    def put_many_nowait(self, entries: "list") -> None:
        """Append several one-item entries and wake one consumer."""
        if entries:
            self._admit_all(entries)
            if self._getters:
                _wake_one(self._getters)

    async def put(self, entry: Any) -> None:
        while self._length >= self.capacity:
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
        self._admit_barrier(entry)
        if self._getters:
            _wake_one(self._getters)

    async def get(self) -> Any:
        return (await self.get_many(1))[0]

    async def get_many(self, max_items: int) -> "list":
        """Await the first entry, then take a chunk of up to
        ``max_items`` items without further waiting (one suspension per
        chunk), and pass the wakeups on."""
        while not self._items:
            await _park(self._getters, self._has_entries)
        taken = self._take_item_chunk(max_items, False)
        if self._items and self._getters:
            _wake_one(self._getters)
        if self._putters:
            _wake_one(self._putters)
        return taken

    def queued_from(self, origin: str) -> int:
        """Items of ``origin``'s runs still queued (a detached sender's)."""
        runs = [e for e in self._items if type(e) is ItemRun and e.origin == origin]
        return sum(len(run.values) for run in runs)


class InChannel:
    """Receiver-side endpoint of a wire channel: grants and returns credit.

    Created when the coordinator declares the channel (CHANNEL frame,
    kind="in"); the socket arrives later, when the remote sender dials in
    with ATTACH.  :meth:`attach` grants the initial window.  The worker
    counts each item its stage takes (:meth:`note_consumed`) and calls
    :meth:`grant` just before the stage task suspends.  Once ``window //
    2`` (at least 1) items are taken since the last grant, it is *earned*:
    one CREDIT carries them all back — at most one per wakeup, never zero,
    never held across a suspension, not one per item of a trickle.

    Backchannel writes (CREDIT/EXCEPTION) are fire-and-forget so stage
    loops never await a slow upstream inline — but once the transport
    buffer crosses :data:`BACKCHANNEL_HIGH_WATERMARK` the owner must
    await :meth:`drain` before more items are consumed (the worker
    checks :meth:`needs_drain` after each written grant), bounding what
    a stalled peer can pin in memory.
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
        #: Set once the attached sender's last frame arrived — its EOS or
        #: its DETACH — so nothing more from it can follow.
        self.marked = asyncio.Event()

    @property
    def attached(self) -> bool:
        return self._writer is not None

    def detach(self, backlog: int) -> None:
        """Forget a sender that left with DETACH (live migration).

        The next sender dials in later; ``attach`` then grants it a
        fresh window.  The ``backlog`` items the old sender shipped that
        are still queued here are taken before anything the next one
        ships, and their credit left with the old connection: they pay
        off a negative count, never a grant.
        """
        self._writer = None
        self._consumed = -backlog
        self.marked.set()

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
        self.marked.clear()
        self._write(encode_frame(FrameType.CREDIT, encode_credit(self.window)))

    def note_consumed(self, n: int = 1) -> bool:
        """The stage took ``n`` more items; True once a grant is earned."""
        self._consumed += n
        return self._consumed >= self.replenish_batch

    def grant(self) -> bool:
        """Return the consumed items' credit if the grant is earned.

        Returns True when a CREDIT frame actually went out — the only
        time the caller needs to bother with the watermark check."""
        if self._consumed >= self.replenish_batch and self._write(
            encode_frame(FrameType.CREDIT, encode_credit(self._consumed))
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

    CREDIT and EXCEPTION frames are handled inside the transport's
    ``data_received`` (:func:`~repro.net.protocol.open_frame_connection`);
    a parked send is woken by a future.  A grant that is not a
    positive count, or that would lift the credits on hand above the
    window, breaks the channel: the next or stalled send raises
    :class:`ChannelError` naming the cause.

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
        self.credit_frames = registry.counter(f"{prefix}.credit_frames")
        self.credit_stalls = registry.counter(f"{prefix}.credit_stalls")
        self.credit_wait = registry.counter(f"{prefix}.credit_wait_seconds")
        self.in_flight_peak = registry.gauge(f"{prefix}.in_flight_peak")
        self.exceptions = registry.counter(f"{prefix}.exceptions")
        self._credits = 0
        self._window = 0
        self._peak = 0
        #: Why it broke (None: up), the parked sends, the connection's end.
        self._broken: Optional[str] = None
        self._waiters: List[asyncio.Future] = []
        self._closed: Optional[asyncio.Future] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: True once the EOS sentinel went out on this channel.
        self.eos_sent = False
        #: True from :meth:`detach` until the channel dials again: sends
        #: park *before* shipping the next item, so a detach lands exactly
        #: at an item boundary.
        self.detached = False
        #: Held for each awaited write and its drain; :meth:`detach`
        #: acquires it once to wait out an in-flight send.
        self._send_gate = asyncio.Lock()

    @property
    def window(self) -> int:
        """The credit window the receiver granted (0 until connected)."""
        return self._window

    @property
    def peak_in_flight(self) -> int:
        return self._peak

    async def connect(self, timeout: float = 10.0) -> None:
        """Dial the receiving worker (UDS fast path, then TCP fallback),
        attach, and await the initial grant; a detached channel's parked
        sender then resumes under it."""
        self._closed = asyncio.get_running_loop().create_future()
        self._writer, self.transport_kind = await open_frame_connection(
            self._on_frames, self._on_close, self.host, self.port, self.uds_path
        )
        await send_frame(
            self._writer,
            FrameType.ATTACH,
            encode_json({"stream": self.stream, "dst": self.dst_stage}),
        )
        await asyncio.wait_for(self._wait_until(lambda: self._window > 0), timeout)
        if self._broken is not None:
            raise ChannelError(f"channel {self.stream!r}: {self._broken}")
        self.detached = False
        self._wake()

    async def dial(self, host: str, port: int, uds_path: Optional[str] = None) -> None:
        """Point a detached channel at its receiver's new worker and
        :meth:`connect` — over that worker's UNIX socket when one is
        advertised."""
        self.host, self.port, self.uds_path = host, port, uds_path
        await self.connect()

    def _on_frames(self, frames: "list") -> None:
        """The backchannel's frames, from the transport callback."""
        for frame in frames:
            if frame.type is FrameType.CREDIT:
                n = decode_credit(frame.payload)
                window = self._window or n
                if n < 1 or self._credits + n > window:
                    raise ProtocolError(f"CREDIT grant of {n} with {self._credits} "
                                        f"of a {self._window}-item window on hand")
                self.credit_frames.inc()
                self._window = window
                self._credits += n
                self._wake()
            elif frame.type is FrameType.EXCEPTION:
                self.exceptions.inc()
                if self._on_exception is not None:
                    self._on_exception(frame.json())

    def _on_close(self, error: Optional[BaseException]) -> None:
        """The connection ended: after a bad grant, before its first
        grant, as planned after a detach, or with no credit left."""
        if isinstance(error, ProtocolError):
            self._broken = f"receiver broke the protocol: {error}"
            self._credits = 0
        elif self._window == 0:
            self._broken = "receiver closed before granting credit"
        elif not self.detached:
            self._broken = "receiver went away mid-stream"
        self._wake()
        if self._closed is not None and not self._closed.done():
            self._closed.set_result(None)

    async def _wait_until(self, ready: Callable[[], bool]) -> None:
        """Park until ``ready()`` or the channel breaks."""
        while not ready() and self._broken is None:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    def _wake(self) -> None:
        """Resolve every parked wait: a sender's, and a connect's."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    def _charge(self, n: int) -> None:
        """Spend ``n`` held credits and track the in-flight peak."""
        self._credits -= n
        in_flight = self._window - self._credits
        if in_flight > self._peak:
            self._peak = in_flight
            self.in_flight_peak.set(float(in_flight))

    def _sendable(self, items: int) -> bool:
        """Connected, not detached, and ``items`` credits on hand."""
        return not self.detached and self._writer is not None and self._credits >= items

    def can_ship(self, items: int) -> bool:
        """Whether ``items`` items would be written without awaiting:
        connected, not detached or broken, the credits on hand, no send
        holding ``_send_gate``, and nothing queued on the transport."""
        writer = self._writer
        if (
            writer is None
            or self._broken is not None
            or self._credits < items
            or self.detached
            or self._send_gate.locked()
        ):
            return False
        transport = writer.transport
        return not (transport.is_closing() or transport.get_write_buffer_size())

    def _ship_now(self, frame: Union[bytes, bytearray], items: int) -> bool:
        """Write ``frame`` without awaiting when :meth:`can_ship` says so.

        Returns False having changed nothing otherwise; the caller then
        awaits :meth:`_ship`, which behaves exactly as if this had not
        been tried.  Each channel has one sending task, so no parked
        sender can be overtaken.
        """
        if not self.can_ship(items):
            return False
        if items:
            self._charge(items)
        assert self._writer is not None
        self._writer.write(frame)
        self.frames.inc()
        self.bytes.inc(len(frame))
        return True

    async def _ship(self, frame: Union[bytes, bytearray], items: int) -> None:
        """Credit, detach and drain discipline shared by every send path.

        ``frame`` is a complete pre-built frame buffer (header already
        packed in place by ``finish_frame``), written to the transport
        as one gathered buffer — no header+payload concatenation here.

        The send parks while the channel is detached or short of credit
        (``items`` credits: one per item, so a batched DATA frame
        carrying n items takes n, and the receiver's in-flight bound of
        ``window`` items holds however items are framed).  It takes its
        credits only under ``_send_gate``, in the same step as the
        write, so no credit is ever held across a wait: credit from a
        receiver the channel detached from cannot reach the next one.
        The gate covers one frame's write and drain, which bounds how
        long :meth:`detach` waits for an in-flight send.
        """
        if self._writer is None and not self.detached:
            raise ChannelError(f"channel {self.stream!r} is not connected")
        while True:
            if not self._sendable(items):
                stalled = self._credits < items
                if stalled:
                    self.credit_stalls.inc()
                    stalled_at = self._clock()
                await self._wait_until(lambda: self._sendable(items))
                if stalled:
                    self.credit_wait.inc(max(0.0, self._clock() - stalled_at))
                if self._broken is not None and not self._sendable(items):
                    raise ChannelError(f"channel {self.stream!r}: {self._broken}")
            async with self._send_gate:
                if not self._sendable(items):
                    continue
                assert self._writer is not None
                if items:
                    self._charge(items)
                self._writer.write(frame)
                await self._writer.drain()
                self.frames.inc()
                self.bytes.inc(len(frame))
                return

    async def send(self, payload: Any, size: float) -> None:
        """Ship one item; blocks while the credit window is exhausted or
        the channel is detached (the send then goes to the next
        receiver, after :meth:`dial`)."""
        buf = new_frame_buffer()
        encode_payload_into(buf, payload, size)
        frame = finish_frame(buf, FrameType.DATA)
        if not self._ship_now(frame, 1):
            await self._ship(frame, 1)

    async def send_batch(self, items: "Sequence[tuple]") -> None:
        """:meth:`send_columns` for tuples starting ``(payload, size)``."""
        if items:
            columns = tuple(zip(*items))
            await self.send_columns(columns[0], columns[1])

    async def send_columns(self, values: Sequence[Any], sizes: Sequence[float]) -> None:
        """Ship the items ``values`` (declared ``sizes``) batched.

        Chunks the batch to at most ``window - window // 2 + 1`` items
        per DATA frame: a receiver may idle on up to ``window // 2 - 1``
        items of unearned credit, so a larger frame could wait forever.
        Each chunk is encoded straight into one frame buffer: one write
        and one drain instead of one per item.
        """
        start = 0
        while start < len(values):
            window = self._window
            limit = window - max(1, window // 2) + 1 if window > 0 else 1
            chunk, chunk_sizes = values[start:start + limit], sizes[start:start + limit]
            start += len(chunk)
            buf = new_frame_buffer()
            if len(chunk) == 1:
                encode_payload_into(buf, chunk[0], chunk_sizes[0])
            else:
                encode_payload_columns_into(buf, chunk, chunk_sizes)
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

    async def detach(self) -> None:
        """Leave the receiver mid-stream, at an item boundary (live migration).

        Sends park before their next item and an in-flight send
        completes; then one credit-free DETACH frame follows everything
        sent, and the connection closes with the ordinary FIN/drain
        teardown.  The credit on hand leaves with the connection: after
        this returns nothing is held, and :meth:`dial` starts from the
        next receiver's grant.  A channel that has sent its EOS, or is
        not connected, has nothing to leave.
        """
        if self.eos_sent or self._writer is None:
            return
        self.detached = True
        async with self._send_gate:
            pass
        if self.eos_sent:  # an EOS was in flight: the stream is over
            self.detached = False
            return
        self._writer.write(encode_frame(FrameType.DETACH))
        await self.close()
        self._credits = self._window = 0

    async def close(self, linger: float = 5.0) -> None:
        """Tear down gracefully: FIN, drain the backchannel, then close.

        Closing a socket that still has unread inbound bytes (credit
        grants race with shutdown) sends RST instead of FIN, and an RST
        destroys in-flight DATA/EOS still queued on the receiver's side.
        So: half-close our direction, keep consuming CREDIT/EXCEPTION
        frames until the receiver has read everything and closed its
        side (the connection reports its FIN), and only then release the
        socket.  ``linger`` bounds the wait when the peer is gone.
        """
        writer, closed = self._writer, self._closed
        if writer is None:
            return
        if closed is not None and not closed.done():
            try:
                await writer.drain()
                if writer.can_write_eof():
                    writer.write_eof()
            except (ConnectionError, OSError):
                pass
            try:
                await asyncio.wait_for(asyncio.shield(closed), linger)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._writer = None
