"""Inbox, credit-flow-control, receive-path and send-path tests.

The load-bearing assertion here is the flow-control bound: against a
deliberately slow receiver, the number of items in flight (sent but not
yet covered by a returned credit) must never exceed the granted window —
that is what makes backpressure explicit instead of an unbounded socket
buffer.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.channels import AsyncInbox, ChannelError, InChannel, OutChannel
from repro.core.api import StreamProcessor
from repro.core.items import ItemRun
from repro.net.protocol import (
    FrameDecoder,
    FrameType,
    decode_credit,
    decode_payload,
    decode_payload_batch,
    encode_credit,
    encode_frame,
    encode_json,
    is_batch_payload,
    read_frame,
    send_frame,
)
from repro.obs.registry import MetricsRegistry
from repro.simnet.hosts import CpuCostModel
from tests.net.payloads import payload, payload_batch


def run(coro, timeout=20.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestAsyncInbox:
    def test_fifo_order(self):
        async def scenario():
            inbox = AsyncInbox(capacity=10, window=4)
            for i in range(5):
                await inbox.put(i)
            return [await inbox.get() for _ in range(5)]

        assert run(scenario()) == [0, 1, 2, 3, 4]

    def test_put_blocks_at_capacity_until_get(self):
        async def scenario():
            inbox = AsyncInbox(capacity=2, window=4)
            await inbox.put("a")
            await inbox.put("b")
            blocked = asyncio.create_task(inbox.put("c"))
            await asyncio.sleep(0.01)
            assert not blocked.done()
            assert await inbox.get() == "a"
            await asyncio.wait_for(blocked, 1.0)
            return inbox.current_length

        assert run(scenario()) == 2

    def test_force_put_ignores_capacity(self):
        async def scenario():
            inbox = AsyncInbox(capacity=1, window=4)
            for i in range(5):
                await inbox.force_put(i)
            return inbox.current_length

        assert run(scenario()) == 5

    def test_queue_like_surface_for_the_estimator(self):
        async def scenario():
            inbox = AsyncInbox(capacity=8, window=4)
            assert inbox.capacity == 8
            assert inbox.recent_average == 0.0
            for i in range(4):
                await inbox.put(i)
            assert inbox.current_length == 4
            assert inbox.recent_average > 0.0

        run(scenario())

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            AsyncInbox(capacity=0, window=4)


class _FakeWriter:
    """Collects bytes written by InChannel for frame-level inspection."""

    def __init__(self):
        self.decoder = FrameDecoder()
        self.frames = []

    def write(self, data):
        self.frames += self.decoder.feed(data)

    def is_closing(self):
        return False


class TestInChannel:
    def test_attach_grants_the_full_window(self):
        channel = InChannel("s", "dst", window=12)
        writer = _FakeWriter()
        channel.attach(writer)
        assert [f.type for f in writer.frames] == [FrameType.CREDIT]
        assert decode_credit(writer.frames[0].payload) == 12

    def test_replenish_batches_amortize_credit_frames(self):
        channel = InChannel("s", "dst", window=8)  # batch = 4
        writer = _FakeWriter()
        channel.attach(writer)
        for _ in range(3):
            channel.note_consumed()
            assert channel.grant() is False
        assert len(writer.frames) == 1  # below batch: no frame yet
        channel.note_consumed()
        assert channel.grant() is True
        assert len(writer.frames) == 2
        assert decode_credit(writer.frames[1].payload) == 4

    def test_exception_before_attach_is_dropped(self):
        channel = InChannel("s", "dst", window=4)
        assert channel.send_exception({"kind": "overload"}) is False
        writer = _FakeWriter()
        channel.attach(writer)
        assert channel.send_exception({"kind": "overload"}) is True
        assert writer.frames[-1].type is FrameType.EXCEPTION

    def test_rejects_silly_window(self):
        with pytest.raises(ValueError, match="window"):
            InChannel("s", "dst", window=0)


class _SlowReceiver:
    """A scripted receiver: grants credit slowly, audits the bound.

    Tracks ``outstanding`` = DATA frames received minus credits granted;
    a correct sender keeps it <= 0 at every frame arrival (it may only
    spend granted credit).
    """

    def __init__(self, window, consume_delay, die_after=None):
        self.window = window
        self.consume_delay = consume_delay
        self.die_after = die_after
        self.granted = 0
        self.received = 0
        self.eos_seen = False
        self.max_outstanding = -10**9
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        attach = await read_frame(reader)
        assert attach.type is FrameType.ATTACH
        await send_frame(writer, FrameType.CREDIT, encode_credit(self.window))
        self.granted = self.window
        while True:
            frame = await read_frame(reader)
            if frame is None:
                writer.close()  # answer the sender's FIN, as the worker does
                return
            if frame.type is FrameType.EOS:
                self.eos_seen = True
                continue
            assert frame.type is FrameType.DATA
            self.received += 1
            if self.die_after is not None and self.received >= self.die_after:
                writer.close()  # vanish mid-stream without returning credit
                return
            outstanding = self.received - self.granted
            self.max_outstanding = max(self.max_outstanding, outstanding)
            # Consume slowly, then hand back one credit at a time — the
            # sender must stall while it waits.
            await asyncio.sleep(self.consume_delay)
            await send_frame(writer, FrameType.CREDIT, encode_credit(1))
            self.granted += 1


class TestCreditFlowControl:
    def test_in_flight_never_exceeds_the_granted_window(self):
        async def scenario():
            window, items = 4, 40
            receiver = _SlowReceiver(window, consume_delay=0.002)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port,
                registry, clock=loop.time,
            )
            await channel.connect()
            assert channel.window == window
            for i in range(items):
                await channel.send(i, 8.0)
            await channel.send_eos()
            await asyncio.sleep(0.05)
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()
            return receiver, channel, registry

        receiver, channel, registry = run(scenario())
        # The bound, from both sides of the wire:
        assert receiver.max_outstanding <= 0
        assert channel.peak_in_flight <= channel.window
        assert receiver.received == 40
        assert receiver.eos_seen
        # The slow consumer forced real stalls, and the metrics saw them.
        assert registry.value("net.testchan.credit_stalls") > 0
        assert registry.value("net.testchan.credit_wait_seconds") > 0
        assert registry.value("net.testchan.frames") == 41  # 40 DATA + EOS
        assert registry.value("net.testchan.in_flight_peak") <= 4

    def test_sender_fails_cleanly_when_receiver_vanishes(self):
        async def scenario():
            receiver = _SlowReceiver(window=2, consume_delay=0.0, die_after=1)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port,
                registry, clock=loop.time,
            )
            await channel.connect()
            # The receiver dies after one frame without returning credit:
            # the sender must surface a ChannelError once the remaining
            # window is spent, not hang forever.
            with pytest.raises(ChannelError, match="went away"):
                for i in range(10):
                    await channel.send(i, 8.0)
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()

        run(scenario())

    def test_close_must_not_destroy_in_flight_data(self):
        """Tearing down right after EOS must still deliver everything.

        The receiver keeps writing CREDIT frames back while it slowly
        drains the stream.  An abortive close on the sender would race
        with that backchannel: unread credit bytes at close() turn the
        FIN into an RST, which destroys the DATA/EOS still queued on the
        receiver's side (a real 1-in-10 hang before the graceful
        half-close).  close() must wait for the receiver's FIN instead.
        """

        async def scenario():
            receiver = _SlowReceiver(window=2, consume_delay=0.005)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port,
                registry, clock=loop.time,
            )
            await channel.connect()
            for i in range(10):
                await channel.send(i, 8.0)
            await channel.send_eos()
            # No settling sleep: close immediately, mid-backchannel.
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()
            return receiver

        for _ in range(5):  # the old race was timing-dependent
            receiver = run(scenario())
            assert receiver.received == 10
            assert receiver.eos_seen

    def test_the_backchannel_runs_on_the_transport_callback(self):
        """No reader task and no condition: a CREDIT is handled inside
        ``data_received``, and a stalled send is woken by one future."""
        async def scenario():
            receiver = _SlowReceiver(window=2, consume_delay=0.0)
            await receiver.start()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port, MetricsRegistry(), clock=loop.time,
            )
            await channel.connect()
            assert not [
                task for task in asyncio.all_tasks()
                if task.get_coro().__qualname__.startswith("OutChannel")
            ]
            assert not any(
                isinstance(value, (asyncio.Condition, asyncio.Task))
                for value in vars(channel).values()
            )
            for i in range(6):
                await channel.send(i, 8.0)
            await channel.send_eos()
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()
            return receiver

        receiver = run(scenario())
        assert receiver.received == 6 and receiver.eos_seen

    def test_connect_times_out_without_a_grant(self):
        async def scenario():
            async def mute_server(reader, writer):
                await asyncio.sleep(30)

            server = await asyncio.start_server(mute_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", port, registry, clock=loop.time
            )
            with pytest.raises(asyncio.TimeoutError):
                await channel.connect(timeout=0.1)
            await channel.close(linger=0.1)
            server.close()
            await server.wait_closed()

        run(scenario())


class _BatchReceiver:
    """Item-granular receiver for batched DATA frames.

    Decodes every DATA payload (batch or single) to count *items*, grants
    credit per item consumed, and audits both halves of the invariant:
    outstanding items never exceed zero against granted credit, and no
    single frame carries more items than the window.
    """

    def __init__(self, window, consume_delay=0.0):
        self.window = window
        self.consume_delay = consume_delay
        self.granted = 0
        self.items = []
        self.frame_item_counts = []
        self.eos_seen = False
        self.max_outstanding = -10**9
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        attach = await read_frame(reader)
        assert attach.type is FrameType.ATTACH
        await send_frame(writer, FrameType.CREDIT, encode_credit(self.window))
        self.granted = self.window
        while True:
            frame = await read_frame(reader)
            if frame is None:
                writer.close()
                return
            if frame.type is FrameType.EOS:
                self.eos_seen = True
                continue
            assert frame.type is FrameType.DATA
            if is_batch_payload(frame.payload):
                decoded = decode_payload_batch(frame.payload)
            else:
                decoded = [decode_payload(frame.payload)]
            self.frame_item_counts.append(len(decoded))
            self.items += [obj for obj, _ in decoded]
            outstanding = len(self.items) - self.granted
            self.max_outstanding = max(self.max_outstanding, outstanding)
            await asyncio.sleep(self.consume_delay)
            await send_frame(writer, FrameType.CREDIT, encode_credit(len(decoded)))
            self.granted += len(decoded)


class TestSendBatch:
    def _scenario(self, items, window, chunks):
        async def run_it():
            receiver = _BatchReceiver(window, consume_delay=0.001)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port,
                registry, clock=loop.time,
            )
            await channel.connect()
            assert channel.window == window
            for chunk in chunks:
                await channel.send_batch(chunk)
            await channel.send_eos()
            await asyncio.sleep(0.05)
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()
            return receiver, channel, registry

        return run(run_it())

    def test_credit_is_charged_per_item_not_per_frame(self):
        # 30 items through a window of 4: a per-frame accounting would
        # let 4 frames x up-to-4 items = 16 items ride on 4 credits.
        window, total = 4, 30
        batch = [(i, 8.0) for i in range(total)]
        receiver, channel, registry = self._scenario(
            total, window, [batch]
        )
        assert receiver.items == list(range(total))
        # Both halves of the invariant, from both sides of the wire:
        assert receiver.max_outstanding <= 0
        assert channel.peak_in_flight <= window
        assert registry.value("net.testchan.in_flight_peak") <= window
        # Chunked to the window: no frame carries more than window items.
        assert max(receiver.frame_item_counts) <= window
        assert len(receiver.frame_item_counts) < total  # actually batched

    def test_single_item_chunk_uses_the_single_codec(self):
        receiver, _, registry = self._scenario(1, 8, [[(99, 8.0)]])
        assert receiver.items == [99]
        assert receiver.frame_item_counts == [1]

    def test_empty_batch_is_a_no_op(self):
        receiver, _, registry = self._scenario(0, 8, [[]])
        assert receiver.items == []
        assert registry.value("net.testchan.frames") == 1  # EOS only

    def test_interleaved_batches_preserve_order(self):
        chunks = [
            [(i, 8.0) for i in range(0, 10)],
            [(i, 8.0) for i in range(10, 13)],
            [(i, 8.0) for i in range(13, 25)],
        ]
        receiver, channel, _ = self._scenario(25, 4, chunks)
        assert receiver.items == list(range(25))
        assert channel.peak_in_flight <= 4


class TestInboxBatchSurface:
    def test_get_many_drains_without_waiting_for_more(self):
        async def scenario():
            inbox = AsyncInbox(capacity=10, window=4)
            for i in range(3):
                await inbox.put(i)
            return await inbox.get_many(8)

        assert run(scenario()) == [0, 1, 2]

    def test_get_many_respects_max_items(self):
        async def scenario():
            inbox = AsyncInbox(capacity=10, window=4)
            for i in range(6):
                await inbox.put(i)
            first = await inbox.get_many(4)
            rest = await inbox.get_many(4)
            return first, rest

        assert run(scenario()) == ([0, 1, 2, 3], [4, 5])

    def test_get_many_waits_for_the_first_entry(self):
        async def scenario():
            inbox = AsyncInbox(capacity=10, window=4)

            async def late_producer():
                await asyncio.sleep(0.01)
                await inbox.put("late")

            task = asyncio.create_task(late_producer())
            got = await inbox.get_many(4)
            await task
            return got

        assert run(scenario()) == ["late"]

    def test_force_put_many_ignores_capacity(self):
        async def scenario():
            inbox = AsyncInbox(capacity=2, window=4)
            await inbox.force_put_many(list(range(7)))
            return inbox.current_length, await inbox.get_many(10)

        length, drained = run(scenario())
        assert length == 7
        assert drained == list(range(7))


@pytest.mark.parametrize("put", ["run", "many"])
def test_inbox_samples_d_bar_per_item_like_the_threaded_queue(put):
    """A frame of n items, or n entries put together, leaves the n d̄
    samples n single puts would — as ``_MonitoredQueue.put_many`` on the
    threaded runtime and the simulator's queue do — not one."""
    from repro.core.runtime_threads import _MonitoredQueue

    inbox = AsyncInbox(capacity=16, window=16)
    if put == "run":
        inbox.put_nowait(_run_of(range(4)))
    else:
        inbox.put_many_nowait(list(range(4)))
    threaded = _MonitoredQueue(capacity=16, window=16)
    threaded.put_many(list(range(4)))
    assert list(inbox._recent) == list(threaded._recent) == [0, 1, 2, 3, 4]


class TestNoteConsumedCounts:
    def test_note_consumed_n_replenishes_in_one_frame(self):
        channel = InChannel("s", "dst", window=8)  # batch = 4
        writer = _FakeWriter()
        channel.attach(writer)
        channel.note_consumed(5)
        channel.grant()
        assert len(writer.frames) == 2  # the attach grant, then one credit
        assert decode_credit(writer.frames[1].payload) == 5

    def test_counts_accumulate_across_calls(self):
        channel = InChannel("s", "dst", window=8)  # batch = 4
        writer = _FakeWriter()
        channel.attach(writer)
        channel.note_consumed(3)
        channel.grant()
        assert len(writer.frames) == 1  # below the batch threshold
        channel.note_consumed(1)
        channel.grant()
        assert decode_credit(writer.frames[1].payload) == 4

    @pytest.mark.parametrize("chunk", [1, 3, 4, 5, 8])
    def test_a_chunk_returns_its_credit_in_one_call(self, chunk):
        """The worker credits a chunk with one ``note_consumed(n)`` per
        channel and one grant before it idles: the CREDIT totals match
        crediting item by item, and no more than the window is ever
        outstanding."""
        from repro.net.worker import _return_credit

        window = 8
        per_item, per_chunk = InChannel("s", "dst", window), InChannel("s", "dst", window)
        item_writer, chunk_writer = _FakeWriter(), _FakeWriter()
        per_item.attach(item_writer)
        per_chunk.attach(chunk_writer)

        def granted(writer):
            return sum(decode_credit(frame.payload) for frame in writer.frames)

        consumed = 0
        while consumed < 100:
            # The sender ships as much of a chunk as its credit allows.
            k = min(chunk, granted(chunk_writer) - consumed)
            assert k > 0, "the sender starved"
            consumed += k
            per_chunk.note_consumed(k)
            assert _return_credit([per_chunk]) == []
            for _ in range(k):
                per_item.note_consumed()
                per_item.grant()
            for channel, writer in ((per_chunk, chunk_writer), (per_item, item_writer)):
                assert granted(writer) - window + channel._consumed == consumed
                assert granted(writer) - consumed <= window
        assert len(chunk_writer.frames) <= len(item_writer.frames)


class TestInboxLanes:
    """The migration barrier: a FIFO tail entry never mixed into a chunk."""

    def test_barrier_waits_for_every_lane_to_drain(self):
        async def scenario():
            inbox = AsyncInbox(capacity=32, window=4)
            await inbox.put("x0")
            await inbox.force_put("x1")
            await inbox.put_barrier("FENCE")
            # Items enqueued *after* the barrier must still come out
            # after it, whichever producer path they take.
            await inbox.put("y0")
            await inbox.force_put_many(["y1"])
            return [await inbox.get() for _ in range(5)]

        assert run(scenario()) == ["x0", "x1", "FENCE", "y0", "y1"]

    def test_get_many_never_mixes_barrier_with_items(self):
        async def scenario():
            inbox = AsyncInbox(capacity=32, window=4)
            await inbox.put("a")
            await inbox.put("b")
            await inbox.put_barrier("FENCE")
            await inbox.put("c")
            first = await inbox.get_many(16)
            second = await inbox.get_many(16)
            third = await inbox.get_many(16)
            return first, second, third

        assert run(scenario()) == (["a", "b"], ["FENCE"], ["c"])


class _BufferedFakeWriter(_FakeWriter):
    """A fake writer with a transport that reports its buffer size."""

    class _Transport:
        def __init__(self):
            self.size = 0

        def get_write_buffer_size(self):
            return self.size

    def __init__(self):
        super().__init__()
        self.transport = self._Transport()
        self.drained = 0

    async def drain(self):
        self.drained += 1
        self.transport.size = 0


class TestBackchannelWatermark:
    def test_no_drain_needed_below_watermark(self):
        from repro.net.channels import BACKCHANNEL_HIGH_WATERMARK

        channel = InChannel("s", "dst", window=4)
        writer = _BufferedFakeWriter()
        channel.attach(writer)
        writer.transport.size = BACKCHANNEL_HIGH_WATERMARK - 1
        assert channel.needs_drain() is False

    def test_drain_fires_at_watermark(self):
        from repro.net.channels import BACKCHANNEL_HIGH_WATERMARK

        async def scenario():
            channel = InChannel("s", "dst", window=4)
            writer = _BufferedFakeWriter()
            channel.attach(writer)
            writer.transport.size = BACKCHANNEL_HIGH_WATERMARK
            assert channel.needs_drain() is True
            await channel.drain()
            return writer

        writer = run(scenario())
        assert writer.drained == 1
        assert writer.transport.size == 0

    def test_plain_fake_writer_never_needs_drain(self):
        # Writers without a transport (tests, detached channels) must not
        # trip the watermark check.
        channel = InChannel("s", "dst", window=4)
        channel.attach(_FakeWriter())
        assert channel.needs_drain() is False

    def test_detached_channel_drain_is_a_no_op(self):
        async def scenario():
            channel = InChannel("s", "dst", window=4)
            assert channel.needs_drain() is False
            await channel.drain()  # must not raise

        run(scenario())


class TestUnixFastPath:
    def test_out_channel_prefers_uds_when_available(self, tmp_path):
        import socket as socket_mod

        if not hasattr(socket_mod, "AF_UNIX"):
            pytest.skip("platform has no AF_UNIX")

        async def scenario():
            uds_path = str(tmp_path / "w.sock")
            received = []

            async def serve(reader, writer):
                attach = await read_frame(reader)
                assert attach.type is FrameType.ATTACH
                await send_frame(writer, FrameType.CREDIT, encode_credit(8))
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        writer.close()
                        return
                    if frame.type is FrameType.DATA:
                        received.append(decode_payload(frame.payload)[0])

            server = await asyncio.start_unix_server(serve, path=uds_path)
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", 1,  # TCP addr is a dead end
                registry, clock=loop.time, uds_path=uds_path,
            )
            await channel.connect()
            kind = channel.transport_kind
            for i in range(5):
                await channel.send(i, 8.0)
            await channel.close()
            server.close()
            await server.wait_closed()
            return kind, received

        kind, received = run(scenario())
        assert kind == "uds"
        assert received == [0, 1, 2, 3, 4]

    def test_missing_socket_file_falls_back_to_tcp(self, tmp_path):
        async def scenario():
            receiver = _SlowReceiver(window=4, consume_delay=0.0)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port,
                registry, clock=loop.time,
                uds_path=str(tmp_path / "never-bound.sock"),
            )
            await channel.connect()
            kind = channel.transport_kind
            await channel.send("hello", 8.0)
            await channel.send_eos()
            await asyncio.sleep(0.05)
            await channel.close()
            receiver.server.close()
            await receiver.server.wait_closed()
            return kind, receiver.received

        kind, received = run(scenario())
        assert kind == "tcp"
        assert received == 1


class TestInboxCancellation:
    """The lock-free inbox: cancelled waits lose neither entries nor wakeups."""

    def test_holds_no_lock_or_condition(self):
        inbox = AsyncInbox(capacity=4, window=4)
        assert not any(
            isinstance(value, (asyncio.Lock, asyncio.Condition))
            for value in vars(inbox).values()
        )

    def test_get_many_cancelled_by_its_timeout_loses_no_entry(self):
        async def scenario():
            inbox = AsyncInbox(capacity=64, window=4)
            total, got, timeouts = 400, [], 0

            async def producer():
                for i in range(total):
                    inbox.put_nowait(i)
                    # Mostly back-to-back, sometimes just about at the
                    # consumer's deadline.
                    await asyncio.sleep(0 if i % 3 else 0.0004)

            task = asyncio.create_task(producer())
            while len(got) < total:
                try:
                    got += await asyncio.wait_for(inbox.get_many(4), 0.0003)
                except asyncio.TimeoutError:
                    timeouts += 1
            await task
            return got, timeouts, inbox.current_length

        got, timeouts, left = run(scenario())
        assert got == list(range(400))
        assert left == 0
        assert timeouts > 0  # the timeouts really fired

    def test_a_woken_getter_cancelled_before_it_runs_passes_the_wakeup_on(self):
        """The race a ``wait_for`` timeout creates: the put resolves the
        first getter, which is cancelled before it runs.  The entry stays
        queued and the second getter is woken for it."""

        async def scenario():
            inbox = AsyncInbox(capacity=8, window=4)
            first = asyncio.create_task(inbox.get_many(4))
            second = asyncio.create_task(inbox.get_many(4))
            await asyncio.sleep(0)  # both park
            inbox.put_nowait("x")
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            return await asyncio.wait_for(second, 1.0), inbox.current_length

        assert run(scenario()) == (["x"], 0)

    def test_a_cancelled_putter_passes_the_room_on(self):
        async def scenario():
            inbox = AsyncInbox(capacity=1, window=4)
            await inbox.put("a")
            first = asyncio.create_task(inbox.put("b"))
            second = asyncio.create_task(inbox.put("c"))
            await asyncio.sleep(0)  # both park on the full inbox
            assert await inbox.get() == "a"  # room: wakes the first ...
            first.cancel()  # ... which is cancelled before it runs
            with pytest.raises(asyncio.CancelledError):
                await first
            await asyncio.wait_for(second, 1.0)
            return await inbox.get_many(4)

        assert run(scenario()) == ["c"]


class _RecordingTransport(asyncio.Transport):
    """An in-memory transport: keeps what is written, reports a settable
    write-buffer size."""

    def __init__(self, protocol=None):
        super().__init__()
        self.protocol = protocol
        self.written = bytearray()
        self.buffered = 0
        self.closing = False

    def write(self, data):
        self.written += data

    def get_write_buffer_size(self):
        return self.buffered

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def get_protocol(self):
        return self.protocol

    def frames(self):
        return FrameDecoder().feed(bytes(self.written))


_WIRE_FRAMES = [
    encode_frame(FrameType.DATA, payload(0, 8.0)),
    encode_frame(
        FrameType.DATA, payload_batch([(1, 8.0), (2, 8.0), (3, 8.0)])
    ),
    encode_frame(FrameType.DATA, payload(4, 8.0)),
    encode_frame(FrameType.DATA, payload({"k": "v"}, 8.0)),
    encode_frame(FrameType.EOS, encode_json({"stream": "s0"})),
]
_WIRE = b"".join(_WIRE_FRAMES)
_WIRE_ENTRIES = [1, 3, 1, 1, 1]  # inbox items each frame adds


def _entries_complete_by(offset):
    total, end = 0, 0
    for frame, entries in zip(_WIRE_FRAMES, _WIRE_ENTRIES):
        end += len(frame)
        if end > offset:
            break
        total += entries
    return total


class TestReceivePath:
    """The worker queues a frame's items from inside ``data_received``."""

    @staticmethod
    async def _attach(worker):
        """Dial ``s0`` on ``worker`` over an in-memory transport."""
        from repro.net.protocol import Frame, FrameStreamProtocol

        protocol = FrameStreamProtocol(asyncio.StreamReader())
        transport = _RecordingTransport(protocol)
        protocol.connection_made(transport)
        writer = asyncio.StreamWriter(
            transport, protocol, None, asyncio.get_running_loop()
        )
        attach = Frame(FrameType.ATTACH, encode_json({"stream": "s0", "dst": "sink"}))
        task = asyncio.create_task(worker._serve_peer(None, writer, attach))
        await asyncio.sleep(0)  # diverted, and the window granted
        assert [f.type for f in transport.frames()] == [FrameType.CREDIT]
        return protocol, transport, task, writer

    @staticmethod
    def _worker(code="repo://count-samps/join", window=64):
        from repro.net.worker import Worker

        worker = Worker()
        worker._register_stage({"stage": "sink", "code": code, "properties": {}})
        worker._register_channel(
            {"kind": "in", "stream": "s0", "dst": "sink", "window": window}
        )
        return worker

    async def _attached_worker(self):
        worker = self._worker()
        protocol, _transport, task, writer = await self._attach(worker)
        return worker._stages["sink"], protocol, task, writer

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=len(_WIRE)), max_size=8))
    @example(cuts=[len(_WIRE_FRAMES[0]) + 5])  # inside the second header
    @example(cuts=list(range(len(_WIRE))))  # one byte per call
    def test_each_chunk_is_queued_before_the_loop_runs_again(self, cuts):
        bounds = sorted({0, len(_WIRE), *cuts})

        async def scenario():
            stage, protocol, task, writer = await self._attached_worker()
            for start, stop in zip(bounds, bounds[1:]):
                protocol.data_received(_WIRE[start:stop])
                # No await since the call: whatever the chunk completed
                # is already in the inbox.
                assert stage.inbox.current_length == _entries_complete_by(stop)
            protocol.eof_received()
            await task
            writer.close()
            return stage, await stage.inbox.get_many(16)

        stage, drained = run(scenario())
        assert stage.error is None
        # One inbox entry per DATA frame, its items in order.
        assert [len(run.values) for run in drained[:-1]] == _WIRE_ENTRIES[:-1]
        assert [v for run in drained[:-1] for v in run.values] == [0, 1, 2, 3, 4, {"k": "v"}]
        assert type(drained[-1]).__name__ == "EndOfStream"

    @pytest.mark.parametrize("tail, reason", [
        (b"", "closed before EOS"),
        (_WIRE_FRAMES[0][:7], "closed mid-frame"),
        (encode_frame(FrameType.CREDIT, b"{}"), "unexpected CREDIT frame"),
    ])
    def test_a_broken_stream_fails_the_stage(self, tail, reason):
        async def scenario():
            stage, protocol, task, writer = await self._attached_worker()
            protocol.data_received(_WIRE_FRAMES[0] + tail)
            protocol.eof_received()
            await task
            writer.close()
            return stage

        stage = run(scenario())
        assert stage.done.is_set()
        assert "'s0'" in str(stage.error) and reason in str(stage.error)


    def test_a_redialed_sender_is_not_granted_the_old_senders_backlog(self):
        """A live migration moves the stage feeding ``s0``: its old
        connection ends (FIN, no EOS) with 8 items still queued here,
        unconsumed, and the replacement dials in for a fresh window.
        Those 8 items' credit left with the old connection, so the new
        sender is granted back exactly the 6 items it shipped, never
        more than its window (which its grant check would refuse)."""
        batch = payload_batch

        async def scenario():
            worker = self._worker("py://tests.net.test_channels:FreeSink", window=8)
            stage = worker._stages["sink"]
            old, _, old_task, old_writer = await self._attach(worker)
            old.data_received(encode_frame(FrameType.DATA, batch([(i, 8.0) for i in range(8)])))
            worker._migrating_streams.add("s0")
            old.eof_received()
            await old_task
            old_writer.close()
            new, transport, new_task, new_writer = await self._attach(worker)
            new.data_received(
                encode_frame(FrameType.DATA, batch([(i, 8.0) for i in range(8, 14)]))
                + encode_frame(FrameType.EOS, encode_json({"stream": "s0"}))
            )
            await worker._stage_task(stage)
            new.eof_received()
            await new_task
            new_writer.close()
            return stage, [decode_credit(f.payload) for f in transport.frames()]

        stage, grants = run(scenario())
        assert stage.error is None and stage.processor.items == 14
        assert grants == [8, 6]

class _TransportWriter:
    """The ``StreamWriter`` surface ``OutChannel`` uses, over a
    :class:`_RecordingTransport`."""

    def __init__(self):
        self.transport = _RecordingTransport()
        self.drains = 0

    def write(self, data):
        self.transport.write(data)

    async def drain(self):
        self.drains += 1

    def can_write_eof(self):
        return False

    def close(self):
        self.transport.close()

    async def wait_closed(self):
        return None


def _grant(channel, n):
    channel._on_frames(FrameDecoder().feed(encode_frame(FrameType.CREDIT, encode_credit(n))))


async def _block_paused(channel):
    await channel.pause()
    task = asyncio.create_task(channel.send(1, 8.0))
    await asyncio.sleep(0.01)
    assert not task.done()
    channel.resume()
    await task


async def _block_short_of_credit(channel):
    await channel.send(1, 8.0)
    await channel.send(2, 8.0)  # the window of 2 is spent
    task = asyncio.create_task(channel.send(3, 8.0))
    await asyncio.sleep(0.01)
    assert not task.done()
    _grant(channel, 1)
    await task


async def _block_broken(channel):
    channel._on_close(None)  # the receiver went away
    await asyncio.sleep(0)
    for i in range(3):  # two credits on hand, then the error
        await channel.send(i, 8.0)


async def _block_buffered(channel):
    channel._writer.transport.buffered = 1
    await channel.send(1, 8.0)
    await channel.send_eos()


async def _block_gate_held(channel):
    async with channel._send_gate:
        task = asyncio.create_task(channel.send(1, 8.0))
        await asyncio.sleep(0.01)
        assert not task.done()
    await task


class TestSendFastPath:
    """``OutChannel`` writes without awaiting only when nothing could hold
    the frame up; every other case takes the old awaited path and ends
    exactly as it did before the fast path existed."""

    @staticmethod
    def _outcome(block, fast):
        async def scenario():
            registry = MetricsRegistry()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", 0, registry,
                clock=asyncio.get_running_loop().time,
            )
            channel._writer = _TransportWriter()
            _grant(channel, 2)
            await asyncio.sleep(0)
            assert channel.window == 2
            slow = []
            ship = channel._ship

            async def spy(frame, items):
                slow.append(items)
                await ship(frame, items)

            channel._ship = spy
            if not fast:
                channel._ship_now = lambda frame, items: False
            error = None
            try:
                await block(channel)
            except ChannelError as exc:
                error = str(exc)
            frames = [(f.type, f.payload) for f in channel._writer.transport.frames()]
            await channel.close(linger=0.01)
            return {
                "frames": frames,
                "error": error,
                "items_sent": channel.items_sent,
                "metrics": {
                    name: registry.value(f"net.testchan.{name}")
                    for name in ("frames", "bytes", "credit_stalls", "in_flight_peak")
                },
            }, slow

        return run(scenario())

    def test_sends_with_credit_on_hand_never_await(self):
        async def scenario():
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", 0, MetricsRegistry(),
                clock=asyncio.get_running_loop().time,
            )
            channel._writer = _TransportWriter()
            channel._window = channel._credits = 4

            async def never(frame, items):
                raise AssertionError("took the awaited path")

            channel._ship = never
            await channel.send(1, 8.0)
            await channel.send_batch([(2, 8.0), (3, 8.0)])
            await channel.send_eos()
            return channel

        channel = run(scenario())
        assert channel._writer.drains == 0
        assert channel.items_sent == 3 and channel.peak_in_flight == 3
        assert [f.type for f in channel._writer.transport.frames()] == [
            FrameType.DATA, FrameType.DATA, FrameType.EOS,
        ]

    @pytest.mark.parametrize("block, slow_sends", [
        (_block_paused, [1]),
        (_block_short_of_credit, [1]),
        (_block_broken, [1, 1, 1]),
        (_block_buffered, [1, 0]),
        (_block_gate_held, [1]),
    ])
    def test_a_blocked_send_takes_the_awaited_path(self, block, slow_sends):
        outcome, slow = self._outcome(block, fast=True)
        before, _ = self._outcome(block, fast=False)
        assert slow == slow_sends
        assert outcome == before


def _run_of(values):
    return ItemRun(list(values), [8.0] * len(values), 0.0, "s")


class TestInboxRunEntries:
    """A DATA frame is one inbox entry; lengths and chunks count items."""

    def test_current_length_counts_items(self):
        async def scenario():
            inbox = AsyncInbox(capacity=4, window=4)
            inbox.put_nowait(_run_of(range(32)))
            inbox.put_nowait("local")
            lengths = [inbox.current_length]
            await inbox.get_many(10)
            lengths.append(inbox.current_length)
            return lengths, list(inbox._recent)

        lengths, recent = run(scenario())
        assert lengths == [33, 23]
        # One queue-length sample per item put (the window of four keeps
        # the frame's last three) and one per take.
        assert recent == [31, 32, 33, 23]

    def test_get_many_splits_an_entry_larger_than_max_items(self):
        async def scenario():
            inbox = AsyncInbox(capacity=64, window=4)
            inbox.put_nowait(_run_of(range(10)))
            inbox.put_nowait(_run_of(range(10, 13)))
            chunks = []
            while inbox.current_length:
                chunks.append(await inbox.get_many(4))
            return chunks

        chunks = run(scenario())
        assert [[list(r.values) for r in chunk] for chunk in chunks] == [
            [[0, 1, 2, 3]], [[4, 5, 6, 7]], [[8, 9], [10, 11]], [[12]],
        ]
        assert all(sum(len(r.sizes) for r in chunk) <= 4 for chunk in chunks)

    def test_a_barrier_is_never_mixed_into_a_chunk_of_runs(self):
        async def scenario():
            inbox = AsyncInbox(capacity=64, window=4)
            inbox.put_nowait(_run_of(range(3)))
            await inbox.put_barrier("FENCE")
            inbox.put_nowait(_run_of(range(3, 5)))
            return [await inbox.get_many(16) for _ in range(3)]

        first, second, third = run(scenario())
        assert [list(r.values) for r in first] == [[0, 1, 2]]
        assert second == ["FENCE"]
        assert [list(r.values) for r in third] == [[3, 4]]

    def test_a_cancelled_get_many_loses_no_item_of_a_run(self):
        async def scenario():
            inbox = AsyncInbox(capacity=64, window=4)
            total, got, timeouts = 300, [], 0

            async def producer():
                for index, start in enumerate(range(0, total, 3)):
                    inbox.put_nowait(_run_of(range(start, min(start + 3, total))))
                    # Mostly back to back, sometimes past the deadline.
                    await asyncio.sleep(0.001 if index % 4 == 3 else 0)

            task = asyncio.create_task(producer())
            while len(got) < total:
                try:
                    chunk = await asyncio.wait_for(inbox.get_many(5), 0.0003)
                except asyncio.TimeoutError:
                    timeouts += 1
                    continue
                got += [v for r in chunk for v in r.values]
            await task
            return got, timeouts, inbox.current_length

        got, timeouts, left = run(scenario())
        assert got == list(range(300))
        assert left == 0
        assert timeouts > 0


class _HostileReceiver:
    """Grants a window of 4, then answers the first DATA frame with
    ``body`` as a CREDIT, and keeps reading until the sender leaves."""

    def __init__(self, body):
        self.body = body
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        await read_frame(reader)  # ATTACH
        await send_frame(writer, FrameType.CREDIT, encode_credit(4))
        answered = False
        while (frame := await read_frame(reader)) is not None:
            if frame.type is FrameType.DATA and not answered:
                answered = True
                await send_frame(writer, FrameType.CREDIT, self.body)
        writer.close()


class TestHostileGrants:
    """A grant that is not a positive count, or that would lift the
    credits above the window, breaks the channel with an error naming the
    stream and the cause — instead of a wedged sender or a misreport."""

    @pytest.mark.parametrize("body, cause", [
        (encode_credit(-100), "CREDIT grant of -100"),
        (encode_credit(0), "CREDIT grant of 0"),
        (encode_credit(1000), "CREDIT grant of 1000"),
        (b"x", "CREDIT body of 1 bytes"),
    ])
    def test_a_bad_grant_breaks_the_channel(self, body, cause):
        async def scenario():
            receiver = _HostileReceiver(body)
            await receiver.start()
            registry = MetricsRegistry()
            loop = asyncio.get_running_loop()
            channel = OutChannel(
                "testchan", "dst", "127.0.0.1", receiver.port, registry, clock=loop.time,
            )
            await channel.connect()
            started = loop.time()
            with pytest.raises(ChannelError) as raised:
                for i in range(100):
                    await channel.send(i, 8.0)
            elapsed = loop.time() - started
            await channel.close(linger=0.5)
            receiver.server.close()
            await receiver.server.wait_closed()
            return str(raised.value), elapsed, channel, registry

        message, elapsed, channel, registry = run(scenario(), timeout=10.0)
        assert "'testchan'" in message and cause in message
        assert elapsed < 5.0
        # The in-flight bound held to the end: no send spent credit that
        # was never granted.
        assert channel.items_sent <= 4
        assert channel.peak_in_flight <= 4
        assert registry.value("net.testchan.credit_frames") == 1  # the window only


class TestCreditConservation:
    """The real sender (``OutChannel.send_batch``) against the real
    receiver half (``AsyncInbox`` + ``InChannel`` + the worker's
    ``_return_credit``), wired back to back in memory, over generated
    frame sizes, chunk limits and receiver wakeup patterns."""

    @settings(max_examples=120, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=40),
        batches=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=12),
        limit=st.integers(min_value=1, max_value=48),
        wakeups=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=16)
        .filter(any),
    )
    @example(window=4, batches=[1, 4], limit=1, wakeups=[1])  # a frame above the unearned slack
    def test_grants_conserve_credit_and_none_is_held_at_idle(self, window, batches, limit, wakeups):
        from repro.net.protocol import decode_payload_columns
        from repro.net.worker import _return_credit

        async def scenario():
            inbox = AsyncInbox(capacity=10**6, window=4)
            receiver = InChannel("testchan", "dst", window)
            sender = OutChannel(
                "testchan", "dst", "127.0.0.1", 0, MetricsRegistry(),
                clock=asyncio.get_running_loop().time,
            )
            grants, arrived = [], [0]

            class Backchannel(_FakeWriter):
                def write(self, data):
                    frames = self.decoder.feed(data)
                    grants.extend(decode_credit(f.payload) for f in frames)
                    sender._on_frames(frames)

            class Wire(_TransportWriter):
                def write(self, data):
                    for frame in FrameDecoder().feed(bytes(data)):
                        if frame.type is FrameType.DATA:
                            values, sizes = decode_payload_columns(frame.payload)
                            arrived[0] += len(values)
                            # In flight never exceeds the window.
                            assert arrived[0] <= sum(grants)
                            inbox.put_nowait(ItemRun(values, sizes, 0.0, "testchan"))

            sender._writer = Wire()
            receiver.attach(Backchannel())
            total = sum(batches)

            async def send_all():
                for n in batches:
                    await sender.send_batch([(i, 8.0) for i in range(n)])

            feeding = asyncio.create_task(send_all())
            consumed, idle_rounds, pattern, last = 0, 0, 0, None
            while consumed < total:
                # One wakeup: take up to k chunks without suspending ...
                for _ in range(wakeups[pattern % len(wakeups)]):
                    if not inbox.current_length:
                        break
                    for entry in await inbox.get_many(limit):
                        receiver.note_consumed(len(entry.values))
                        consumed += len(entry.values)
                pattern += 1
                # ... then return credit just before idling.
                before = len(grants)
                assert _return_credit([receiver]) == []
                assert len(grants) - before <= 1
                assert receiver._consumed < receiver.replenish_batch
                assert sum(grants) + receiver._consumed == window + consumed
                state = (consumed, arrived[0], len(grants))
                idle_rounds = idle_rounds + 1 if state == last else 0
                last = state
                assert idle_rounds < 50, "the sender starved on held credit"
                await asyncio.sleep(0)
            await feeding
            return grants

        grants = run(scenario())
        assert all(n > 0 for n in grants)  # no zero-count CREDIT


class FreeRelay(StreamProcessor):
    """Forwards every item at no modeled cost (the stage never sleeps)."""

    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.emit(payload)


class FreeSink(FreeRelay):
    """Counts arrivals at no modeled cost."""

    def __init__(self):
        self.items = 0

    def on_item(self, payload, context):
        self.items += 1

    def result(self):
        return self.items


class TestCreditPerWakeup:
    def test_an_in_process_relay_returns_at_most_one_credit_per_hop_per_wakeup(
        self, monkeypatch
    ):
        """source -> relay -> sink over two in-process workers, batched as
        the saturating bench relay is.  Every CREDIT after the initial
        window is written right before the receiving stage's task could
        suspend: a take from an empty inbox, a send that cannot go out
        at once, or its end.  Counting those per stage bounds the
        grants of each hop into it."""
        import io
        import threading

        from repro.core.batching import BatchPolicy
        from repro.grid.config import AppConfig, StageConfig, StreamConfig
        from repro.grid.resources import ResourceRequirement
        from repro.net.coordinator import NetworkedRuntime
        from repro.net.worker import Worker

        waits = {}
        get_many, ship, wait_for = AsyncInbox.get_many, OutChannel._ship, asyncio.wait_for

        async def counting_get_many(inbox, max_items):
            if not inbox.current_length:
                waits[id(inbox)] = waits.get(id(inbox), 0) + 1
            return await get_many(inbox, max_items)

        async def counting_wait_for(aw, timeout):
            inbox = getattr(aw, "cr_frame", None) and aw.cr_frame.f_locals.get("self")
            if isinstance(inbox, AsyncInbox) and inbox.current_length:
                waits[id(inbox)] = waits.get(id(inbox), 0) + 1  # a due-batch timeout
            return await wait_for(aw, timeout)

        async def counting_ship(channel, frame, items):
            waits[id(channel)] = waits.get(id(channel), 0) + 1
            await ship(channel, frame, items)

        monkeypatch.setattr(AsyncInbox, "get_many", counting_get_many)
        monkeypatch.setattr(OutChannel, "_ship", counting_ship)
        monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)

        loop = asyncio.new_event_loop()
        workers = [Worker(), Worker()]
        announces = [io.StringIO() for _ in workers]
        serving = [loop.create_task(w.serve(announce=a)) for w, a in zip(workers, announces)]
        thread = threading.Thread(
            target=lambda: loop.run_until_complete(asyncio.gather(*serving)), daemon=True
        )
        thread.start()
        try:
            while not all(a.getvalue() for a in announces):
                threading.Event().wait(0.01)
            stages = "py://tests.net.test_channels:"
            config = AppConfig(
                name="relay",
                stages=[
                    StageConfig("relay", stages + "FreeRelay",
                                requirement=ResourceRequirement(placement_hint="worker-0")),
                    StageConfig("sink", stages + "FreeSink",
                                requirement=ResourceRequirement(placement_hint="worker-1")),
                ],
                streams=[StreamConfig("wire", "relay", "sink")],
            )
            runtime = NetworkedRuntime(
                config, workers=[("127.0.0.1", int(a.getvalue().split()[1])) for a in announces],
                adaptation_enabled=False, credit_window=64, batch=BatchPolicy(32, 0.02),
                verify=False,
            )
            runtime.bind_source("src", "relay", list(range(4000)), item_size=8.0)
            result = runtime.run(timeout=60.0)
        finally:
            thread.join(timeout=5.0)
            if thread.is_alive():
                loop.call_soon_threadsafe(lambda: [task.cancel() for task in serving])
                thread.join(timeout=5.0)
            loop.close()
        assert result.final_value("sink") == 4000
        by_name = {name: stage for w in workers for name, stage in w._stages.items()}
        relay, sink = by_name["relay"], by_name["sink"]
        relay_wakeups = waits.get(id(relay.inbox), 0) + sum(
            waits.get(id(route.channel), 0) for route in relay.out_routes
        )
        sink_wakeups = waits.get(id(sink.inbox), 0)
        for stream, wakeups in (("src", relay_wakeups), ("wire", sink_wakeups)):
            grants = result.metrics.counter(f"net.{stream}.credit_frames").value
            frames = result.metrics.counter(f"net.{stream}.frames").value
            # The initial window, then at most one per wakeup (+1: the end).
            assert 1 < grants <= 1 + wakeups + 1, (stream, grants, wakeups)
            assert grants - 1 <= frames  # never more grants than DATA frames
