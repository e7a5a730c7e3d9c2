"""Unit tests for the link and token-bucket models."""

import math

import pytest

from repro.simnet.engine import Environment
from repro.simnet.links import Link, Message, TokenBucket


class TestLink:
    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            Link(env, bandwidth=0)
        with pytest.raises(ValueError):
            Link(env, bandwidth=100, latency=-1)

    def test_transmission_time(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        assert link.transmission_time(250.0) == pytest.approx(2.5)

    def test_infinite_bandwidth_is_instant(self):
        env = Environment()
        link = Link(env, bandwidth=math.inf)
        assert link.transmission_time(1e9) == 0.0

    def test_message_delivery_timing(self):
        env = Environment()
        link = Link(env, bandwidth=100.0, latency=1.0)
        arrivals = []

        def receiver(env):
            msg = yield link.receive()
            arrivals.append((env.now, msg.payload))

        def sender(env):
            yield link.send("hello", size=200.0)

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        # 200 bytes / 100 Bps = 2s TX + 1s latency = arrives at t=3.
        assert arrivals == [(3.0, "hello")]

    def test_sender_blocks_for_transmission_only(self):
        env = Environment()
        link = Link(env, bandwidth=100.0, latency=10.0)
        tx_done = []

        def sender(env):
            yield link.send("x", size=100.0)
            tx_done.append(env.now)

        env.process(sender(env))
        env.run()
        assert tx_done == [1.0]  # latency not charged to the sender

    def test_fifo_serialization(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        arrivals = []

        def sender(env):
            # Fire two sends back-to-back without waiting.
            link.send("first", size=100.0)
            link.send("second", size=100.0)
            yield env.timeout(0.0)

        def receiver(env):
            for _ in range(2):
                msg = yield link.receive()
                arrivals.append((env.now, msg.payload))

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert arrivals == [(1.0, "first"), (2.0, "second")]

    def test_stats_accumulate(self):
        env = Environment()
        link = Link(env, bandwidth=100.0, latency=0.5)

        def sender(env):
            yield link.send("a", size=100.0)
            yield link.send("b", size=300.0)

        env.process(sender(env))
        env.run()
        assert link.stats.messages == 2
        assert link.stats.bytes == pytest.approx(400.0)
        assert link.stats.busy_time == pytest.approx(4.0)

    def test_utilization(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)

        def sender(env):
            yield link.send("a", size=100.0)
            yield env.timeout(3.0)

        env.process(sender(env))
        env.run()
        assert link.utilization() == pytest.approx(1.0 / 4.0)

    def test_negative_size_rejected(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        with pytest.raises(ValueError):
            link.send("x", size=-1.0)
        env.run()

    def test_delivery_callback(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        seen = []
        link.on_delivery = lambda msg: seen.append(msg.payload)

        def sender(env):
            yield link.send("ping", size=10.0)

        env.process(sender(env))
        env.run()
        assert seen == ["ping"]

    def test_sequence_numbers_monotonic(self):
        env = Environment()
        link = Link(env, bandwidth=1000.0)
        seqs = []
        link.on_delivery = lambda msg: seqs.append(msg.seq)

        def sender(env):
            for i in range(5):
                yield link.send(i, size=10.0)

        env.process(sender(env))
        env.run()
        assert seqs == [0, 1, 2, 3, 4]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTokenBucket:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, burst=0)

    def test_burst_consumed_without_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=50.0, clock=clock)
        assert bucket.consume(50.0) == 0.0

    def test_wait_time_when_exhausted(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=50.0, clock=clock)
        bucket.consume(50.0)
        assert bucket.consume(100.0) == pytest.approx(1.0)

    def test_refill_over_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=10.0, clock=clock)
        bucket.consume(10.0)
        clock.t = 1.0
        assert bucket.tokens == pytest.approx(10.0)

    def test_refill_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        clock.t = 100.0
        assert bucket.tokens == pytest.approx(5.0)

    def test_long_run_rate_is_exact(self):
        clock = FakeClock()
        rate = 100.0
        bucket = TokenBucket(rate=rate, burst=10.0, clock=clock)
        total_bytes = 0.0
        for _ in range(100):
            wait = bucket.consume(25.0)
            total_bytes += 25.0
            clock.t += wait
        # Long-run throughput approaches the configured rate.
        assert total_bytes / clock.t == pytest.approx(rate, rel=0.05)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=10.0).consume(-1.0)


class TestMessage:
    def test_defaults(self):
        msg = Message(payload="x", size=10.0)
        assert msg.seq == -1
        assert msg.sent_at == 0.0
