"""Unit tests for capacity resources, stores, and bounded queues."""

import pytest

from repro.simnet.engine import Environment
from repro.simnet.resources import (
    BoundedQueue,
    CapacityResource,
    QueueFullError,
    Store,
)


def run_jobs(env, res, jobs):
    """Claim one unit per ``(name, hold)`` job at t=0 and run to the end.

    Returns ``(name, start, end)`` spans in completion order.
    """
    spans = []
    for name, hold in jobs:
        def start(name=name, hold=hold):
            began = env.now

            def done(_event):
                res.free()
                spans.append((name, began, env.now))

            env.call_later(hold, done)

        res.claim(start)
    env.run()
    return spans


class TestCapacityResource:
    def test_invalid_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            CapacityResource(env, capacity=0)

    def test_immediate_grant_when_available(self):
        env = Environment()
        res = CapacityResource(env, capacity=2)
        granted = []
        res.claim(lambda: granted.append(env.now))
        assert granted == [0.0]
        assert res.in_use == 1
        assert res.capacity - res.in_use == 1
        assert res.queue_length == 0

    def test_contention_serializes(self):
        env = Environment()
        res = CapacityResource(env, capacity=1)
        spans = run_jobs(env, res, [("a", 2.0), ("b", 3.0)])
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]
        assert res.in_use == 0

    def test_fifo_grant_order(self):
        env = Environment()
        res = CapacityResource(env, capacity=1)
        spans = run_jobs(env, res, [(name, 1.0) for name in "abc"])
        assert [(name, start) for name, start, _ in spans] == [
            ("a", 0.0), ("b", 1.0), ("c", 2.0)
        ]

    def test_waiters_queue_until_freed(self):
        env = Environment()
        res = CapacityResource(env, capacity=1)
        started = []
        for name in "ab":
            res.claim(lambda name=name: started.append(name))
        assert started == ["a"] and res.queue_length == 1
        res.free()  # a's unit passes straight to b
        assert started == ["a", "b"] and res.queue_length == 0
        assert res.in_use == 1
        res.free()
        assert res.in_use == 0

    def test_free_without_claim_raises(self):
        env = Environment()
        res = CapacityResource(env)
        res.claim(lambda: None)
        res.free()
        with pytest.raises(ValueError):
            res.free()

    def test_multi_core_parallelism(self):
        env = Environment()
        res = CapacityResource(env, capacity=2)
        spans = run_jobs(env, res, [(name, 5.0) for name in "abc"])
        # a and b run in parallel; c waits for the first free().
        assert [(name, end) for name, _, end in spans] == [
            ("a", 5.0), ("b", 5.0), ("c", 10.0)
        ]


class TestStore:
    def test_put_get_roundtrip(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            yield store.put("item")

        def consumer(env):
            item = yield store.get()
            got.append(item)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["item"]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer(env):
            yield store.get()
            times.append(env.now)

        def producer(env):
            yield env.timeout(7.0)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [7.0]

    def test_put_blocks_when_full(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            yield store.put("b")
            times.append(env.now)

        def consumer(env):
            yield env.timeout(4.0)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [4.0]

    def test_try_put_full_raises(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.try_put("a")
        with pytest.raises(QueueFullError):
            store.try_put("b")

    def test_try_get_empty_raises(self):
        env = Environment()
        with pytest.raises(IndexError):
            Store(env).try_get()

    def test_try_put_with_waiting_getter_bypasses_capacity(self):
        env = Environment()
        store = Store(env, capacity=1)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append(item)

        env.process(consumer(env))
        env.run()
        store.try_put("x")
        env.run()
        assert got == ["x"]

    def test_len_and_flags(self):
        env = Environment()
        store = Store(env, capacity=2)
        assert len(store) == 0 and not store.is_full
        store.try_put(1)
        store.try_put(2)
        assert store.is_full and len(store) == 2


class TestParkedProducers:
    """``Store.offer``: a producer that waits as a callable, not an event."""

    @staticmethod
    def producer(env, store, items, log):
        """Offer ``items`` one by one; log each resumption's time."""
        pending = iter(items)

        def resume(_event):
            log.append(("resumed", env.now))
            for item in pending:
                if not store.offer(item, resume):
                    return

        return resume

    def test_offer_into_room_goes_on_when_nothing_else_is_due(self):
        env = Environment()
        store = Store(env, capacity=2)
        assert store.offer("a", lambda _e: None) is True
        env.event().succeed()  # an ordinary event at this instant
        log = []
        assert store.offer("b", lambda _e: log.append(env.now)) is False
        assert log == []
        env.run()
        assert log == [0.0] and list(store._items) == ["a", "b"]

    def test_full_store_parks_and_try_get_resumes_inline(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []
        self.producer(env, store, ["a", "b", "c"], log)(None)
        assert list(store._items) == ["a"] and len(store._putters) == 1
        assert store.try_get() == "a"
        # "b" was admitted and the producer offered "c" before try_get
        # returned: no event was scheduled for it.
        assert log == [("resumed", 0.0), ("resumed", 0.0)]
        assert list(store._items) == ["b"] and env.peek() == float("inf")

    def test_resumption_waits_its_turn_when_an_event_is_due(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []
        self.producer(env, store, ["a", "b"], log)(None)
        env.event().succeed().callbacks.append(lambda _e: log.append("due"))
        store.try_get()
        assert log == [("resumed", 0.0)]  # not yet
        env.run()
        assert log == [("resumed", 0.0), "due", ("resumed", 0.0)]

    def test_admission_after_a_purge_resumes_by_event(self):
        # The failover path refills the queue, admits, then goes on (it
        # spawns the restarted worker): the producer must wait its turn.
        env = Environment()
        store = Store(env, capacity=1)
        log = []
        self.producer(env, store, ["a", "b"], log)(None)
        store.purge()
        store.admit_waiting()
        assert log == [("resumed", 0.0)] and list(store._items) == ["b"]
        env.run()
        assert log == [("resumed", 0.0), ("resumed", 0.0)]

    def test_parked_and_blocked_puts_are_admitted_fifo(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put("first")
        order = []
        store.offer("parked", lambda _e: order.append("parked resumed"))
        store.put("requested").callbacks.append(lambda _e: order.append("put done"))
        got = [store.try_get(), store.try_get(), store.try_get()]
        env.run()
        assert got == ["first", "parked", "requested"]
        assert order == ["parked resumed", "put done"]


class TestBoundedQueue:
    def test_requires_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=0)
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=10, window=0)

    def test_current_length_tracks_occupancy(self):
        env = Environment()
        q = BoundedQueue(env, capacity=10)
        q.try_put("a")
        q.try_put("b")
        assert q.current_length == 2
        q.try_get()
        assert q.current_length == 1

    def test_recent_average_reflects_window(self):
        env = Environment()
        q = BoundedQueue(env, capacity=10, window=4)
        for _ in range(3):
            q.try_put("x")
        # window samples: initial 0, then 1, 2, 3 -> but maxlen 4 keeps all
        assert q.recent_average == pytest.approx((0 + 1 + 2 + 3) / 4)

    def test_blocking_put_applies_backpressure(self):
        env = Environment()
        q = BoundedQueue(env, capacity=2)
        finished = []

        def producer(env):
            for i in range(4):
                yield q.put(i)
            finished.append(env.now)

        def consumer(env):
            for _ in range(4):
                yield env.timeout(5.0)
                yield q.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        # The 4th put can only complete after 2 gets: t=10.
        assert finished == [10.0]
