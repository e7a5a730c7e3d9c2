"""Backpressure regression tests for the threaded runtime's bounded queue.

The seed behaviour silently grew the queue past its capacity, which let a
fast producer outrun a slow consumer unboundedly and starved the
Section-4 queue-length signal of meaning.  ``put`` must genuinely block
at capacity; ``force_put`` stays non-blocking for the error-path
end-of-stream; ``close`` releases blocked producers so a dead consumer
cannot deadlock the run.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime_threads import _MonitoredQueue


def make_queue(capacity=2, window=12):
    return _MonitoredQueue(capacity=capacity, window=window)


class TestPutBlocksAtCapacity:
    def test_put_blocks_until_consumer_drains(self):
        queue = make_queue(capacity=2)
        queue.put("a")
        queue.put("b")
        unblocked = threading.Event()

        def producer():
            queue.put("c")  # must block: queue is at capacity
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not unblocked.wait(0.1), "put() returned while queue was full"
        assert queue.current_length == 2
        assert queue.get_many(1, timeout=1.0) == ["a"]  # held: still full
        assert not unblocked.wait(0.1), "put() ignored the held item"
        assert queue.get_many(1, timeout=1.0) == ["b"]  # releases "a"
        assert unblocked.wait(2.0), "put() stayed blocked after a drain"
        thread.join(2.0)
        assert queue.current_length == 2  # "b" held, "c" queued

    def test_put_many_respects_capacity_exactly(self):
        queue = make_queue(capacity=3)
        done = threading.Event()

        def producer():
            queue.put_many(list(range(10)))
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not done.wait(0.1)
        taken = []
        while len(taken) < 10:
            got = queue.get_many(3, timeout=2.0)
            assert len(got) <= 3
            taken.extend(got)
            # The bound holds at every observable instant.
            assert queue.current_length <= 3
        assert taken == list(range(10))
        assert done.wait(2.0)
        thread.join(2.0)

    def test_force_put_never_blocks(self):
        queue = make_queue(capacity=1)
        queue.put("a")
        start = time.monotonic()
        queue.force_put("eos")  # over capacity, returns immediately
        assert time.monotonic() - start < 0.5
        assert queue.current_length == 2


class TestCloseReleasesProducers:
    def test_close_unblocks_a_blocked_put(self):
        queue = make_queue(capacity=1)
        queue.put("a")
        released = threading.Event()

        def producer():
            queue.put("b")  # blocks at capacity until close()
            released.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not released.wait(0.1)
        queue.close()
        assert released.wait(2.0), "close() did not release the blocked put"
        thread.join(2.0)
        # The dropped item was never appended.
        assert queue.current_length == 1

    def test_puts_after_close_are_dropped(self):
        queue = make_queue(capacity=4)
        queue.close()
        queue.put("x")
        queue.put_many(["y", "z"])
        queue.force_put("w")
        assert queue.current_length == 0


class TestGetMany:
    def test_drains_up_to_max_without_waiting_for_more(self):
        queue = make_queue(capacity=10)
        queue.put_many([1, 2, 3])
        assert queue.get_many(8, timeout=1.0) == [1, 2, 3]

    def test_times_out_when_empty(self):
        queue = make_queue()
        with pytest.raises(TimeoutError):
            queue.get_many(4, timeout=0.05)
        queue.put("a")
        assert queue.get_many(4, timeout=0.05) == ["a"]
        with pytest.raises(TimeoutError):
            queue.get_many(4, timeout=0.05)  # releases "a", then times out
        assert queue.current_length == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            make_queue(capacity=0)


class TestHeldItems:
    """``get_many`` keeps what it took counted until the next take, so
    queued plus in-hand items never exceed the capacity and the length
    still shows backlog the stage has not served."""

    def test_current_length_counts_held_items_until_the_next_take(self):
        queue = make_queue(capacity=10)
        queue.put_many([1, 2, 3])
        assert queue.get_many(10, timeout=1.0) == [1, 2, 3]
        assert queue.current_length == 3
        queue.put(4)
        assert queue.current_length == 4
        assert queue.get_many(10, timeout=1.0) == [4]  # releases 1-3
        assert queue.current_length == 1
        with pytest.raises(TimeoutError):
            queue.get_many(10, timeout=0.01)  # releases 4, then times out
        assert queue.current_length == 0

    def test_held_items_keep_producers_blocked(self):
        queue = make_queue(capacity=2)
        queue.put_many(["a", "b"])
        assert queue.get_many(2, timeout=1.0) == ["a", "b"]
        unblocked = threading.Event()

        def producer():
            queue.put("c")
            unblocked.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not unblocked.wait(0.1), "put() ignored the items the consumer holds"
        assert queue.get_many(2, timeout=2.0) == ["c"]
        assert unblocked.wait(2.0)
        thread.join(2.0)

    def test_release_is_one_length_sample(self):
        queue = make_queue(capacity=10, window=64)
        queue.put_many([1, 2, 3])
        queue.get_many(10, timeout=1.0)  # a take changes no length
        assert list(queue._recent) == [0, 1, 2, 3]
        queue.put(4)
        queue.get_many(10, timeout=1.0)  # releases 3: one sample
        assert list(queue._recent) == [0, 1, 2, 3, 4, 1]


@pytest.mark.parametrize("held", [0, 2])
@pytest.mark.parametrize("xs", [[7], list(range(5)), list(range(12))])
def test_put_many_samples_like_put_per_item(xs, held):
    """A chunk put is one d̄ sample per item, as ``put`` of each item in
    turn — not one per chunk, which let a batched stage's window span
    up to ``window`` chunks."""
    queues = [make_queue(capacity=20, window=8) for _ in range(2)]
    for queue in queues:
        queue.put_many(list(range(held)))
        if held:
            queue.get_many(held, timeout=1.0)
    queues[0].put_many(xs)
    for x in xs:
        queues[1].put(x)
    assert list(queues[0]._recent) == list(queues[1]._recent)


def _check_bound(queue):
    with queue._lock:
        assert len(queue._items) + queue._held <= queue.capacity


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 6),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 99)),
            st.tuples(st.just("put_many"), st.lists(st.integers(0, 99), max_size=8)),
            st.tuples(st.just("get_many"), st.integers(1, 8)),
            st.tuples(st.just("close"), st.none()),
        ),
        max_size=40,
    ),
)
def test_any_interleaving_keeps_queued_plus_held_within_capacity(capacity, ops):
    """Sequential model check: every operation the queue would accept
    without blocking keeps queued + held <= capacity, FIFO order, and
    ``current_length`` equal to the model's queued + held."""
    queue = make_queue(capacity=capacity)
    queued, held, closed = [], 0, False
    for op, arg in ops:
        if op == "put" and (closed or len(queued) + held < capacity):
            queue.put(arg)
            if not closed:
                queued.append(arg)
        elif op == "put_many" and (closed or len(queued) + held + len(arg) <= capacity):
            queue.put_many(arg)
            if not closed:
                queued.extend(arg)
        elif op == "get_many":
            held = 0
            if queued:
                taken = queue.get_many(arg, timeout=0.0)
                assert taken == queued[:arg]
                del queued[:arg]
                held = len(taken)
            else:
                with pytest.raises(TimeoutError):
                    queue.get_many(arg, timeout=0.0)
        elif op == "close":
            queue.close()
            closed = True
        _check_bound(queue)
        assert queue.current_length == len(queued) + held


@settings(max_examples=15, deadline=None)
@given(
    capacity=st.integers(1, 5),
    chunks=st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=9), max_size=12),
    take=st.integers(1, 6),
    close_after=st.one_of(st.none(), st.integers(0, 20)),
)
def test_threaded_producers_and_consumer_never_exceed_capacity(
    capacity, chunks, take, close_after
):
    """A producer thread puts chunks (``put`` for singletons), a consumer
    takes with ``get_many`` and may ``close`` mid-stream, and an
    observer samples the length throughout: queued + held stays within
    capacity at every observed instant, and what the consumer gets is a
    FIFO prefix of what was put (all of it unless it closed)."""
    queue = make_queue(capacity=capacity)
    sent = [x for chunk in chunks for x in chunk]
    got, stop = [], threading.Event()
    violations = []

    def producer():
        for chunk in chunks:
            if len(chunk) == 1:
                queue.put(chunk[0])
            else:
                queue.put_many(chunk)

    def observer():
        while not stop.is_set():
            with queue._lock:
                if len(queue._items) + queue._held > capacity:
                    violations.append(len(queue._items) + queue._held)

    threads = [threading.Thread(target=f, daemon=True) for f in (producer, observer)]
    for thread in threads:
        thread.start()
    takes = 0
    while len(got) < len(sent):
        if close_after is not None and takes == close_after:
            queue.close()
            break
        try:
            got.extend(queue.get_many(take, timeout=2.0))
        except TimeoutError:
            break
        takes += 1
        _check_bound(queue)
    threads[0].join(5.0)
    stop.set()
    threads[1].join(5.0)
    assert not threads[0].is_alive(), "producer stayed blocked"
    assert violations == []
    assert got == sent[: len(got)]
    if close_after is None or close_after >= len(sent):
        assert got == sent
