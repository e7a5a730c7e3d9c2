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

from repro.core.items import ItemRun
from repro.core.runtime_threads import _MonitoredQueue


def make_queue(capacity=2, window=12):
    return _MonitoredQueue(capacity=capacity, window=window)


def run_of(values):
    values = list(values)
    return ItemRun(values, [8.0] * len(values), 0.0, "s")


def flat(entries):
    """The payloads of taken entries, a run's in its order."""
    out = []
    for entry in entries:
        out.extend(entry.values if type(entry) is ItemRun else [entry])
    return out


def count(entries):
    return sum(len(e.values) if type(e) is ItemRun else 1 for e in entries)


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
    try:
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
    finally:
        stop.set()
    threads[1].join(5.0)
    assert not threads[0].is_alive(), "producer stayed blocked"
    assert violations == []
    assert got == sent[: len(got)]
    if close_after is None or close_after >= len(sent):
        assert got == sent


class TestRuns:
    """An ``ItemRun`` counts as its items: against ``capacity``, in
    ``current_length``, in the d̄ window and while held."""

    def test_a_run_larger_than_the_room_is_split_and_its_rest_blocks(self):
        queue = make_queue(capacity=4)
        queue.put("a")
        done = threading.Event()

        def producer():
            queue.put(run_of(range(6)))
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not done.wait(0.1), "put() of a run ignored the capacity"
        assert queue.current_length == 4
        assert flat(queue.get_many(10, timeout=1.0)) == ["a", 0, 1, 2]
        assert not done.wait(0.1), "the run's rest ignored the held items"
        assert flat(queue.get_many(10, timeout=2.0)) == [3, 4, 5]
        assert done.wait(2.0)
        thread.join(2.0)
        assert queue.current_length == 3

    def test_get_many_splits_a_run_at_max_items(self):
        queue = make_queue(capacity=10)
        queue.put(run_of(range(5)))
        queue.put("x")
        first = queue.get_many(3, timeout=1.0)
        assert len(first) == 1 and type(first[0]) is ItemRun
        assert list(first[0].values) == [0, 1, 2] and list(first[0].sizes) == [8.0] * 3
        assert queue.current_length == 6
        assert flat(queue.get_many(3, timeout=1.0)) == [3, 4, "x"]
        assert queue.current_length == 3

    def test_held_run_items_count_as_items(self):
        queue = make_queue(capacity=5, window=64)
        queue.put(run_of(range(4)))
        assert queue.current_length == 4
        assert list(queue._recent) == [0, 1, 2, 3, 4]  # one sample per item
        queue.get_many(10, timeout=1.0)
        assert queue.current_length == 4  # held
        queue.put("y")  # room for exactly one more
        blocked = threading.Event()
        thread = threading.Thread(
            target=lambda: (queue.put("z"), blocked.set()), daemon=True
        )
        thread.start()
        assert not blocked.wait(0.1), "put() ignored the held run's items"
        assert flat(queue.get_many(10, timeout=1.0)) == ["y"]  # releases the run
        assert blocked.wait(2.0)
        thread.join(2.0)
        assert queue.current_length == 2
        assert list(queue._recent)[:7] == [0, 1, 2, 3, 4, 5, 1]

    def test_close_releases_a_blocked_run_put(self):
        queue = make_queue(capacity=2)
        released = threading.Event()

        def producer():
            queue.put(run_of(range(5)))  # two fit, the rest blocks
            released.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not released.wait(0.1)
        assert queue.current_length == 2
        queue.close()
        assert released.wait(2.0), "close() did not release the blocked run put"
        thread.join(2.0)
        assert queue.current_length == 2


_PUTS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 99)),
        st.tuples(st.just("put_many"), st.lists(st.integers(0, 99), max_size=6)),
        st.tuples(st.just("run"), st.lists(st.integers(0, 99), min_size=1, max_size=9)),
    ),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(capacity=st.integers(1, 6), puts=_PUTS, takes=st.lists(st.integers(1, 7), min_size=1))
def test_any_interleaving_of_runs_keeps_fifo_order_and_the_bound(capacity, puts, takes):
    """A producer thread mixes ``put``, ``put_many`` and run puts (runs
    larger than the capacity among them), a consumer takes with
    ``get_many`` (its sizes cycling through ``takes``), and an observer
    samples the length throughout: the payloads come out in the order
    they went in, no take exceeds its ``max_items``, and queued plus
    held items stay within capacity at every observed instant."""
    queue = make_queue(capacity=capacity)
    sent = []
    for op, arg in puts:
        sent.extend(arg if isinstance(arg, list) else [arg])
    stop = threading.Event()
    peak = [0]

    def producer():
        for op, arg in puts:
            if op == "put":
                queue.put(arg)
            elif op == "put_many":
                queue.put_many(arg)
            else:
                queue.put(run_of(arg))

    def observer():
        while not stop.is_set():
            peak[0] = max(peak[0], queue.current_length)

    threads = [threading.Thread(target=f, daemon=True) for f in (producer, observer)]
    for thread in threads:
        thread.start()
    got = []
    index = 0
    try:
        while len(got) < len(sent):
            take = takes[index % len(takes)]
            index += 1
            taken = queue.get_many(take, timeout=5.0)
            assert 1 <= count(taken) <= take
            got.extend(flat(taken))
            assert queue.current_length <= capacity
        threads[0].join(5.0)
    finally:
        stop.set()
        queue.close()  # a producer still blocked gives up
    threads[1].join(5.0)
    assert not threads[0].is_alive(), "producer stayed blocked"
    assert peak[0] <= capacity
    assert got == sent
