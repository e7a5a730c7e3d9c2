"""Property-based tests (hypothesis) for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import Environment
from repro.simnet.resources import BoundedQueue, Store


class TestTimeoutOrderingProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_sorted_order(self, delays):
        env = Environment()
        fired = []

        def waiter(env, delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for delay in delays:
            env.process(waiter(env, delay))
        env.run()
        assert fired == sorted(delays)

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def waiter(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in delays:
            env.process(waiter(env, delay))
        last = 0.0
        while env.peek() != float("inf"):
            env.step()
            assert env.now >= last
            last = env.now

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                        min_size=1, max_size=30),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_only_fires_due_events(self, delays, horizon):
        env = Environment()
        fired = []

        def waiter(env, delay):
            yield env.timeout(delay)
            fired.append(delay)

        for delay in delays:
            env.process(waiter(env, delay))
        env.run(until=horizon)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)
        assert env.now == horizon


class TestProcessChainProperties:
    @given(chain=st.lists(st.floats(min_value=0.0, max_value=10.0),
                          min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sequential_waits_sum(self, chain):
        env = Environment()

        def runner(env):
            for delay in chain:
                yield env.timeout(delay)
            return env.now

        total = env.run(until=env.process(runner(env)))
        assert abs(total - sum(chain)) < 1e-6

    @given(
        values=st.lists(st.integers(), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_store_is_fifo_under_any_interleaving(self, values):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            for v in values:
                yield store.put(v)
                yield env.timeout(0.5)

        def consumer(env):
            for _ in values:
                item = yield store.get()
                received.append(item)
                yield env.timeout(0.8)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == values


class TestBoundedQueueProperties:
    @given(
        ops=st.lists(st.sampled_from(["put", "get"]), max_size=100),
        capacity=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_invariants(self, ops, capacity):
        env = Environment()
        queue = BoundedQueue(env, capacity=capacity)
        expected = 0
        for op in ops:
            if op == "put":
                queue.force_put("x")
                expected += 1
            elif expected > 0:
                queue.try_get()
                expected -= 1
        assert queue.current_length == expected
        assert queue.recent_average >= 0


class TestCallbackOrderProperties:
    """The contract completion events rely on (see ``Event.callbacks``)."""

    @given(before=st.integers(min_value=0, max_value=5),
           after=st.integers(min_value=0, max_value=5),
           delay=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_callbacks_added_before_a_yield_run_before_the_resume(
        self, before, after, delay
    ):
        env = Environment()
        event = env.event()
        order = []
        for i in range(before):
            event.callbacks.append(lambda e, i=i: order.append(("before", i)))

        def waiter(env):
            value = yield event
            order.append(("resumed", value))

        env.process(waiter(env))
        env.step()  # the process starts and yields the event
        for i in range(after):
            event.add_callback(lambda e, i=i: order.append(("after", i)))
        event.complete("done", delay)
        env.run()
        assert order == (
            [("before", i) for i in range(before)]
            + [("resumed", "done")]
            + [("after", i) for i in range(after)]
        )
        assert env.now == delay

    @given(value=st.integers(), observers=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_an_earlier_callback_decides_what_later_ones_observe(
        self, value, observers
    ):
        env = Environment()
        event = env.event()
        failure = ValueError("settled as a failure")

        def settle(e):
            assert e.ok and e.value == value
            e._ok, e._value = False, failure

        seen = []
        event.callbacks.append(settle)
        for _ in range(observers):
            event.callbacks.append(lambda e: seen.append((e.ok, e.value)))

        def waiter(env):
            try:
                yield event
            except ValueError as exc:
                seen.append(("raised", exc))

        env.process(waiter(env))
        event.succeed(value)
        env.run()
        assert seen == [(False, failure)] * observers + [("raised", failure)]

    def test_a_rewritten_failure_nobody_waits_on_is_raised_by_step(self):
        env = Environment()
        event = env.event()

        def settle(e):
            e._ok, e._value = False, KeyError("unobserved")

        event.callbacks.append(settle)
        event.succeed()
        with pytest.raises(KeyError):
            env.run()

    @given(delays=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=12),
           kinds=st.lists(st.sampled_from(["complete", "timeout", "call"]),
                          min_size=12, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_completions_run_after_the_ordinary_events_of_their_instant(
        self, delays, kinds
    ):
        env = Environment()
        fired = []
        for index, (delay, kind) in enumerate(zip(delays, kinds)):
            def note(event, key=(delay, kind, index)):
                fired.append(key)

            if kind == "complete":
                event = env.event()
                event.callbacks.append(note)
                event.complete(delay=delay)
            elif kind == "timeout":
                env.timeout(delay).callbacks.append(note)
            else:
                env.call_later(delay, note)
        env.run()
        rank = {"call": 0, "timeout": 1, "complete": 2}

        def key(entry):
            delay, kind, index = entry
            # An undelayed call runs ahead of the instant's ordinary
            # events; a delayed one is an ordinary event itself.
            order = rank[kind] if (kind != "call" or delay == 0.0) else 1
            return (delay, order, index)

        assert fired == sorted(fired, key=key)

    def test_settled_is_true_only_when_completions_are_all_that_is_left(self):
        env = Environment()
        assert env.next_up(env.now)
        env.timeout(1.0)
        assert env.next_up(env.now)  # nothing more at t=0
        done = env.event().complete()
        assert env.next_up(env.now)  # a completion does not count
        env.event().succeed()
        assert not env.next_up(env.now)
        env.step()  # the ordinary event
        assert env.next_up(env.now) and not done.processed

    def test_next_up_orders_by_time_then_priority_within_the_horizon(self):
        env = Environment()
        assert env.next_up(5.0, env._LATE)  # empty schedule
        env.timeout(1.0)
        assert env.next_up(0.0) and env.next_up(0.5, env._LATE)
        assert not env.next_up(1.0)  # scheduled first, same priority
        assert env.next_up(1.0, env._URGENT) and not env.next_up(1.0, env._LATE)
        assert not env.next_up(2.0, env._URGENT)
        env.horizon = 0.25
        assert env.next_up(0.25, env._LATE) and not env.next_up(0.5, env._LATE)

    def test_complete_inline_moves_the_clock_only_when_next(self):
        env = Environment()
        env.timeout(1.0)
        assert env.complete_inline(0.5) and env.now == 0.5
        assert not env.complete_inline(0.5) and env.now == 0.5  # 1.0 comes first
        env.run(until=2.0)
        assert not env.complete_inline(0.5)  # past the last run's horizon

