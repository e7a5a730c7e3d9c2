"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


class TestEnvironmentClock:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_configurable(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_run_until_number_advances_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_schedule_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_on_empty_schedule_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestTimeout:
    def test_timeout_fires_at_correct_time(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(3.5)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [3.5]

    def test_timeout_value_is_delivered(self):
        env = Environment()
        got = []

        def proc(env):
            value = yield env.timeout(1.0, value="hello")
            got.append(value)

        env.process(proc(env))
        env.run()
        assert got == ["hello"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(0.0)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [0.0]

    def test_timeouts_ordered_by_delay(self):
        env = Environment()
        order = []

        def proc(env, delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(proc(env, 2.0, "b"))
        env.process(proc(env, 1.0, "a"))
        env.process(proc(env, 3.0, "c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_timeouts_fifo_by_creation(self):
        env = Environment()
        order = []

        def proc(env, label):
            yield env.timeout(1.0)
            order.append(label)

        for label in "abcd":
            env.process(proc(env, label))
        env.run()
        assert order == list("abcd")


class TestEvent:
    def test_manual_succeed_resumes_waiter(self):
        env = Environment()
        gate = env.event()
        got = []

        def waiter(env):
            value = yield gate
            got.append(value)

        def trigger(env):
            yield env.timeout(5.0)
            gate.succeed(99)

        env.process(waiter(env))
        env.process(trigger(env))
        env.run()
        assert got == [99]

    def test_double_trigger_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_failed_event_propagates_into_process(self):
        env = Environment()
        caught = []

        def proc(env, gate):
            try:
                yield gate
            except ValueError as exc:
                caught.append(str(exc))

        gate = env.event()
        env.process(proc(env, gate))
        gate.fail(ValueError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_undefused_failure_surfaces_from_run(self):
        env = Environment()
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_late_callback_runs_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed("x")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestProcess:
    def test_process_return_value_via_join(self):
        env = Environment()
        results = []

        def child(env):
            yield env.timeout(1.0)
            return 42

        def parent(env):
            value = yield env.process(child(env))
            results.append(value)

        env.process(parent(env))
        env.run()
        assert results == [42]

    def test_run_until_process_returns_value(self):
        env = Environment()

        def child(env):
            yield env.timeout(2.0)
            return "done"

        assert env.run(until=env.process(child(env))) == "done"

    def test_exception_in_process_propagates_to_run(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        env.process(bad(env))
        with pytest.raises(KeyError):
            env.run()

    def test_exception_catchable_by_joining_parent(self):
        env = Environment()
        caught = []

        def bad(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        def parent(env):
            try:
                yield env.process(bad(env))
            except KeyError:
                caught.append(True)

        env.process(parent(env))
        env.run()
        assert caught == [True]

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 123

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_is_alive_lifecycle(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        env = Environment()
        causes = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                causes.append((env.now, intr.cause))

        def interrupter(env, victim):
            yield env.timeout(3.0)
            victim.interrupt(cause="wakeup")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert causes == [(3.0, "wakeup")]

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def interrupter(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [3.0]

    def test_original_target_does_not_resume_twice(self):
        env = Environment()
        resumed = []

        def sleeper(env):
            try:
                yield env.timeout(5.0)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield env.timeout(10.0)
            resumed.append("second-wait")

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        # The 5.0 timeout still fires at t=5 but must not resume the
        # process, which by then waits on the 10.0 timeout (ends t=11).
        assert resumed == ["interrupt", "second-wait"]

    def test_interrupt_dead_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self):
        env = Environment()

        def sleeper(env):
            yield env.timeout(100.0)

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        with pytest.raises(Interrupt):
            env.run()


class TestConditions:
    def test_all_of_waits_for_everything(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(3.0, value="b")
            results = yield env.all_of([t1, t2])
            done.append((env.now, sorted(results.values())))

        env.process(proc(env))
        env.run()
        assert done == [(3.0, ["a", "b"])]

    def test_any_of_fires_on_first(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(3.0, value="slow")
            results = yield AnyOf(env, [t1, t2])
            done.append((env.now, list(results.values())))

        env.process(proc(env))
        env.run()
        assert done == [(1.0, ["fast"])]

    def test_and_operator(self):
        env = Environment()
        done = []

        def proc(env):
            yield env.timeout(1.0) & env.timeout(2.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [2.0]

    def test_or_operator(self):
        env = Environment()
        done = []

        def proc(env):
            yield env.timeout(5.0) | env.timeout(2.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [2.0]

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        done = []

        def proc(env):
            yield env.all_of([])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [0.0]

    def test_cross_environment_condition_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env1.event(), env2.event()])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(env, name, period):
                for _ in range(5):
                    yield env.timeout(period)
                    trace.append((env.now, name))

            env.process(worker(env, "x", 1.0))
            env.process(worker(env, "y", 1.5))
            env.process(worker(env, "z", 1.0))
            env.run()
            return trace

        assert build_and_run() == build_and_run()


class TestStopProcess:
    def test_stop_process_terminates_with_value(self):
        from repro.simnet.engine import StopProcess

        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise StopProcess("early-exit")
            yield env.timeout(100.0)  # pragma: no cover

        value = env.run(until=env.process(proc(env)))
        assert value == "early-exit"
        assert env.now == 1.0
