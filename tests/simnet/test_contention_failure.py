"""Contention and failure on hosts and links: FIFO grants, exact
completion times, failures surfacing at the completion instant, and a
unit that is always handed on — whatever became of whoever waited."""

import pytest

from repro.simnet.engine import Environment, Interrupt
from repro.simnet.hosts import CpuCostModel, Host, HostFailedError
from repro.simnet.links import Link, TransmissionError

FREE = CpuCostModel()
TWO_SECONDS_PER_ITEM = CpuCostModel(per_item=2.0)


def _run_job(env, host, name, seconds, log):
    try:
        duration = yield host.execute(FREE, seconds=seconds)
    except HostFailedError as exc:
        log.append((name, env.now, "failed", str(exc)))
    else:
        log.append((name, env.now, duration))


class TestHostContention:
    def test_three_jobs_one_core_fifo_and_completion_times(self):
        env = Environment()
        host = Host(env, "h", cores=1, speed_factor=2.0)
        log = []
        for name, seconds in (("a", 4.0), ("b", 2.0), ("c", 6.0)):
            env.process(_run_job(env, host, name, seconds, log))
        env.run()
        # seconds / speed_factor each, back to back in submission order.
        assert log == [("a", 2.0, 2.0), ("b", 3.0, 1.0), ("c", 6.0, 3.0)]
        assert host.busy_time == 6.0
        assert host.cpu.in_use == 0 and host.cpu.queue_length == 0

    def test_one_heap_event_per_uncontended_job(self):
        env = Environment()
        host = Host(env, "h", cores=2)
        host.execute(FREE, seconds=1.0)
        host.execute(FREE, seconds=0.0)
        steps = 0
        while env.peek() != float("inf"):
            env.step()
            steps += 1
        assert steps == 2 and host.busy_time == 1.0

    def test_inline_job_completes_when_its_end_is_next(self):
        env = Environment()
        host = Host(env, "h", cores=1, speed_factor=2.0)
        env.timeout(3.0)
        assert host.execute_inline(TWO_SECONDS_PER_ITEM, items=2) == 2.0
        assert env.now == 2.0 and host.busy_time == 2.0 and host.cpu.in_use == 0
        # The timeout at 3.0 comes before this one's end: nothing happens.
        assert host.execute_inline(TWO_SECONDS_PER_ITEM, items=2) is None
        assert env.now == 2.0 and host.busy_time == 2.0

    def test_inline_job_needs_a_free_core_of_a_live_host(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        host.execute(FREE, seconds=1.0)
        assert host.execute_inline(FREE) is None  # the core is taken
        env.run()
        host.fail()
        assert host.execute_inline(FREE) is None and host.busy_time == 1.0

    def test_zero_cost_job_completes_at_the_current_instant(self):
        env = Environment()
        host = Host(env, "h")
        log = []
        env.process(_run_job(env, host, "z", 0.0, log))
        env.run()
        assert log == [("z", 0.0, 0.0)]


class TestHostFailure:
    def test_failure_mid_work_surfaces_at_completion_and_frees_the_core(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        log = []
        env.process(_run_job(env, host, "doomed", 3.0, log))
        env.process(_run_job(env, host, "next", 2.0, log))

        def chaos(env):
            yield env.timeout(1.0)
            host.fail()
            yield env.timeout(2.5)
            host.recover()

        env.process(chaos(env))
        env.run()
        # The crash at t=1 is seen when the work would have ended (t=3);
        # the waiter then gets the core and, the host being back up by the
        # time it ends, succeeds at 3 + 2.
        assert log[0][:3] == ("doomed", 3.0, "failed")
        assert "failed while executing" in log[0][3]
        assert log[1] == ("next", 5.0, 2.0)
        assert host.busy_time == 2.0  # failed work is not booked
        assert host.cpu.in_use == 0

    def test_work_submitted_to_a_failed_host_fails_now(self):
        env = Environment()
        host = Host(env, "h")
        log = []

        def late(env):
            yield env.timeout(4.0)
            host.fail()
            yield from _run_job(env, host, "late", 10.0, log)

        env.process(late(env))
        env.run()
        assert log == [("late", 4.0, "failed", "host 'h' is down")]
        assert host.cpu.in_use == 0 and env.now == 4.0

    def test_unobserved_failure_is_loud(self):
        env = Environment()
        host = Host(env, "h")
        host.execute(FREE, seconds=1.0)
        host.fail()
        with pytest.raises(HostFailedError):
            env.run()

    def test_interrupted_waiter_still_releases_its_core_on_time(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        log = []

        def impatient(env):
            try:
                yield host.execute(FREE, seconds=5.0)
            except Interrupt:
                log.append(("interrupted", env.now))

        victim = env.process(impatient(env))
        env.process(_run_job(env, host, "next", 1.0, log))

        def interrupter(env):
            yield env.timeout(2.0)
            victim.interrupt()

        env.process(interrupter(env))
        env.run()
        # The core stays held until t=5 (the work runs on regardless),
        # then passes to the waiter.
        assert log == [("interrupted", 2.0), ("next", 6.0, 1.0)]
        assert host.busy_time == 6.0 and host.cpu.in_use == 0


class TestLinkContention:
    def test_three_sends_one_link_fifo_and_completion_times(self):
        env = Environment()
        link = Link(env, bandwidth=100.0, latency=0.5)
        sent, arrived = [], []
        link.on_delivery = lambda m: arrived.append((m.payload, m.seq, env.now))

        def sender(env, tag, size):
            message = yield link.send(tag, size)
            sent.append((tag, message.seq, message.sent_at, env.now))

        for tag, size in (("a", 200.0), ("b", 50.0), ("c", 100.0)):
            env.process(sender(env, tag, size))
        env.run()
        # size / bandwidth each, serialized; sent_at is when the
        # transmitter was obtained; delivery is latency after TX.
        assert sent == [("a", 0, 0.0, 2.0), ("b", 1, 2.0, 2.5), ("c", 2, 2.5, 3.5)]
        assert arrived == [("a", 0, 2.5), ("b", 1, 3.0), ("c", 2, 4.0)]
        assert link.stats.busy_time == 3.5
        assert link.stats.messages == 3 and link.stats.bytes == 350.0

    def test_bandwidth_change_applies_to_sends_that_start_after_it(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        done = []

        def sender(env, tag):
            yield link.send(tag, 100.0)
            done.append((tag, env.now))

        env.process(sender(env, "a"))
        env.process(sender(env, "b"))

        def throttle(env):
            yield env.timeout(0.5)
            link.set_bandwidth(50.0)

        env.process(throttle(env))
        env.run()
        assert done == [("a", 1.0), ("b", 3.0)]

    def test_one_heap_event_per_send_plus_one_per_delayed_delivery(self):
        env = Environment()
        link = Link(env, bandwidth=100.0, latency=0.1)
        link.send("x", 10.0)
        steps = 0
        while env.peek() != float("inf"):
            env.step()
            steps += 1
        assert steps == 2 and link.stats.messages == 1


class TestLinkLoss:
    #: Lost sequence numbers of two senders x 30 messages at
    #: set_loss(0.2, seed=7), as the process-per-send implementation
    #: (the commit before the callback rewrite) produced them.
    PINNED_LOST = [1, 3, 6, 8, 10, 11, 14, 21, 24, 25, 28, 33, 34, 51, 54, 56]

    def test_lost_sequence_numbers_are_pinned(self):
        env = Environment()
        link = Link(env, bandwidth=1000.0, latency=0.01)
        link.set_loss(0.2, seed=7)
        lost, lost_at = [], []

        def sender(env, tag):
            for i in range(30):
                try:
                    yield link.send((tag, i), 100.0)
                except TransmissionError as exc:
                    lost.append(int(str(exc).split("seq=")[1].split()[0]))
                    lost_at.append(round(env.now, 6))

        env.process(sender(env, "a"))
        env.process(sender(env, "b"))
        env.run()
        assert lost == self.PINNED_LOST
        # A loss is seen when the transmission ends: seq n ends at
        # (n + 1) * 0.1 on this saturated link.
        assert lost_at == [round((n + 1) * 0.1, 6) for n in self.PINNED_LOST]
        assert link.losses == 16 and link.stats.messages == 44
        delivered = [m.seq for m in link.inbox._items]
        assert delivered == [n for n in range(60) if n not in self.PINNED_LOST]

    def test_lost_send_still_frees_the_transmitter(self):
        env = Environment()
        link = Link(env, bandwidth=100.0)
        link.set_loss(0.999999, seed=1)
        outcomes = []

        def sender(env, tag):
            try:
                yield link.send(tag, 100.0)
            except TransmissionError:
                outcomes.append((tag, "lost", env.now))

        env.process(sender(env, "a"))
        env.process(sender(env, "b"))
        env.run()
        assert outcomes == [("a", "lost", 1.0), ("b", "lost", 2.0)]
        assert link.stats.busy_time == 2.0 and link.stats.messages == 0
