"""Live migration over the networked runtime (MIGRATE/HANDOFF frames).

A four-worker count-samps deployment with the ``join`` stage pinned to
worker-2 so every one of its edges crosses workers; a
:class:`~repro.resilience.migration.MigrationPlan` then moves it
mid-stream.  A migrated run must be byte-identical to an unmigrated
one — the six-phase protocol (pause, expect, export, adopt, resume,
collect) guarantees zero loss over real sockets.
"""

import random

import pytest

from repro.apps.count_samps import build_distributed_config
from repro.core.api import StreamProcessor
from repro.grid.config import ResourceRequirement
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError
from repro.resilience.migration import MigrationPlan
from repro.simnet.hosts import CpuCostModel

ITEMS = 400
SEED = 5


def payloads(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(0, 30) for _ in range(n)]


def build():
    config = build_distributed_config(
        n_sources=2,
        source_hosts=["worker-0", "worker-1"],
        batch=50,
        top_n=8,
        seed=SEED,
    )
    # Pin join on worker-2 so every one of its edges crosses workers
    # (the v1 protocol migrates stages whose routes are all remote).
    config.stage("join").requirement = ResourceRequirement(
        min_cores=2, placement_hint="near:worker-2"
    )
    return config


def run(migrations=None, rate=None):
    runtime = NetworkedRuntime(
        build(), workers=4, adaptation_enabled=False, credit_window=16,
        migrations=migrations,
    )
    for i in range(2):
        runtime.bind_source(
            f"src-{i}", f"filter-{i}", payloads(SEED + i, ITEMS),
            rate=rate, item_size=8.0,
        )
    return runtime, runtime.run(timeout=60.0)


def normalize(topk):
    return [(value, float(count)) for value, count in topk]


@pytest.fixture(scope="module")
def baseline():
    _runtime, result = run()
    return normalize(result.final_value("join"))


def test_mid_stream_migration_is_loss_free(baseline):
    runtime, result = run(
        migrations=[MigrationPlan(stage="join", at=0.25, target="worker-3")],
        rate=600.0,
    )
    assert normalize(result.final_value("join")) == baseline
    (report,) = runtime.migrations
    assert report.planned and report.trigger == "planned"
    assert report.from_host == "worker-2" and report.to_host == "worker-3"
    assert runtime.placement["join"] == "worker-3"
    assert result.stages["join"].host_name == "worker-3"
    assert result.metrics.counter("migration.join.moves").value == 1
    pauses = result.metrics.histogram("migration.join.pause_seconds").samples
    # The stop-the-stage window over loopback is tens of milliseconds; a
    # one-second bound still catches an unbounded drain or a lost fence.
    assert len(pauses) == 1 and 0 < pauses[0] <= 1.0


def test_matchmaker_picks_an_unoccupied_target(baseline):
    runtime, result = run(
        migrations=[MigrationPlan(stage="join", at=0.25)], rate=600.0
    )
    assert normalize(result.final_value("join")) == baseline
    (report,) = runtime.migrations
    # worker-0/1 hold the filters and worker-2 is the source host, so
    # the only unoccupied worker is worker-3.
    assert report.to_host == "worker-3"


def test_racing_plan_moves_or_unwinds_cleanly(baseline):
    """A plan racing an unpaced (fast) run either completes the move or
    unwinds when the stage finishes before the fence — both must leave
    the result byte-identical to the unmigrated baseline."""
    runtime, result = run(
        migrations=[MigrationPlan(stage="join", at=0.05, target="worker-3")]
    )
    assert normalize(result.final_value("join")) == baseline
    if runtime.migrations:
        (report,) = runtime.migrations
        assert report.planned and report.to_host == "worker-3"
        assert runtime.placement["join"] == "worker-3"
    else:
        # Unwound: the stage stays where the Matchmaker first put it and
        # no move metrics are recorded.
        assert runtime.placement["join"] == "worker-2"
        assert result.metrics.counter("migration.join.moves").value == 0


def test_sharded_stage_is_rejected_up_front():
    config = build()
    config.stage("join").properties["replicas"] = "2"
    with pytest.raises(NetworkedRuntimeError):
        NetworkedRuntime(
            config, workers=4,
            migrations=[MigrationPlan(stage="join", at=0.25)],
        )


def _adaptation_state(stage):
    """What a move must carry beyond the processor's own state."""
    return {
        "parameters": {name: p.value for name, p in stage.parameters.items()},
        "estimator": stage.estimator.snapshot(),
        "exceptions": stage.exceptions.snapshot(),
        "eos_seen": stage.eos.seen,
    }


def test_adopted_stage_resumes_the_exported_adaptation_state(monkeypatch):
    """After a mid-stream move the adopted stage continues from the
    exported checkpoint: parameter values, load estimator (t1/t2, window,
    d̃), exception counts and EOS progress — not from a fresh start.

    The five workers run in this process (one event loop on a helper
    thread), so the state each side holds when the checkpoint is taken
    and when it is restored can be read off the stage records.  The stage moved is
    ``merge-0`` of the three-tier count-samps: a fan-in of two whose
    first input has already ended, with adaptation on.  (Its processor
    keeps no state worth moving, so the verifier's migratable-stage
    check is skipped: this test is about the middleware's state.)
    """
    import asyncio
    import io
    import threading

    from repro.apps.count_samps import build_hierarchical_config
    from repro.core.adaptation.policy import AdaptationPolicy
    from repro.net.worker import Worker

    from repro.net import worker as worker_module

    states = {}

    def capture(side, kernel_call):
        # At the hand-off itself: once the adopted stage's channels are
        # up, an exception the join reports upstream is its own, not
        # part of what moved.
        def wrapped(stage, *args):
            out = kernel_call(stage, *args)
            states[side] = _adaptation_state(stage)
            return out

        return wrapped

    for side, name in (("exported", "stage_checkpoint"), ("adopted", "restore_checkpoint")):
        monkeypatch.setattr(worker_module, name, capture(side, getattr(worker_module, name)))

    loop = asyncio.new_event_loop()
    announces = [io.StringIO() for _ in range(5)]
    serving = [loop.create_task(Worker().serve(announce=a)) for a in announces]
    def serve_all():
        try:
            loop.run_until_complete(asyncio.gather(*serving))
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=serve_all, daemon=True)
    thread.start()
    try:
        while not all(a.getvalue() for a in announces):
            threading.Event().wait(0.01)
        ports = [int(a.getvalue().split()[1]) for a in announces]
        config = build_hierarchical_config(
            n_sources=2, source_hosts=["worker-0", "worker-1"], batch=20, top_n=8, seed=SEED,
        )
        runtime = NetworkedRuntime(
            config, workers=[("127.0.0.1", port) for port in ports],
            policy=AdaptationPolicy(sample_interval=0.02), credit_window=16,
            migrations=[MigrationPlan(stage="merge-0", at=0.6)], verify=False,
        )
        runtime.bind_source("src-0", "filter-0", payloads(SEED, 100), item_size=8.0)
        runtime.bind_source(
            "src-1", "filter-1", payloads(SEED + 1, 1200), rate=1000.0, item_size=8.0,
        )
        runtime.run(timeout=60.0)
    finally:
        thread.join(timeout=5.0)  # the coordinator shuts the workers down
        if thread.is_alive():
            loop.call_soon_threadsafe(lambda: [task.cancel() for task in serving])
            thread.join(timeout=5.0)
        loop.close()
    (report,) = runtime.migrations
    assert report.planned and report.from_host != report.to_host
    exported = states["exported"]
    assert exported["eos_seen"] == 1  # filter-0 had already finished
    assert exported["estimator"]["window"] and exported["estimator"]["t2"] > 0
    assert exported["exceptions"]["total_underloads"] > 0
    assert states["adopted"] == exported



class Relay(StreamProcessor):
    """Forwards every item at no modeled cost."""

    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.emit(payload)


class StallingSink(StreamProcessor):
    """Collects arrivals, free except item 20: 0.6 s of modeled work, a
    stall that lets everything behind it pile up in the inbox."""

    cost_model = CpuCostModel(per_item=0.6)

    def __init__(self):
        self.items = []

    def work_amount(self, payload, size):
        return (1.0, 0.0) if payload == 20 else (0.0, 0.0)

    def on_item(self, payload, context):
        self.items.append(payload)

    def result(self):
        return self.items


def test_moving_a_stage_whose_downstream_holds_a_backlog():
    """``relay`` moves at 0.3 s while ``sink`` is stalled on item 20 (until
    about 0.7 s) with the relay's later items queued.  The replacement
    dials the sink for a fresh window; the old connection's queued items
    must not come back to it as credit once the sink catches up (the
    sender refuses a grant above its window, which would fail the run).
    Every item arrives, once and in order."""
    import asyncio
    import io
    import threading

    from repro.grid.config import AppConfig, StageConfig, StreamConfig
    from repro.net.worker import Worker

    loop = asyncio.new_event_loop()
    announces = [io.StringIO() for _ in range(3)]
    serving = [loop.create_task(Worker().serve(announce=a)) for a in announces]
    thread = threading.Thread(
        target=lambda: loop.run_until_complete(asyncio.gather(*serving)), daemon=True
    )
    thread.start()
    try:
        while not all(a.getvalue() for a in announces):
            threading.Event().wait(0.01)
        code = "py://tests.net.test_migration:"
        config = AppConfig(
            name="backlog",
            stages=[
                StageConfig("relay", code + "Relay",
                            requirement=ResourceRequirement(placement_hint="worker-0")),
                StageConfig("sink", code + "StallingSink",
                            requirement=ResourceRequirement(placement_hint="worker-1")),
            ],
            streams=[StreamConfig("wire", "relay", "sink")],
        )
        runtime = NetworkedRuntime(
            config, workers=[("127.0.0.1", int(a.getvalue().split()[1])) for a in announces],
            adaptation_enabled=False, credit_window=64, verify=False,
            migrations=[MigrationPlan(stage="relay", at=0.3, target="worker-2")],
        )
        runtime.bind_source("src", "relay", list(range(300)), rate=200.0, item_size=8.0)
        result = runtime.run(timeout=20.0)
    finally:
        thread.join(timeout=5.0)
        if thread.is_alive():
            loop.call_soon_threadsafe(lambda: [task.cancel() for task in serving])
            thread.join(timeout=5.0)
        loop.close()
    (report,) = runtime.migrations
    assert report.from_host == "worker-0" and report.to_host == "worker-2"
    assert result.final_value("sink") == list(range(300))


class FailsAfterAdoption(Relay):
    """A relay that raises on its fifth item after a restore, i.e. only
    once a live migration has adopted it."""

    FAIL_AT = 5

    def __init__(self):
        self.since_restore = None

    def snapshot(self):
        return {"stateful": True}  # the kernel restores only a state

    def restore(self, state):
        self.since_restore = 0

    def on_item(self, payload, context):
        if self.since_restore is not None:
            self.since_restore += 1
            if self.since_restore == self.FAIL_AT:
                raise RuntimeError("adopted relay blew up")
        context.emit(payload)


def test_a_stage_failing_after_adoption_fails_the_run_promptly():
    """``relay`` moves to worker-2 at 0.3 s and raises on its fifth item
    there.  worker-2 hosted nothing when its completion wait began, so
    that wait must also wake on the adopted stage's failure: otherwise
    the run's feeder stalls on credit, the collect release never comes,
    and the run hangs until its timeout instead of failing."""
    import asyncio
    import io
    import threading
    import time

    from repro.grid.config import AppConfig, StageConfig, StreamConfig
    from repro.net.worker import Worker

    loop = asyncio.new_event_loop()
    announces = [io.StringIO() for _ in range(3)]
    serving = [loop.create_task(Worker().serve(announce=a)) for a in announces]

    def serve_all():
        try:
            loop.run_until_complete(asyncio.gather(*serving))
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=serve_all, daemon=True)
    thread.start()
    timeout = 20.0
    try:
        while not all(a.getvalue() for a in announces):
            threading.Event().wait(0.01)
        code = "py://tests.net.test_migration:"
        config = AppConfig(
            name="adopted-failure",
            stages=[
                StageConfig("relay", code + "FailsAfterAdoption",
                            requirement=ResourceRequirement(placement_hint="worker-0")),
                StageConfig("sink", code + "StallingSink",
                            requirement=ResourceRequirement(placement_hint="worker-1")),
            ],
            streams=[StreamConfig("wire", "relay", "sink")],
        )
        runtime = NetworkedRuntime(
            config, workers=[("127.0.0.1", int(a.getvalue().split()[1])) for a in announces],
            adaptation_enabled=False, credit_window=16, verify=False,
            migrations=[MigrationPlan(stage="relay", at=0.3, target="worker-2")],
        )
        runtime.bind_source("src", "relay", list(range(1000)), rate=200.0, item_size=8.0)
        started = time.monotonic()
        with pytest.raises(NetworkedRuntimeError, match="adopted relay blew up"):
            runtime.run(timeout=timeout)
        assert time.monotonic() - started < timeout / 2
    finally:
        thread.join(timeout=5.0)
        if thread.is_alive():
            loop.call_soon_threadsafe(lambda: [task.cancel() for task in serving])
            thread.join(timeout=5.0)
        loop.close()
    (report,) = runtime.migrations
    assert report.to_host == "worker-2"
