"""Error policies and transient wire faults, on both runtimes."""

import pytest

from repro.core.api import StreamProcessor
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.resilience import MemoryCheckpointStore, ResilienceConfig
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.links import TransmissionError
from repro.simnet.topology import Network

POISON_EVERY = 50


class PoisonWork(StreamProcessor):
    """Raises on payloads divisible by POISON_EVERY (except 0)."""

    cost_model = CpuCostModel(per_item=0.001)

    def on_item(self, payload, context):
        if payload > 0 and payload % POISON_EVERY == 0:
            raise ValueError(f"poison {payload}")
        context.emit(payload, size=8.0)


class Sink(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self):
        self.items = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def snapshot(self):
        return {"items": list(self.items)}

    def restore(self, state):
        self.items = list(state["items"])

    def result(self):
        return list(self.items)


def build_sim(resilience, items=200, rate=400.0, payloads=None):
    env = Environment()
    net = Network(env)
    net.create_host("edge", cores=2)
    net.create_host("central", cores=2)
    net.connect("edge", "central", 10_000.0, latency=0.01)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    repo.publish("repo://ep/work", PoisonWork)
    repo.publish("repo://ep/sink", Sink)
    config = AppConfig(
        name="ep",
        stages=[
            StageConfig("work", "repo://ep/work",
                        requirement=ResourceRequirement(placement_hint="edge")),
            StageConfig("sink", "repo://ep/sink",
                        requirement=ResourceRequirement(placement_hint="central")),
        ],
        streams=[StreamConfig("s", "work", "sink")],
    )
    deployment = Deployer(registry, repo).deploy(config)
    runtime = SimulatedRuntime(env, net, deployment, adaptation_enabled=False,
                               resilience=resilience)
    if payloads is None:
        payloads = list(range(items))
    runtime.bind_source(SourceBinding("src", "work", payloads=payloads, rate=rate))
    return runtime, net


def _odd(n):
    """n payloads that never trip the poison marker."""
    return list(range(1, 2 * n, 2))


class TestSimPoisonPolicies:
    def test_fail_policy_propagates(self):
        runtime, _ = build_sim(ResilienceConfig(error_policy="fail"))
        with pytest.raises(ValueError, match="poison 50"):
            runtime.run()

    def test_no_resilience_propagates(self):
        runtime, _ = build_sim(None)
        with pytest.raises(ValueError, match="poison 50"):
            runtime.run()

    def test_skip_policy_counts_but_keeps_nothing(self):
        runtime, _ = build_sim(ResilienceConfig(error_policy="skip"))
        result = runtime.run()
        assert len(result.final_value("sink")) == 197
        assert result.metrics.value("fault.work.quarantined") == 3
        assert len(runtime.dead_letters) == 0

    def test_dead_letter_policy_retains_letters(self):
        runtime, _ = build_sim(ResilienceConfig(error_policy="dead-letter"))
        result = runtime.run()
        assert len(result.final_value("sink")) == 197
        assert result.metrics.value("fault.work.quarantined") == 3
        letters = [l for l in runtime.dead_letters.letters if l.stage == "work"]
        assert [l.payload for l in letters] == [50, 100, 150]
        assert all(l.reason == "processing" for l in letters)
        assert all("poison" in l.error for l in letters)


class TestSimTransientWireFaults:
    def test_lossy_link_retries_until_delivered(self):
        runtime, net = build_sim(
            ResilienceConfig(error_policy="fail", max_retries=6),
            payloads=_odd(150),
        )
        net.link("edge", "central").set_loss(0.2, seed=11)
        result = runtime.run()
        assert len(result.final_value("sink")) == 150
        assert result.metrics.value("fault.work.retries") > 0

    def test_no_resilience_loss_is_fatal(self):
        runtime, net = build_sim(None, payloads=_odd(150))
        net.link("edge", "central").set_loss(0.2, seed=11)
        with pytest.raises(TransmissionError):
            runtime.run()

    @staticmethod
    def _loss_window(env, link, start, stop):
        yield env.timeout(start)
        link.set_loss(0.999, seed=5)
        yield env.timeout(stop - start)
        link.set_loss(0.0)

    def test_exhausted_retries_quarantine_data_items(self):
        runtime, net = build_sim(
            ResilienceConfig(error_policy="dead-letter", max_retries=2),
            rate=400.0, payloads=_odd(200),
        )
        link = net.link("edge", "central")
        runtime.env.process(self._loss_window(runtime.env, link, 0.2, 0.6))
        result = runtime.run()
        dropped = [l for l in runtime.dead_letters.letters if l.stage == "work"]
        assert dropped, "total outage window should exhaust some retries"
        assert all(l.reason == "transmission" for l in dropped)
        assert len(result.final_value("sink")) == 200 - len(dropped)

    def test_exhausted_retries_fatal_under_fail_policy(self):
        runtime, net = build_sim(
            ResilienceConfig(error_policy="fail", max_retries=2),
            rate=400.0, payloads=_odd(200),
        )
        link = net.link("edge", "central")
        runtime.env.process(self._loss_window(runtime.env, link, 0.2, 0.6))
        with pytest.raises(TransmissionError):
            runtime.run()


class ThreadPoison(StreamProcessor):
    def on_item(self, payload, context):
        if payload > 0 and payload % POISON_EVERY == 0:
            raise ValueError(f"poison {payload}")
        context.emit(payload)


class ThreadSink(StreamProcessor):
    def __init__(self):
        self.items = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def snapshot(self):
        return {"count": len(self.items)}

    def result(self):
        return list(self.items)


def build_threaded(resilience, checkpoints=None, items=200):
    runtime = ThreadedRuntime(time_scale=0.001, adaptation_enabled=False,
                              resilience=resilience, checkpoints=checkpoints)
    runtime.add_stage("work", ThreadPoison())
    runtime.add_stage("sink", ThreadSink())
    runtime.connect("work", "sink")
    runtime.bind_source("src", "work", list(range(items)), rate=5_000.0)
    return runtime


class TestThreadedPoisonPolicies:
    def test_fail_policy_propagates(self):
        runtime = build_threaded(ResilienceConfig(error_policy="fail"))
        with pytest.raises(ValueError, match="poison 50"):
            runtime.run(timeout=30)

    def test_no_resilience_propagates(self):
        runtime = build_threaded(None)
        with pytest.raises(ValueError, match="poison 50"):
            runtime.run(timeout=30)

    def test_skip_policy(self):
        runtime = build_threaded(ResilienceConfig(error_policy="skip"))
        result = runtime.run(timeout=30)
        assert len(result.stages["sink"].final_value) == 197
        assert result.metrics.value("fault.work.quarantined") == 3
        assert len(runtime.dead_letters) == 0

    def test_dead_letter_policy(self):
        runtime = build_threaded(ResilienceConfig(error_policy="dead-letter"))
        result = runtime.run(timeout=30)
        assert len(result.stages["sink"].final_value) == 197
        letters = [l for l in runtime.dead_letters.letters if l.stage == "work"]
        assert sorted(l.payload for l in letters) == [50, 100, 150]
        assert all(l.reason == "processing" for l in letters)


class TestThreadedCheckpointing:
    def test_checkpoints_taken_on_cadence(self):
        store = MemoryCheckpointStore()
        runtime = build_threaded(
            ResilienceConfig(error_policy="skip", checkpoint_interval=40.0),
            checkpoints=store, items=1500,
        )
        result = runtime.run(timeout=60)
        assert "sink" in store.stages()
        latest = store.latest("sink")
        assert latest.processor_state["count"] > 0
        # Threaded checkpoints carry no replay anchors.
        assert latest.cursors == {}
        assert result.metrics.value("recovery.sink.checkpoints") == len(
            store.history("sink")
        )
        # They do carry the stage's EOS progress: a checkpoint taken
        # once the sink has seen its one end-of-stream records it.
        sink = runtime._stages["sink"]
        assert sink.eos.seen == 1
        runtime._checkpoint_stage(sink)
        assert store.latest("sink").eos_seen == 1

    def test_checkpoints_without_resilience_rejected(self):
        with pytest.raises(ThreadedRuntimeError, match="resilience"):
            ThreadedRuntime(checkpoints=MemoryCheckpointStore())
