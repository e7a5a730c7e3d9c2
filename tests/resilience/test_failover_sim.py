"""Live failover in the simulated runtime: crash, restore, replay."""

import pytest

from repro.core.api import StreamProcessor
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.faults import FaultInjector, FaultPlan, Redeployer
from repro.grid.heartbeat import HeartbeatDetector
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.resilience import ResilienceConfig
from repro.resilience.failover import FailoverCoordinator
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network


class Work(StreamProcessor):
    cost_model = CpuCostModel(per_item=0.01)

    def __init__(self):
        self.count = 0

    def on_item(self, payload, context):
        self.count += 1
        context.emit(payload * 2, size=8.0)

    def snapshot(self):
        return {"count": self.count}

    def restore(self, state):
        self.count = int(state["count"])

    def result(self):
        return self.count


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


def build(resilience=None, fail_at=None, recover_at=None, failover=False,
          items=300, rate=100.0):
    """Two-stage pipeline: work pinned to 'edge', sink to 'central'.

    ``failover=True`` arms the heartbeat -> redeploy -> restore chain
    (the spare host is the only redeployment target); without it a
    scheduled recover_at exercises in-place restart instead.
    """
    env = Environment()
    net = Network(env)
    for name in ("edge", "spare", "central"):
        net.create_host(name, cores=2)
    net.connect("edge", "central", 10_000.0, latency=0.01)
    net.connect("spare", "central", 10_000.0, latency=0.01)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    repo.publish("repo://fo/work", Work)
    repo.publish("repo://fo/sink", Sink)
    config = AppConfig(
        name="fo",
        stages=[
            StageConfig("work", "repo://fo/work",
                        requirement=ResourceRequirement(placement_hint="edge")),
            StageConfig("sink", "repo://fo/sink",
                        requirement=ResourceRequirement(placement_hint="central")),
        ],
        streams=[StreamConfig("s", "work", "sink")],
    )
    deployer = Deployer(registry, repo)
    deployment = deployer.deploy(config)
    runtime = SimulatedRuntime(env, net, deployment, adaptation_enabled=False,
                               resilience=resilience)
    runtime.bind_source(
        SourceBinding("src", "work", payloads=list(range(items)), rate=rate)
    )
    coordinator = None
    if fail_at is not None:
        FaultInjector(env, net).schedule(
            FaultPlan("edge", fail_at=fail_at, recover_at=recover_at)
        )
    if failover:
        detector = HeartbeatDetector(env, net, interval=0.2, timeout=0.6)
        coordinator = FailoverCoordinator(runtime, detector, Redeployer(deployer))
        coordinator.arm()
        detector.start()
    return runtime, coordinator


class TestLiveFailover:
    def test_crash_mid_run_completes_with_contents_preserved(self):
        reference, _ = build(resilience=ResilienceConfig(checkpoint_interval=0.5))
        ref_items = reference.run().final_value("sink")

        runtime, _ = build(resilience=ResilienceConfig(checkpoint_interval=0.5),
                           fail_at=1.0, failover=True)
        result = runtime.run()
        out = result.final_value("sink")
        # At-least-once: every fault-free item arrives; replay may add
        # documented duplicates but never invents or loses values.
        assert sorted(set(out)) == sorted(set(ref_items))
        duplicates = result.metrics.value("recovery.work.duplicates", default=0.0)
        assert len(out) == len(set(out)) + duplicates

    def test_failover_metrics_and_relocation(self):
        runtime, _ = build(resilience=ResilienceConfig(checkpoint_interval=0.5),
                           fail_at=1.0, failover=True)
        result = runtime.run()
        metrics = result.metrics
        assert metrics.value("fault.work.failovers") == 1
        assert metrics.value("recovery.work.items_replayed") > 0
        assert metrics.value("recovery.work.checkpoints") > 0
        assert result.stage("work").host_name == "spare"
        latency = metrics.get("recovery.work.latency")
        # Outage is anchored at the last heartbeat before the crash, so
        # it covers at least the detector timeout.
        assert latency.count == 1
        assert latency.samples[0] >= 0.6

    def test_coordinator_records_recovery(self):
        runtime, coordinator = build(
            resilience=ResilienceConfig(checkpoint_interval=0.5),
            fail_at=1.0, failover=True,
        )
        runtime.run()
        assert len(coordinator.recoveries) == 1
        when, host, moved = coordinator.recoveries[0]
        assert host == "edge" and moved == ("work",)
        assert when >= 1.0

    def test_recovery_events_logged(self):
        runtime, _ = build(resilience=ResilienceConfig(checkpoint_interval=0.5),
                           fail_at=1.0, failover=True)
        result = runtime.run()
        assert result.events.count("stage-down") == 1
        assert result.events.count("stage-recovered") == 1

    def test_failover_without_checkpoints_replays_everything(self):
        """checkpoint_interval=None: restart from scratch, full replay."""
        runtime, _ = build(
            resilience=ResilienceConfig(checkpoint_interval=None),
            fail_at=1.0, failover=True,
        )
        result = runtime.run()
        out = result.final_value("sink")
        assert sorted(set(out)) == [i * 2 for i in range(300)]
        assert result.metrics.value("recovery.work.checkpoints", default=0.0) == 0


class TestInPlaceRecovery:
    def test_recovered_host_restarts_stage_without_moving(self):
        runtime, _ = build(
            resilience=ResilienceConfig(checkpoint_interval=0.5),
            fail_at=1.0, recover_at=1.8,
        )
        result = runtime.run()
        out = result.final_value("sink")
        assert sorted(set(out)) == [i * 2 for i in range(300)]
        assert result.stage("work").host_name == "edge"
        assert result.metrics.value("fault.work.failovers") == 1


class TestCoordinatorValidation:
    def test_requires_resilient_runtime(self):
        runtime, _ = build(resilience=None)
        env = runtime.env
        detector = HeartbeatDetector(env, runtime.network)
        with pytest.raises(ValueError, match="resilience"):
            FailoverCoordinator(runtime, detector, redeployer=None)

    def test_checkpoints_without_resilience_rejected(self):
        from repro.resilience import MemoryCheckpointStore

        env = Environment()
        net = Network(env)
        net.create_host("h", cores=1)
        with pytest.raises(Exception, match="resilience"):
            SimulatedRuntime(env, net, deployment=None,
                             checkpoints=MemoryCheckpointStore())
