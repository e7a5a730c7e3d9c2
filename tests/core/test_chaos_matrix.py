"""Chaos matrix: fault scenarios x runtimes, each reconciling the books.

Every scenario asserts the at-least-once accounting identity:

    sink items == (items fed - quarantined) + replay duplicates

i.e. nothing is silently lost (quarantines are counted, not hidden) and
nothing is silently invented (every extra arrival is a counted replay
duplicate).
"""

import pytest

from repro.core.api import StreamProcessor
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime
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

ITEMS = 250
POISON_EVERY = 60  # -> payloads 60, 120, 180, 240 raise


def _poison_count(items):
    return (items - 1) // POISON_EVERY


class Work(StreamProcessor):
    cost_model = CpuCostModel(per_item=0.01)

    def __init__(self, poison=False):
        self.poison = poison
        self.count = 0

    def on_item(self, payload, context):
        if self.poison and payload > 0 and payload % POISON_EVERY == 0:
            raise ValueError(f"poison {payload}")
        self.count += 1
        context.emit(payload, size=8.0)

    def snapshot(self):
        return {"count": self.count}

    def restore(self, state):
        self.count = int(state["count"])


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


def run_sim(scenario):
    env = Environment()
    net = Network(env)
    for name in ("edge", "spare", "central"):
        net.create_host(name, cores=2)
    net.connect("edge", "central", 10_000.0, latency=0.01)
    net.connect("spare", "central", 10_000.0, latency=0.01)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    repo.publish("repo://cm/work", lambda: Work(poison=scenario == "poison"))
    repo.publish("repo://cm/sink", Sink)
    config = AppConfig(
        name="cm",
        stages=[
            StageConfig("work", "repo://cm/work",
                        requirement=ResourceRequirement(placement_hint="edge")),
            StageConfig("sink", "repo://cm/sink",
                        requirement=ResourceRequirement(placement_hint="central")),
        ],
        streams=[StreamConfig("s", "work", "sink")],
    )
    deployer = Deployer(registry, repo)
    deployment = deployer.deploy(config)
    runtime = SimulatedRuntime(
        env, net, deployment, adaptation_enabled=False,
        resilience=ResilienceConfig(
            checkpoint_interval=0.5, error_policy="dead-letter",
        ),
    )
    runtime.bind_source(
        SourceBinding("src", "work", payloads=list(range(ITEMS)), rate=100.0)
    )
    if scenario == "crash_failover":
        FaultInjector(env, net).schedule(FaultPlan("edge", fail_at=1.0))
        detector = HeartbeatDetector(env, net, interval=0.2, timeout=0.6)
        FailoverCoordinator(runtime, detector, Redeployer(deployer)).arm()
        detector.start()
    elif scenario == "crash_recover":
        FaultInjector(env, net).schedule(
            FaultPlan("edge", fail_at=1.0, recover_at=1.6)
        )
    return runtime, runtime.run()


def run_threaded(scenario):
    runtime = ThreadedRuntime(
        time_scale=0.001, adaptation_enabled=False,
        resilience=ResilienceConfig(error_policy="dead-letter"),
    )
    runtime.add_stage("work", Work(poison=scenario == "poison"))
    runtime.add_stage("sink", Sink())
    runtime.connect("work", "sink")
    runtime.bind_source("src", "work", list(range(ITEMS)), rate=5_000.0)
    return runtime, runtime.run(timeout=60)


class TestChaosMatrixSim:
    @pytest.mark.parametrize(
        "scenario", ["none", "crash_failover", "crash_recover", "poison"]
    )
    def test_reconciliation(self, scenario):
        runtime, result = run_sim(scenario)
        out = result.final_value("sink")
        quarantined = result.metrics.value("fault.work.quarantined", default=0.0)
        duplicates = result.metrics.value("recovery.work.duplicates", default=0.0)
        # Nothing lost: the unique survivors are exactly the non-poison feed.
        assert len(set(out)) == ITEMS - quarantined
        # Nothing invented: every extra arrival is a counted duplicate.
        assert len(out) == len(set(out)) + duplicates
        if scenario == "poison":
            assert quarantined == _poison_count(ITEMS)
            assert len(runtime.dead_letters) == quarantined
        else:
            assert quarantined == 0
        if scenario.startswith("crash"):
            assert result.metrics.value("fault.work.failovers") == 1
            # A recovered host restarts the stage in place (the recovery
            # watch); a dead one moves it to the spare (the Redeployer).
            expected_host = "edge" if scenario == "crash_recover" else "spare"
            assert result.stage("work").host_name == expected_host
        else:
            assert result.metrics.value("fault.work.failovers", default=0.0) == 0

    def test_crash_scenarios_match_fault_free_contents(self):
        _, clean = run_sim("none")
        clean_set = set(clean.final_value("sink"))
        for scenario in ("crash_failover", "crash_recover"):
            _, result = run_sim(scenario)
            assert set(result.final_value("sink")) == clean_set


class TestChaosMatrixThreaded:
    @pytest.mark.parametrize("scenario", ["none", "poison"])
    def test_reconciliation(self, scenario):
        runtime, result = run_threaded(scenario)
        out = result.stages["sink"].final_value
        quarantined = result.metrics.value("fault.work.quarantined", default=0.0)
        # Threads do not crash-stop, so there is no replay: the identity
        # collapses to fed - quarantined, duplicate-free.
        assert len(out) == len(set(out)) == ITEMS - quarantined
        if scenario == "poison":
            assert quarantined == _poison_count(ITEMS)
            assert len(runtime.dead_letters) == quarantined
