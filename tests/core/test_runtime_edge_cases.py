"""Edge-case coverage for the simulated runtime (and, where a rule is
the kernel's, the same case on the threaded and networked runtimes)."""

import pytest

from repro.core.api import ProcessorError, StreamProcessor
from repro.core.runtime_sim import RuntimeError_, SimulatedRuntime, SourceBinding
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network


class Forward(StreamProcessor):
    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.emit(payload, size=8.0)


class Sink(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self):
        self.items = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def result(self):
        return list(self.items)


class EmitsInSetup(StreamProcessor):
    cost_model = CpuCostModel()

    def setup(self, context):
        context.emit("premature")

    def on_item(self, payload, context):
        pass


class LateParameter(StreamProcessor):
    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.specify_parameter("late", 0.5, 0.0, 1.0, 0.1, 1)


class NotAProcessor:
    pass


def build(stages, streams, hosts=None, links=None):
    env = Environment()
    net = Network(env)
    hosts = hosts or [("h0", 2), ("h1", 2)]
    for name, cores in hosts:
        net.create_host(name, cores=cores)
    links = links if links is not None else [("h0", "h1", 1e6, 0.0)]
    for a, b, bw, lat in links:
        net.connect(a, b, bw, latency=lat)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    cfg_stages = []
    for i, (name, factory, host) in enumerate(stages):
        url = f"repo://edge/{name}"
        repo.publish(url, factory)
        cfg_stages.append(
            StageConfig(name, url,
                        requirement=ResourceRequirement(placement_hint=host))
        )
    config = AppConfig(
        name="edge",
        stages=cfg_stages,
        streams=[StreamConfig(f"e{i}", s, d) for i, (s, d) in enumerate(streams)],
    )
    deployment = Deployer(registry, repo).deploy(config)
    runtime = SimulatedRuntime(env, net, deployment, adaptation_enabled=False)
    return env, net, runtime


class TestSetupErrors:
    def test_emission_during_setup_rejected(self):
        env, net, runtime = build(
            [("bad", EmitsInSetup, "h0"), ("sink", Sink, "h1")],
            [("bad", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "bad", [1]))
        with pytest.raises(RuntimeError_, match="emitted during setup"):
            runtime.run()

    def test_emission_during_setup_rejected_threaded(self):
        from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError

        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("bad", EmitsInSetup())
        rt.add_stage("sink", Sink())
        rt.connect("bad", "sink")
        rt.bind_source("s", "bad", [1])
        with pytest.raises(ThreadedRuntimeError, match="emitted during setup"):
            rt.run(timeout=30.0)

    def test_emission_during_setup_rejected_networked(self):
        from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError

        here = "py://tests.core.test_runtime_edge_cases"
        config = AppConfig(
            name="edge-net",
            stages=[
                StageConfig("bad", f"{here}:EmitsInSetup"),
                StageConfig("sink", f"{here}:Sink"),
            ],
            streams=[StreamConfig("e0", "bad", "sink")],
        )
        runtime = NetworkedRuntime(config, workers=2, adaptation_enabled=False)
        runtime.bind_source("s", "bad", [1])
        with pytest.raises(NetworkedRuntimeError, match="emitted during setup"):
            runtime.run(timeout=30.0)

    def test_specify_parameter_outside_setup_rejected(self):
        env, net, runtime = build(
            [("late", LateParameter, "h0"), ("sink", Sink, "h1")],
            [("late", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "late", [1]))
        with pytest.raises(ProcessorError, match="setup"):
            runtime.run()

    def test_non_processor_code_rejected(self):
        env, net, runtime = build(
            [("bogus", NotAProcessor, "h0"), ("sink", Sink, "h1")],
            [("bogus", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "bogus", [1]))
        with pytest.raises(RuntimeError_, match="not a StreamProcessor"):
            runtime.run()


class TestTopologies:
    def test_multi_hop_uses_bottleneck_and_latencies(self):
        env, net, runtime = build(
            [("src", Forward, "a"), ("dst", Sink, "c")],
            [("src", "dst")],
            hosts=[("a", 1), ("b", 1), ("c", 1)],
            links=[("a", "b", 1000.0, 0.5), ("b", "c", 100.0, 0.25)],
        )
        runtime.bind_source(SourceBinding("s", "src", [1]))
        result = runtime.run()
        # TX at bottleneck (100 B/s for 8 B = 0.08 s) + both latencies.
        assert result.execution_time == pytest.approx(0.08 + 0.75, rel=0.05)
        assert result.final_value("dst") == [1]

    def test_diamond_dag_merges_branches(self):
        env, net, runtime = build(
            [
                ("split", Forward, "h0"),
                ("left", Forward, "h0"),
                ("right", Forward, "h1"),
                ("merge", Sink, "h1"),
            ],
            [("split", "left"), ("split", "right"),
             ("left", "merge"), ("right", "merge")],
        )
        runtime.bind_source(SourceBinding("s", "split", [1, 2]))
        result = runtime.run()
        # Each item reaches the merge twice (once per branch).
        assert sorted(result.final_value("merge")) == [1, 1, 2, 2]
        assert result.stage("merge").items_in == 4

    def test_zero_size_emissions_allowed(self):
        class ZeroEmit(StreamProcessor):
            cost_model = CpuCostModel()

            def on_item(self, payload, context):
                context.emit(payload, size=0.0)

        env, net, runtime = build(
            [("z", ZeroEmit, "h0"), ("sink", Sink, "h1")],
            [("z", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "z", [1, 2, 3]))
        result = runtime.run()
        assert result.final_value("sink") == [1, 2, 3]

    def test_empty_source_still_terminates(self):
        env, net, runtime = build(
            [("fwd", Forward, "h0"), ("sink", Sink, "h1")],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", []))
        result = runtime.run()
        assert result.final_value("sink") == []
        assert result.stage("fwd").items_in == 0

    def test_negative_emit_size_rejected(self):
        class NegativeEmit(StreamProcessor):
            cost_model = CpuCostModel()

            def on_item(self, payload, context):
                context.emit(payload, size=-1.0)

        env, net, runtime = build(
            [("n", NegativeEmit, "h0"), ("sink", Sink, "h1")],
            [("n", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "n", [1]))
        with pytest.raises(ProcessorError):
            runtime.run()

    def test_processor_exception_propagates_with_type(self):
        class Boom(StreamProcessor):
            cost_model = CpuCostModel()

            def on_item(self, payload, context):
                raise KeyError("boom in stage")

        env, net, runtime = build(
            [("boom", Boom, "h0"), ("sink", Sink, "h1")],
            [("boom", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "boom", [1]))
        with pytest.raises(KeyError):
            runtime.run()


class TestThreadedRouting:
    def test_named_edges_route(self):
        from repro.core.runtime_threads import ThreadedRuntime

        class Splitter(StreamProcessor):
            cost_model = CpuCostModel()

            def on_item(self, payload, context):
                context.emit(payload, stream="evens" if payload % 2 == 0 else "odds")

        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("split", Splitter())
        even_sink, odd_sink = Sink(), Sink()
        rt.add_stage("evens-sink", even_sink)
        rt.add_stage("odds-sink", odd_sink)
        rt.connect("split", "evens-sink", name="evens")
        rt.connect("split", "odds-sink", name="odds")
        rt.bind_source("s", "split", list(range(10)))
        result = rt.run(timeout=30.0)
        assert result.final_value("evens-sink") == [0, 2, 4, 6, 8]
        assert result.final_value("odds-sink") == [1, 3, 5, 7, 9]

    def test_unknown_stream_rejected_threaded(self):
        from repro.core.runtime_threads import ThreadedRuntime

        class Bad(StreamProcessor):
            cost_model = CpuCostModel()

            def on_item(self, payload, context):
                context.emit(payload, stream="ghost")

        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("bad", Bad())
        rt.add_stage("sink", Sink())
        rt.connect("bad", "sink", name="real")
        rt.bind_source("s", "bad", [1])
        with pytest.raises(ProcessorError):
            rt.run(timeout=30.0)
