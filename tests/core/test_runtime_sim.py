"""Integration tests for the simulated runtime."""

import time

import pytest

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.api import StreamProcessor
from repro.core.runtime_sim import RuntimeError_, SimulatedRuntime, SourceBinding
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer, DeploymentError
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.simnet.engine import Environment, SimulationError
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network
from tests.raising_source import MESSAGE, WHERES, raising_source


class Forward(StreamProcessor):
    """Relay every item at 8 bytes."""

    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.emit(payload, size=8.0)


class SlowForward(Forward):
    cost_model = CpuCostModel(per_item=0.01)


class Collect(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self):
        self.items = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def result(self):
        return list(self.items)


class EmitOnFlush(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self):
        self._count = 0

    def on_item(self, payload, context):
        self._count += 1

    def flush(self, context):
        context.emit(("total", self._count), size=16.0)


class AdaptiveForward(StreamProcessor):
    """Forwards a fraction of items; the fraction adapts."""

    cost_model = CpuCostModel()

    def setup(self, context):
        context.specify_parameter("keep", 1.0, 0.0, 1.0, 0.05, -1)
        self._credit = 0.0

    def on_item(self, payload, context):
        self._credit += context.get_suggested_value("keep")
        if self._credit >= 1.0:
            self._credit -= 1.0
            context.emit(payload, size=8.0)


def make_runtime(stages, streams, bandwidth=1e6, adaptation=False, policy=None,
                 n_hosts=2, batch=None, verify=True):
    env = Environment()
    net = Network(env)
    hosts = [f"h{i}" for i in range(n_hosts)]
    for h in hosts:
        net.create_host(h, cores=2)
    for a, b in zip(hosts, hosts[1:]):
        net.connect(a, b, bandwidth=bandwidth)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    factories = {}
    stage_cfgs = []
    for i, (name, factory, props) in enumerate(stages):
        url = f"repo://t/{name}"
        repo.publish(url, factory)
        stage_cfgs.append(
            StageConfig(
                name,
                url,
                requirement=ResourceRequirement(placement_hint=hosts[min(i, n_hosts - 1)]),
                properties=props or {},
            )
        )
        factories[name] = factory
    config = AppConfig(
        name="test-app",
        stages=stage_cfgs,
        streams=[StreamConfig(f"e{i}", s, d) for i, (s, d) in enumerate(streams)],
    )
    deployment = Deployer(registry, repo).deploy(config, verify=verify)
    runtime = SimulatedRuntime(
        env, net, deployment, policy=policy, adaptation_enabled=adaptation,
        batch=batch,
    )
    return env, net, deployment, runtime


class TestBasicPipeline:
    def test_two_stage_pipeline_delivers_everything(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(100))))
        result = runtime.run()
        assert result.final_value("sink") == list(range(100))
        assert result.stage("fwd").items_in == 100
        assert result.stage("fwd").items_out == 100
        assert result.stage("sink").items_in == 100

    def test_item_order_preserved(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
            bandwidth=100.0,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(50))))
        result = runtime.run()
        assert result.final_value("sink") == list(range(50))

    def test_execution_time_reflects_bandwidth(self):
        def run_at(bw):
            env, net, dep, runtime = make_runtime(
                [("fwd", Forward, None), ("sink", Collect, None)],
                [("fwd", "sink")],
                bandwidth=bw,
            )
            runtime.bind_source(SourceBinding("s", "fwd", list(range(100))))
            return runtime.run().execution_time

        slow = run_at(100.0)    # 100 items x 8 B at 100 B/s ~ 8 s
        fast = run_at(1e6)
        assert slow > fast
        assert slow == pytest.approx(8.0, rel=0.2)

    def test_execution_time_reflects_cpu_cost(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", SlowForward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(100))))
        result = runtime.run()
        # 100 items x 10 ms = 1 s of CPU.
        assert result.execution_time == pytest.approx(1.0, rel=0.1)
        assert result.stage("fwd").busy_seconds == pytest.approx(1.0, rel=0.1)

    def test_flush_emissions_propagate(self):
        env, net, dep, runtime = make_runtime(
            [("agg", EmitOnFlush, None), ("sink", Collect, None)],
            [("agg", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "agg", list(range(42))))
        result = runtime.run()
        assert result.final_value("sink") == [("total", 42)]

    def test_source_rate_paces_arrivals(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(10)), rate=2.0))
        result = runtime.run()
        assert result.execution_time == pytest.approx(5.0, rel=0.05)

    def test_fan_in_two_sources(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("a", "fwd", [1, 2, 3]))
        runtime.bind_source(SourceBinding("b", "fwd", [4, 5, 6]))
        result = runtime.run()
        assert sorted(result.final_value("sink")) == [1, 2, 3, 4, 5, 6]

    def test_colocated_stages_skip_network(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
            n_hosts=1,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(10))))
        result = runtime.run()
        assert result.final_value("sink") == list(range(10))
        assert result.execution_time == pytest.approx(0.0)

    def test_three_stage_chain(self):
        env, net, dep, runtime = make_runtime(
            [("a", Forward, None), ("b", Forward, None), ("sink", Collect, None)],
            [("a", "b"), ("b", "sink")],
            n_hosts=3,
        )
        runtime.bind_source(SourceBinding("s", "a", list(range(20))))
        result = runtime.run()
        assert result.final_value("sink") == list(range(20))


class TestValidation:
    def test_unknown_target_stage(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        with pytest.raises(Exception):
            runtime.bind_source(SourceBinding("s", "ghost", [1]))

    def test_bad_rate(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        with pytest.raises(RuntimeError_):
            runtime.bind_source(SourceBinding("s", "fwd", [1], rate=0.0))

    def test_stage_without_inputs_rejected(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        # No binding for "fwd": it has no inputs at all.
        with pytest.raises(RuntimeError_):
            runtime.run()

    @pytest.mark.parametrize("where", WHERES)
    def test_a_raising_source_fails_the_run_promptly(self, where):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        payloads, item_size = raising_source(where)
        runtime.bind_source(SourceBinding("s", "fwd", payloads, rate=10.0, item_size=item_size))
        started = time.monotonic()
        with pytest.raises(ValueError, match=MESSAGE):
            runtime.run(max_sim_time=60.0)
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_batch_delay_rejected(self, delay):
        """The runtime itself, not only the pre-deploy verifier, refuses a
        delay no batch could ever come due by."""
        stages = [("fwd", Forward, {"batch-max-delay": delay}), ("sink", Collect, None)]
        with pytest.raises(DeploymentError, match="GA210"):
            make_runtime(stages, [("fwd", "sink")])
        env, net, dep, runtime = make_runtime(stages, [("fwd", "sink")], verify=False)
        runtime.bind_source(SourceBinding("s", "fwd", [1]))
        with pytest.raises(RuntimeError_, match="batch-max-delay"):
            runtime.run()

    def test_run_twice_rejected(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", [1]))
        runtime.run()
        with pytest.raises(RuntimeError_):
            runtime.run()

    def test_bind_after_run_rejected(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", [1]))
        runtime.run()
        with pytest.raises(RuntimeError_):
            runtime.bind_source(SourceBinding("x", "fwd", [2]))

    def test_wedged_pipeline_raises(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", SlowForward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(1000))))
        with pytest.raises(SimulationError):
            runtime.run(max_sim_time=0.5)

    def test_stop_at_ends_gracefully(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", SlowForward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(1000))))
        result = runtime.run(stop_at=0.5)
        assert result.execution_time <= 0.6
        assert 0 < result.stage("sink").items_in < 1000


class TestAdaptationIntegration:
    def test_parameter_history_collected(self):
        policy = AdaptationPolicy(sample_interval=0.05)
        env, net, dep, runtime = make_runtime(
            [("ad", AdaptiveForward, None), ("sink", Collect, None)],
            [("ad", "sink")],
            adaptation=True,
            policy=policy,
        )
        runtime.bind_source(SourceBinding("s", "ad", list(range(500)), rate=100.0))
        result = runtime.run()
        series = result.parameter_series("ad", "keep")
        assert len(series) >= 2

    def test_queue_and_load_histories_recorded(self):
        policy = AdaptationPolicy(sample_interval=0.05)
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
            adaptation=True,
            policy=policy,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(100)), rate=50.0))
        result = runtime.run()
        assert len(result.stage("fwd").load_history) > 0
        assert len(result.stage("fwd").queue_history) > 0

    def test_overloaded_downstream_reports_exceptions_upstream(self):
        policy = AdaptationPolicy(sample_interval=0.02)
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("slow", SlowForward, None), ("sink", Collect, None)],
            [("fwd", "slow"), ("slow", "sink")],
            adaptation=True,
            policy=policy,
            n_hosts=3,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(2000)), rate=1000.0))
        result = runtime.run()
        # "slow" (10 ms/item vs 1000 items/s arriving) must overload and
        # report upstream to "fwd".
        assert result.stage("slow").exceptions_reported > 0
        assert result.stage("fwd").exceptions_received > 0
        kinds = {
            attrs["exception_kind"]
            for _, kind, attrs in result.events.entries
            if kind == "load-exception" and attrs["stage"] == "slow"
        }
        assert "overload" in kinds

    def test_adaptation_disabled_freezes_parameters(self):
        env, net, dep, runtime = make_runtime(
            [("ad", AdaptiveForward, None), ("sink", Collect, None)],
            [("ad", "sink")],
            adaptation=False,
        )
        runtime.bind_source(SourceBinding("s", "ad", list(range(200)), rate=500.0))
        result = runtime.run()
        series = result.parameter_series("ad", "keep")
        assert set(series.values) == {1.0}

    def test_adaptive_stage_reduces_keep_under_pressure(self):
        # Slow downstream + fast arrivals: the middleware should cut the
        # adaptive stage's keep fraction below its initial 1.0.
        policy = AdaptationPolicy(sample_interval=0.02)
        env, net, dep, runtime = make_runtime(
            [("ad", AdaptiveForward, None), ("slow", SlowForward, None), ("sink", Collect, None)],
            [("ad", "slow"), ("slow", "sink")],
            adaptation=True,
            policy=policy,
            n_hosts=3,
        )
        runtime.bind_source(SourceBinding("s", "ad", iter(range(10**6)), rate=1000.0))
        result = runtime.run(stop_at=20.0)
        series = result.parameter_series("ad", "keep")
        assert series.tail_mean(0.25) < 0.8

    def test_latencies_recorded(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
            bandwidth=1000.0,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(20))))
        result = runtime.run()
        sink = result.stage("sink")
        assert len(sink.latencies) == 20
        assert all(l >= 0 for l in sink.latencies)


class TestArrivalRateStats:
    def test_rate_paced_source_rate_measured(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(500)), rate=100.0))
        result = runtime.run()
        # The feeder paced arrivals at 100 items/s; the estimate decays a
        # little past end-of-stream but must be in the right regime.
        assert 50.0 < result.stage("fwd").arrival_rate <= 110.0

    def test_downstream_rate_tracks_forwarding(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(500)), rate=200.0))
        result = runtime.run()
        sink_rate = result.stage("sink").arrival_rate
        fwd_rate = result.stage("fwd").arrival_rate
        assert sink_rate == pytest.approx(fwd_rate, rel=0.3)

    def test_idle_stage_rate_is_zero(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", []))
        result = runtime.run()
        assert result.stage("fwd").arrival_rate == 0.0

    def test_rate_in_serialized_results(self):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(50)), rate=50.0))
        result = runtime.run()
        data = result.to_dict(include_series=False)
        assert data["stages"]["fwd"]["arrival_rate"] > 0


class TestSimBatchingEquivalence:
    """Batching must not change what a deterministic simulation computes."""

    def _run(self, batch):
        env, net, dep, runtime = make_runtime(
            [("fwd", Forward, None), ("sink", Collect, None)],
            [("fwd", "sink")],
            batch=batch,
        )
        runtime.bind_source(SourceBinding("s", "fwd", list(range(200))))
        return runtime.run()

    def test_batched_result_identical_to_unbatched(self):
        from repro.core.batching import BatchPolicy

        plain = self._run(None)
        batched = self._run(BatchPolicy(max_items=16, max_delay=0.05))
        assert batched.final_value("sink") == plain.final_value("sink")
        for name in ("fwd", "sink"):
            assert batched.stage(name).items_in == plain.stage(name).items_in
            assert batched.stage(name).items_out == plain.stage(name).items_out

    def test_batched_run_is_deterministic(self):
        from repro.core.batching import BatchPolicy

        policy = BatchPolicy(max_items=8, max_delay=0.01)
        a = self._run(policy)
        b = self._run(policy)
        assert a.final_value("sink") == b.final_value("sink")
        assert a.execution_time == b.execution_time

    def test_batch_metrics_recorded(self):
        from repro.core.batching import BatchPolicy

        result = self._run(BatchPolicy(max_items=16, max_delay=0.05))
        registry = result.metrics
        assert registry.value("batch.fwd.batches", 0.0) > 0
        assert (
            registry.value("batch.fwd.batched_items", 0.0)
            >= registry.value("batch.fwd.batches", 0.0)
        )

    def test_batching_does_not_distort_simulated_time(self):
        from repro.core.batching import BatchPolicy

        plain = self._run(None)
        batched = self._run(BatchPolicy(max_items=16, max_delay=0.05))
        # Same bytes over the same link: the modeled completion time
        # stays on the unbatched schedule (coalescing is a transport
        # detail, not extra simulated work).
        assert batched.execution_time == pytest.approx(
            plain.execution_time, rel=0.05
        )
