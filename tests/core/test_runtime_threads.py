"""Tests for the real-thread runtime (timing-tolerant)."""

import time

import pytest

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.api import StreamProcessor
from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError
from repro.simnet.hosts import CpuCostModel
from tests.raising_source import MESSAGE, WHERES, raising_source


class Forward(StreamProcessor):
    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        context.emit(payload, size=8.0)


class Collect(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self):
        self.items = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def result(self):
        return list(self.items)


class Boom(StreamProcessor):
    cost_model = CpuCostModel()

    def on_item(self, payload, context):
        raise RuntimeError("stage blew up")


class AdaptiveKeep(StreamProcessor):
    cost_model = CpuCostModel()

    def setup(self, context):
        context.specify_parameter("keep", 1.0, 0.0, 1.0, 0.05, -1)

    def on_item(self, payload, context):
        if context.get_suggested_value("keep") >= 0.5:
            context.emit(payload, size=8.0)


def quick_policy():
    return AdaptationPolicy(sample_interval=0.02, adjust_every=2)


class TestConstruction:
    def test_time_scale_validation(self):
        with pytest.raises(ThreadedRuntimeError):
            ThreadedRuntime(time_scale=0)

    def test_duplicate_stage(self):
        rt = ThreadedRuntime()
        rt.add_stage("a", Forward())
        with pytest.raises(ThreadedRuntimeError):
            rt.add_stage("a", Forward())

    def test_non_processor_rejected(self):
        rt = ThreadedRuntime()
        with pytest.raises(ThreadedRuntimeError):
            rt.add_stage("a", object())

    def test_connect_unknown_stage(self):
        rt = ThreadedRuntime()
        rt.add_stage("a", Forward())
        with pytest.raises(ThreadedRuntimeError):
            rt.connect("a", "ghost")

    def test_bad_bandwidth(self):
        rt = ThreadedRuntime()
        rt.add_stage("a", Forward())
        rt.add_stage("b", Collect())
        with pytest.raises(ThreadedRuntimeError):
            rt.connect("a", "b", bandwidth=0)

    def test_bind_unknown_target(self):
        rt = ThreadedRuntime()
        with pytest.raises(ThreadedRuntimeError):
            rt.bind_source("s", "ghost", [1])

    def test_bad_rate(self):
        rt = ThreadedRuntime()
        rt.add_stage("a", Forward())
        with pytest.raises(ThreadedRuntimeError):
            rt.bind_source("s", "a", [1], rate=0)

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_batch_delay_rejected(self, delay):
        """A nan delay made the stage's worker busy-spin; inf killed it
        with an OverflowError from ``Condition.wait``."""
        rt = ThreadedRuntime()
        with pytest.raises(ThreadedRuntimeError, match="batch-max-delay"):
            rt.add_stage("a", Forward(), properties={"batch-max-delay": delay})

    def test_inputless_stage_rejected_at_run(self):
        rt = ThreadedRuntime()
        rt.add_stage("a", Forward())
        with pytest.raises(ThreadedRuntimeError):
            rt.run(timeout=1.0)


class TestExecution:
    def test_pipeline_delivers_everything(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("fwd", Forward())
        sink = Collect()
        rt.add_stage("sink", sink)
        rt.connect("fwd", "sink")
        rt.bind_source("s", "fwd", list(range(200)))
        result = rt.run(timeout=30.0)
        assert result.final_value("sink") == list(range(200))
        assert result.stage("fwd").items_in == 200

    def test_fan_in(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("sink", Collect())
        rt.bind_source("a", "sink", [1, 2, 3])
        rt.bind_source("b", "sink", [4, 5, 6])
        result = rt.run(timeout=30.0)
        assert sorted(result.final_value("sink")) == [1, 2, 3, 4, 5, 6]

    def test_stage_error_propagates(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("bad", Boom())
        rt.bind_source("s", "bad", [1])
        with pytest.raises(RuntimeError, match="stage blew up"):
            rt.run(timeout=30.0)

    @pytest.mark.parametrize("where", WHERES)
    def test_a_raising_source_fails_the_run_promptly(self, where):
        """The feeder thread used to die into ``threading.excepthook``,
        leaving the sink waiting for end-of-stream until the timeout."""
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("fwd", Forward())
        rt.add_stage("sink", Collect())
        rt.connect("fwd", "sink")
        payloads, item_size = raising_source(where)
        rt.bind_source("s", "fwd", payloads, item_size=item_size)
        started = time.monotonic()
        with pytest.raises(ThreadedRuntimeError, match=f"source 's' failed: .*{MESSAGE}") as info:
            rt.run(timeout=60.0)
        assert time.monotonic() - started < 5.0
        assert isinstance(info.value.__cause__, ValueError)

    def test_run_twice_rejected(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("sink", Collect())
        rt.bind_source("s", "sink", [1])
        rt.run(timeout=30.0)
        with pytest.raises(ThreadedRuntimeError):
            rt.run(timeout=1.0)

    def test_timeout_raises(self):
        slow = Forward()
        slow.cost_model = CpuCostModel(per_item=10.0)
        rt = ThreadedRuntime(adaptation_enabled=False, time_scale=1.0)
        rt.add_stage("slow", slow)
        rt.bind_source("s", "slow", list(range(100)))
        with pytest.raises(ThreadedRuntimeError, match="did not finish"):
            rt.run(timeout=0.3)

    def test_token_bucket_link_throttles(self):
        # 100 items x 8 B = 800 B over a 4000 B/s link ~ 0.2 s minimum.
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("fwd", Forward())
        rt.add_stage("sink", Collect())
        rt.connect("fwd", "sink", bandwidth=4000.0)
        rt.bind_source("s", "fwd", list(range(100)))
        result = rt.run(timeout=30.0)
        assert result.execution_time >= 0.15
        assert len(result.final_value("sink")) == 100

    def test_adaptation_produces_history(self):
        rt = ThreadedRuntime(policy=quick_policy())
        rt.add_stage("ad", AdaptiveKeep())
        rt.add_stage("sink", Collect())
        rt.connect("ad", "sink")
        rt.bind_source("s", "ad", list(range(500)), rate=2000.0)
        result = rt.run(timeout=30.0)
        series = result.parameter_series("ad", "keep")
        assert len(series) >= 1

    def test_latency_and_bytes_accounting(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("fwd", Forward())
        rt.add_stage("sink", Collect())
        rt.connect("fwd", "sink")
        rt.bind_source("s", "fwd", list(range(50)))
        result = rt.run(timeout=30.0)
        assert result.stage("sink").bytes_in == pytest.approx(400.0)
        assert all(l >= 0 for l in result.stage("sink").latencies)


class Slow(StreamProcessor):
    cost_model = CpuCostModel(per_item=0.002)

    def on_item(self, payload, context):
        pass


def test_queue_capacity_property_bounds_the_stage_queue():
    """``queue-capacity`` used to be honoured on the simulator only."""
    rt = ThreadedRuntime(policy=quick_policy())
    rt.add_stage("sink", Slow(), properties={"queue-capacity": "4"})
    rt.bind_source("s", "sink", range(200))
    lengths = rt.run(timeout=30.0).stage("sink").queue_history.values
    assert lengths and max(lengths) <= 4


class TestThreadedArrivals:
    def test_arrival_process_paces_feed(self):
        from repro.streams.arrivals import ConstantArrivals

        rt = ThreadedRuntime(adaptation_enabled=False, time_scale=0.01)
        sink = Collect()
        rt.add_stage("sink", sink)
        # 50 items at 100/s of scaled time = 0.5 scaled s = ~5ms wall.
        rt.bind_source("s", "sink", list(range(50)),
                       arrivals=ConstantArrivals(100.0))
        result = rt.run(timeout=30.0)
        assert result.final_value("sink") == list(range(50))

    def test_poisson_arrivals_deliver_everything(self):
        from repro.streams.arrivals import PoissonArrivals

        rt = ThreadedRuntime(adaptation_enabled=False, time_scale=0.001)
        rt.add_stage("sink", Collect())
        rt.bind_source("s", "sink", list(range(100)),
                       arrivals=PoissonArrivals(200.0, seed=3))
        result = rt.run(timeout=30.0)
        assert len(result.final_value("sink")) == 100


class _Gaps:
    """An arrival process with fixed per-item gaps (seconds)."""

    def __init__(self, *gaps):
        self._gaps = gaps

    def gaps(self):
        return iter(self._gaps)


class StampedRelay(StreamProcessor):
    """Forwards each payload, noting when; busy for 0.3 s on payload 0."""

    cost_model = CpuCostModel()

    def __init__(self):
        self.emitted = {}

    def on_item(self, payload, context):
        if payload == 0:
            time.sleep(0.3)
        self.emitted[payload] = context.now
        context.emit(payload, size=8.0)

    def result(self):
        return dict(self.emitted)


class StampedSink(Collect):
    def on_item(self, payload, context):
        self.items.append((payload, context.now))


class TestThreadedBatching:
    def test_chunk_ending_in_a_non_final_eos_still_flushes_on_time(self):
        from repro.core.batching import BatchPolicy

        # While the relay is busy with item 0, the fast source delivers
        # 1-3 and its end-of-stream, so the relay drains [1, 2, 3, EOS]
        # as one chunk; the slow source's next item comes 1 s later.
        # Items 1-3 must not wait for it.
        max_delay = 0.05
        rt = ThreadedRuntime(adaptation_enabled=False, batch=BatchPolicy(32, max_delay))
        rt.add_stage("relay", StampedRelay())
        rt.add_stage("sink", StampedSink())
        rt.connect("relay", "sink")
        rt.bind_source("slow", "relay", [0, 4], arrivals=_Gaps(0.0, 1.0))
        rt.bind_source("fast", "relay", [1, 2, 3], arrivals=_Gaps(0.1, 0.0, 0.0))
        result = rt.run(timeout=30.0)
        emitted = result.final_value("relay")
        arrived = dict(result.final_value("sink"))
        assert sorted(arrived) == [0, 1, 2, 3, 4]
        late = {
            payload: round(arrived[payload] - emitted[payload], 3)
            for payload in arrived
            if arrived[payload] - emitted[payload] > max_delay + 0.25
        }
        assert late == {}


class SourceOrderSink(StreamProcessor):
    """Per-source arrivals in order; ``flush`` notes how many had arrived
    when the stage's input ended."""

    cost_model = CpuCostModel()

    def __init__(self):
        self.by_source = {}
        self.seen_at_flush = None

    def on_item(self, payload, context):
        source, index = payload
        self.by_source.setdefault(source, []).append(index)

    def flush(self, context):
        self.seen_at_flush = sum(map(len, self.by_source.values()))

    def result(self):
        return {"by_source": self.by_source, "seen_at_flush": self.seen_at_flush}


class TestChunkedHandoff:
    """Feeders hand back-to-back arrivals over in chunks and workers take
    everything queued; order, end-of-stream, failures, shard routing and
    prompt delivery must be what per-item handoffs gave."""

    def test_per_source_order_and_eos_after_the_last_item(self):
        rt = ThreadedRuntime(adaptation_enabled=False)
        rt.add_stage("relay", Forward(), properties={"queue-capacity": "16"})
        rt.add_stage("sink", SourceOrderSink(), properties={"queue-capacity": "8"})
        rt.connect("relay", "sink")
        for name in ("a", "b", "c"):
            rt.bind_source(name, "relay", [(name, i) for i in range(3000)])
        value = rt.run(timeout=60.0).final_value("sink")
        assert value["by_source"] == {name: list(range(3000)) for name in "abc"}
        assert value["seen_at_flush"] == 9000

    def test_a_source_raising_mid_chunk_fails_the_run_promptly(self):
        def payloads():
            yield from range(500)
            raise ValueError("broke mid-chunk")

        rt = ThreadedRuntime(adaptation_enabled=False)
        # A slow first item keeps the queue non-idle, so arrivals pile
        # up in the feeder's chunk when the source raises.
        rt.add_stage("fwd", StampedRelay())
        rt.add_stage("sink", Collect())
        rt.connect("fwd", "sink")
        rt.bind_source("s", "fwd", payloads())
        started = time.monotonic()
        with pytest.raises(ThreadedRuntimeError, match="source 's' failed: .*broke mid-chunk"):
            rt.run(timeout=60.0)
        assert time.monotonic() - started < 5.0

    def test_shard_group_sources_keep_delivered_equal_to_items(self):
        from repro.grid.config import AppConfig, StageConfig, StreamConfig

        config = AppConfig(
            name="group-feed",
            stages=[
                StageConfig("relay", "py://tests.shard_stages:KeyedRelay",
                            properties={"replicas": "3", "shard-by": "field:k",
                                        "queue-capacity": "8"}),
                StageConfig("sink", "py://tests.shard_stages:CountSink"),
            ],
            streams=[StreamConfig("t", "relay", "sink")],
        )
        rt = ThreadedRuntime.from_config(config, adaptation_enabled=False)
        payloads = [{"k": f"k{i % 11}", "i": i} for i in range(2000)]
        rt.bind_source("s", "relay", payloads)
        result = rt.run(timeout=60.0)
        assert result.final_value("sink") == 2000
        members = [rt._stages[f"relay#{i}"] for i in range(3)]
        for member in members:
            routed = result.metrics.value(f"shard.{member.name}.items")
            assert member.delivered == member.consumed == routed
        assert sum(member.delivered for member in members) == 2000

    def test_an_unpaced_source_that_blocks_between_pulls_delivers_at_once(self):
        """``rate=None`` and a live iterable: each item must be handed
        over as it is pulled (the queue is idle), not held in the
        feeder's chunk until the next pull 20 ms later."""
        rt = ThreadedRuntime(adaptation_enabled=False)
        pulled = {}

        def live():
            for i in range(10):
                time.sleep(0.02)
                pulled[i] = rt.elapsed()
                yield i

        rt.add_stage("fwd", Forward())
        rt.add_stage("sink", StampedSink())
        rt.connect("fwd", "sink")
        rt.bind_source("s", "fwd", live())
        arrived = dict(rt.run(timeout=30.0).final_value("sink"))
        delays = [arrived[i] - pulled[i] for i in range(10)]
        assert max(delays) < 0.015, [round(d * 1e3, 2) for d in delays]
