"""A worker's RESULT carries histograms packed; the coordinator's merge
must end with exactly the samples the JSON list used to carry."""

import math
import struct
from base64 import b64decode

import pytest

from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError
from repro.net.protocol import Frame, FrameType, encode_json
from repro.obs.registry import MetricsRegistry
from repro.simnet.trace import TimeSeries

SAMPLES = [0.1, 2.5e-7, 3, 1e-308, -0.0, math.inf, 1 / 3]


def coordinator() -> NetworkedRuntime:
    config = AppConfig(
        name="packing",
        stages=[StageConfig("a", "repo://count-samps/relay"),
                StageConfig("b", "repo://count-samps/relay")],
        streams=[StreamConfig("s", "a", "b")],
    )
    return NetworkedRuntime(config, workers=1, verify=False)


def worker_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("stage.a.items_in").inc(7)
    registry.gauge("stage.a.arrival_rate").set(12.5)
    latency = registry.histogram("stage.a.latency")
    for sample in SAMPLES:
        latency.observe(sample)
    registry.histogram("stage.b.latency")  # registered, never observed
    series = TimeSeries("q")
    series.record(0.0, 2.0)
    registry.series("stage.a.queue_len", series)
    return registry


def result_body(registry: MetricsRegistry) -> dict:
    payload = encode_json(
        {"worker": "worker-0", "finals": {}, "metrics": registry.to_wire()}
    )
    return Frame(FrameType.RESULT, payload).json()


def test_merged_registry_equals_what_the_worker_held():
    sent = worker_registry()
    runtime = coordinator()
    runtime._merge_registry(result_body(sent)["metrics"])
    assert runtime.metrics.to_dict() == sent.to_dict()
    assert runtime.metrics.get("stage.b.latency").samples == []
    merged = runtime.metrics.get("stage.a.latency").samples
    assert [math.copysign(1.0, v) for v in merged] == [
        math.copysign(1.0, v) for v in SAMPLES
    ]


def test_two_workers_histograms_append_in_collection_order():
    runtime = coordinator()
    first, second = MetricsRegistry(), MetricsRegistry()
    first.histogram("stage.a.latency").observe(1.0)
    second.histogram("stage.a.latency").observe(2.0)
    second.histogram("stage.a.latency").observe(3.0)
    for registry in (first, second):
        runtime._merge_registry(result_body(registry)["metrics"])
    assert runtime.metrics.get("stage.a.latency").samples == [1.0, 2.0, 3.0]


def test_the_packed_form_is_little_endian_float64_on_any_host():
    wire = worker_registry().to_wire()["stage.a.latency"]
    assert set(wire) == {"kind", "f8"}
    raw = b64decode(wire["f8"])
    assert len(raw) == 8 * len(SAMPLES)
    assert list(struct.unpack(f"<{len(SAMPLES)}d", raw)) == [float(v) for v in SAMPLES]


@pytest.mark.parametrize("payload", [
    {"kind": "histogram", "samples": [1.0]},        # the retired JSON list
    {"kind": "histogram", "f8": "AAAA"},            # 3 bytes: not float64s
    {"kind": "histogram", "f8": "not base64!"},
])
def test_a_malformed_histogram_is_a_typed_error(payload):
    with pytest.raises(NetworkedRuntimeError, match="stage.a.latency"):
        coordinator()._merge_registry({"stage.a.latency": payload})
