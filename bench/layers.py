"""Per-layer probes: time calls into one layer's public functions.

Each probe feeds a layer the same kind of input the workloads feed it
(seeded summary dicts, ``seq << 32 | random`` ints, the skewed integer
stream) and reports the **median of five chunks**, so a number here can
be compared with the share of a workload's time the trace attributes to
that layer.  Names are ``<module>.<metric>``; which end-to-end metric
each should move, on which workload, is tabulated in ``bench/README.md``.

The probes never reach into private names: a layer whose cost cannot be
seen through its public API is measured by the traced run instead.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.workloads import (
    COUNTSAMPS_BATCH,
    COUNTSAMPS_SKEW,
    COUNTSAMPS_UNIVERSE,
    NET_BATCH,
    PACED_PAIRS,
    SIM_BANDWIDTH,
    SIM_SOURCES,
    STAGES,
)

CHUNKS = 5


def timed(fn: Callable[[], Any], ops: int, budget_s: float) -> float:
    """Median ns per op over CHUNKS chunks, each repeating ``fn`` for
    ``budget_s / CHUNKS``; ``fn`` performs ``ops`` operations per call."""
    fn()  # warm caches and lazy set-up outside the timed region
    chunk_ns = budget_s / CHUNKS * 1e9
    per_op = []
    for _ in range(CHUNKS):
        calls = 0
        start = now = perf_counter_ns()
        while now - start < chunk_ns:
            fn()
            calls += 1
            now = perf_counter_ns()
        per_op.append((now - start) / (calls * ops))
    return statistics.median(per_op)


def _summaries(seed: int, n: int) -> List[Dict[str, Any]]:
    rng = random.Random(seed)
    return [
        {
            "source": "gen",
            "pairs": [(rng.getrandbits(40), rng.getrandbits(20)) for _ in range(PACED_PAIRS)],
            "items_seen": i + 1,
        }
        for i in range(n)
    ]


def _ints(seed: int, n: int) -> List[int]:
    rng = random.Random(seed)
    return [(seq << 32) | rng.getrandbits(32) for seq in range(n)]


def _zipf(seed: int, n: int) -> List[int]:
    from repro.streams.sources import IntegerStream

    return list(IntegerStream(n, universe=COUNTSAMPS_UNIVERSE,
                              skew=COUNTSAMPS_SKEW, seed=seed * 1000))


# -- codecs and framing ----------------------------------------------------------


def probe_wire(seed: int, budget: float) -> Dict[str, float]:
    from repro.streams.wire import decode_summary, encode_summary

    records = [(s["pairs"], s["items_seen"]) for s in _summaries(seed, 500)]
    blobs = [encode_summary(pairs, seen) for pairs, seen in records]

    def encode() -> None:
        for pairs, seen in records:
            encode_summary(pairs, seen)

    def decode() -> None:
        for blob in blobs:
            decode_summary(blob)

    return {
        "streams.wire.encode_ns_per_item": timed(encode, len(records), budget),
        "streams.wire.decode_ns_per_item": timed(decode, len(blobs), budget),
        "streams.wire.bytes_per_item": float(len(blobs[0])),
    }


def probe_protocol_single(seed: int, budget: float) -> Dict[str, float]:
    """One summary dict per DATA frame, as ``net-summary-paced`` sends them."""
    from repro.net.protocol import (
        FrameDecoder,
        FrameType,
        decode_payload,
        encode_payload_into,
        finish_frame,
        new_frame_buffer,
    )
    from repro.streams.wire import summary_wire_size

    size = summary_wire_size(PACED_PAIRS)
    summaries = _summaries(seed, 500)

    def frame(obj: Any) -> bytearray:
        out = new_frame_buffer()
        encode_payload_into(out, obj, size)
        return finish_frame(out, FrameType.DATA)

    frames = [bytes(frame(obj)) for obj in summaries]

    def encode() -> None:
        for obj in summaries:
            frame(obj)

    def decode() -> None:
        decoder = FrameDecoder()
        for data in frames:
            for received in decoder.feed(data):
                decode_payload(received.payload)

    return {
        "net.protocol.frame_single_encode_ns": timed(encode, len(summaries), budget),
        "net.protocol.frame_single_decode_ns": timed(decode, len(summaries), budget),
        "net.protocol.wire_bytes_per_item.single": float(len(frames[0])),
    }


def probe_protocol_batch(seed: int, budget: float) -> Dict[str, float]:
    """NET_BATCH[0] int64 items per DATA frame, as ``net-relay-saturate`` sends them."""
    from repro.net.protocol import (
        FrameDecoder,
        FrameType,
        decode_payload_batch,
        encode_payload_batch_into,
        finish_frame,
        new_frame_buffer,
    )

    per_frame = NET_BATCH[0]
    ints = _ints(seed, per_frame * 32)
    groups = [
        [(value, 8.0) for value in ints[i:i + per_frame]]
        for i in range(0, len(ints), per_frame)
    ]

    def frame(group: List[Tuple[int, float]]) -> bytearray:
        out = new_frame_buffer()
        encode_payload_batch_into(out, group)
        return finish_frame(out, FrameType.DATA)

    frames = [bytes(frame(group)) for group in groups]

    def encode() -> None:
        for group in groups:
            frame(group)

    def decode() -> None:
        decoder = FrameDecoder()
        for data in frames:
            for received in decoder.feed(data):
                decode_payload_batch(received.payload)

    return {
        "net.protocol.frame_batch_encode_ns_per_item": timed(encode, len(ints), budget),
        "net.protocol.frame_batch_decode_ns_per_item": timed(decode, len(ints), budget),
        "net.protocol.wire_bytes_per_item.batch": len(frames[0]) / per_frame,
    }


def _timed_on_loop(coro_fn: Callable[[], Any], ops: int, budget: float) -> float:
    loop = asyncio.new_event_loop()
    try:
        return timed(lambda: loop.run_until_complete(coro_fn()), ops, budget)
    finally:
        loop.close()


INBOX_ITEMS = 1024


def probe_inbox_single(seed: int, budget: float) -> Dict[str, float]:
    from repro.net.channels import AsyncInbox

    async def single() -> None:
        inbox = AsyncInbox(capacity=INBOX_ITEMS + 1, window=12)
        for value in range(INBOX_ITEMS):
            await inbox.force_put(value)
        for _ in range(INBOX_ITEMS):
            await inbox.get()

    return {"net.channels.inbox_ns_per_item.single": _timed_on_loop(single, INBOX_ITEMS, budget)}


def probe_inbox_batch(seed: int, budget: float) -> Dict[str, float]:
    from repro.net.channels import AsyncInbox

    chunk = NET_BATCH[0]
    entries = list(range(chunk))

    async def batch() -> None:
        inbox = AsyncInbox(capacity=INBOX_ITEMS + 1, window=12)
        for _ in range(INBOX_ITEMS // chunk):
            await inbox.force_put_many(entries)
            await inbox.get_many(chunk)

    return {"net.channels.inbox_ns_per_item.batch": _timed_on_loop(batch, INBOX_ITEMS, budget)}


# -- runtimes: a null relay -> sink hop through the public API ---------------------


def _median_run_ns_per_item(run_once: Callable[[], float], items: int) -> float:
    return statistics.median(run_once() for _ in range(CHUNKS)) / items


def probe_runtime_threads(seed: int, budget: float) -> Dict[str, float]:
    from bench.stages import CountingSink, NullRelay
    from repro.core.batching import BatchPolicy
    from repro.core.runtime_threads import ThreadedRuntime

    items = max(2_000, int(60_000 * budget))

    def run_once(batch: Any) -> float:
        runtime = ThreadedRuntime(adaptation_enabled=False, batch=batch)
        runtime.add_stage("relay", NullRelay())
        runtime.add_stage("sink", CountingSink())
        runtime.connect("relay", "sink")
        runtime.bind_source("src", "relay", range(items), item_size=8.0)
        start = perf_counter_ns()
        result = runtime.run(timeout=60.0)
        elapsed = perf_counter_ns() - start
        if result.final_value("sink")["value"] != items:
            raise RuntimeError("threaded null hop lost items")
        return elapsed

    return {
        "core.runtime_threads.null_hop_ns_per_item.single":
            _median_run_ns_per_item(lambda: run_once(None), items),
        "core.runtime_threads.null_hop_ns_per_item.batch":
            _median_run_ns_per_item(lambda: run_once(BatchPolicy(*NET_BATCH)), items),
    }


def probe_runtime_sim(seed: int, budget: float) -> Dict[str, float]:
    from repro.core.batching import BatchPolicy
    from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
    from repro.grid.config import AppConfig, StageConfig, StreamConfig
    from repro.grid.deployer import Deployer
    from repro.grid.registry import ServiceRegistry
    from repro.grid.repository import CodeRepository
    from repro.grid.resources import ResourceRequirement
    from repro.simnet.engine import Environment
    from repro.simnet.topology import Network

    items = max(500, int(10_000 * budget))

    def run_once(batch: Any) -> float:
        env = Environment()
        network = Network(env)
        network.create_host("h0", cores=2)
        network.create_host("h1", cores=2)
        network.connect("h0", "h1", bandwidth=1e9)
        registry = ServiceRegistry()
        registry.register_network(network)
        config = AppConfig(
            name="probe-sim",
            stages=[
                StageConfig("relay", STAGES + "NullRelay",
                            requirement=ResourceRequirement(placement_hint="h0")),
                StageConfig("sink", STAGES + "CountingSink",
                            requirement=ResourceRequirement(placement_hint="h1")),
            ],
            streams=[StreamConfig("link", "relay", "sink")],
        )
        deployment = Deployer(registry, CodeRepository()).deploy(config)
        runtime = SimulatedRuntime(
            env, network, deployment, adaptation_enabled=False, batch=batch
        )
        runtime.bind_source(SourceBinding("src", "relay", range(items)))
        start = perf_counter_ns()
        result = runtime.run()
        elapsed = perf_counter_ns() - start
        if result.final_value("sink")["value"] != items:
            raise RuntimeError("simulated null hop lost items")
        return elapsed

    return {
        "core.runtime_sim.null_hop_ns_per_item.single":
            _median_run_ns_per_item(lambda: run_once(None), items),
        "core.runtime_sim.null_hop_ns_per_item.batch":
            _median_run_ns_per_item(lambda: run_once(BatchPolicy(*NET_BATCH)), items),
    }


# -- the simulator's substrate --------------------------------------------------


def probe_simnet(seed: int, budget: float) -> Dict[str, float]:
    from repro.simnet.engine import Environment
    from repro.simnet.links import Link
    from repro.simnet.resources import BoundedQueue

    n = 2_000

    def timeouts() -> None:
        env = Environment()

        def ticker():
            for _ in range(n):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()

    def events() -> None:
        env = Environment()
        for _ in range(n):
            env.event().succeed()
        env.run()

    def handoffs() -> None:
        env = Environment()
        queue = BoundedQueue(env, capacity=64)

        def producer():
            for value in range(n):
                yield queue.put(value)

        def consumer():
            for _ in range(n):
                yield queue.get()

        env.process(producer())
        env.process(consumer())
        env.run()

    def sends() -> None:
        env = Environment()
        link = Link(env, bandwidth=SIM_BANDWIDTH)
        link.collect_inbox = False

        def sender():
            for _ in range(n):
                yield link.send(None, 100.0)

        env.process(sender())
        env.run()

    return {
        "simnet.engine.timeout_ns_per_event": timed(timeouts, n, budget),
        "simnet.engine.event_ns": timed(events, n, budget),
        "simnet.resources.store_ns_per_handoff": timed(handoffs, n, budget),
        "simnet.links.send_ns_per_message": timed(sends, n, budget),
    }


# -- batching, adaptation, metrics ------------------------------------------------


def probe_batching(seed: int, budget: float) -> Dict[str, float]:
    from repro.core.batching import BatchBuffer, BatchPolicy

    entries = [(value, 8.0) for value in _ints(seed, 1024)]

    def fill() -> None:
        buffer = BatchBuffer(BatchPolicy(*NET_BATCH))
        now = 0.0
        for entry in entries:
            now += 1e-5
            if buffer.add(entry, now) or buffer.due(now):
                buffer.drain()

    return {"core.batching.buffer_ns_per_item": timed(fill, len(entries), budget)}


def probe_adaptation(seed: int, budget: float) -> Dict[str, float]:
    from repro.core.adaptation.controller import ParameterController
    from repro.core.adaptation.load import LoadEstimator
    from repro.core.adaptation.policy import AdaptationPolicy
    from repro.core.api import AdjustmentParameter
    from repro.simnet.engine import Environment
    from repro.simnet.resources import BoundedQueue

    policy = AdaptationPolicy()
    rng = random.Random(seed)
    scores = [rng.uniform(-1.0, 1.0) for _ in range(500)]

    def samples() -> None:
        queue = BoundedQueue(Environment(), capacity=200)
        for value in range(120):
            queue.force_put(value)
        estimator = LoadEstimator("probe", queue, policy)
        for tick in range(500):
            estimator.sample(float(tick))

    def adjusts() -> None:
        controller = ParameterController(
            AdjustmentParameter("sample-size", 100.0, 10.0, 240.0, 10.0, -1), policy
        )
        for tick, score in enumerate(scores):
            controller.adjust(score, tick & 1, 0, float(tick))

    return {
        "core.adaptation.sample_ns": timed(samples, 500, budget),
        "core.adaptation.adjust_ns": timed(adjusts, len(scores), budget),
    }


def probe_registry(seed: int, budget: float) -> Dict[str, float]:
    from repro.obs.registry import MetricsRegistry

    n, exported = 5_000, 50_000

    def incs() -> None:
        counter = MetricsRegistry().counter("stage.probe.items_in")
        for _ in range(n):
            counter.inc()

    def observes() -> None:
        histogram = MetricsRegistry().histogram("stage.probe.latency")
        for value in range(n):
            histogram.observe(value)

    full = MetricsRegistry()
    histogram = full.histogram("stage.probe.latency")
    rng = random.Random(seed)
    for _ in range(exported):
        histogram.observe(rng.random())

    def export() -> None:
        MetricsRegistry.from_dict(json.loads(json.dumps(full.to_dict())))

    return {
        "obs.registry.counter_inc_ns": timed(incs, n, budget),
        "obs.registry.histogram_observe_ns": timed(observes, n, budget),
        "obs.registry.export_ms_per_100k":
            timed(export, 1, budget) / 1e6 * (100_000 / exported),
    }


# -- the count-samps application -----------------------------------------------------


def probe_countsamps(seed: int, budget: float) -> Dict[str, float]:
    from bench.stages import BenchFilter, BenchJoin
    from repro.core.api import RecordingContext
    from repro.streams.sketches import CountingSamples

    values = _zipf(seed, 20_000)
    properties = {"batch": str(COUNTSAMPS_BATCH), "seed": str(seed)}

    def updates() -> None:
        sketch = CountingSamples(240, seed=seed)
        for value in values:
            sketch.update(value)

    warm = CountingSamples(240, seed=seed)
    for value in values:
        warm.update(value)

    def filter_items() -> None:
        stage, context = BenchFilter(), RecordingContext("filter-0", properties)
        stage.setup(context)
        for value in values:
            stage.on_item(value, context)

    stage, context = BenchFilter(), RecordingContext("filter-0", properties)
    stage.setup(context)
    for value in values:
        stage.on_item(value, context)
    summaries = [payload for payload, _ in context.emitted]

    def join_items() -> None:
        join, join_context = BenchJoin(), RecordingContext("join")
        join.setup(join_context)
        for summary in summaries:
            join.on_item(summary, join_context)

    return {
        "streams.sketches.update_ns_per_item": timed(updates, len(values), budget),
        "streams.sketches.summary_us": timed(lambda: warm.top_k(100), 1, budget) / 1e3,
        "apps.count_samps.filter_on_item_ns": timed(filter_items, len(values), budget),
        "apps.count_samps.join_on_item_us": timed(join_items, len(summaries), budget) / 1e3,
    }


def probe_deployer(seed: int, budget: float) -> Dict[str, float]:
    from bench.workloads import countsamps_config
    from repro.experiments.common import build_star_fabric

    def deploy_once() -> float:
        fabric = build_star_fabric(SIM_SOURCES, bandwidth=SIM_BANDWIDTH)
        config = countsamps_config(SIM_SOURCES, fabric.source_hosts, seed, False)
        start = perf_counter_ns()
        fabric.launcher.launch(config)
        return perf_counter_ns() - start

    deploy_once()
    return {
        "grid.deployer.deploy_ms":
            statistics.median(deploy_once() for _ in range(CHUNKS)) / 1e6,
    }


SATURATE = ("net-relay-saturate",)
PACED = ("net-summary-paced",)
COUNTSAMPS = ("threaded-countsamps", "sim-countsamps")
SIM = ("sim-countsamps",)

#: Each probe with the workloads whose run executes the probed layer; the
#: table in ``bench/README.md`` says which end-to-end metric it should move.
PROBES: Tuple[Tuple[Callable[[int, float], Dict[str, float]], Tuple[str, ...]], ...] = (
    (probe_wire, PACED),
    (probe_protocol_single, PACED),
    (probe_inbox_single, PACED),
    (probe_protocol_batch, SATURATE),
    (probe_inbox_batch, SATURATE),
    (probe_runtime_threads, ("threaded-countsamps",)),
    (probe_runtime_sim, SIM),
    (probe_simnet, SIM),
    (probe_batching, SATURATE),
    (probe_adaptation, COUNTSAMPS),
    (probe_registry, SATURATE + PACED + COUNTSAMPS),
    (probe_countsamps, COUNTSAMPS),
    (probe_deployer, SIM),
)


def run_probes(seed: int, budget_s: float, workload: Optional[str] = None) -> Dict[str, Any]:
    """``{metric: {"value", "workloads"}}`` for every probe, or only for the
    probes of the layers ``workload`` runs; ``budget_s`` is the timed
    seconds per metric."""
    out: Dict[str, Any] = {}
    for probe, workloads in PROBES:
        if workload is None or workload in workloads:
            for name, value in probe(seed, budget_s).items():
                out[name] = {"value": value, "workloads": workloads}
    return out
