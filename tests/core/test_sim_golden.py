"""Golden digests of simulated runs: behaviour is byte-identical per seed.

Each scenario is a small seeded run on :class:`SimulatedRuntime`; its
digest is the sha256 of the run's full ``export_jsonl`` output (every
stage row, the event log with times, every metric including histogram
samples and series, every hop trace).  A change to the simulator may
change how many heap events a run costs, never what the run observes —
so these digests must survive it unmodified.

A *deliberate* behaviour change regenerates the file in one reviewed
diff::

    python -m tests.core.test_sim_golden --regen

and ``--dump DIR`` writes the exports themselves, to diff against the
same command's output at another commit when a digest moves.
"""

import hashlib
import json
import os
import sys
import tempfile
from typing import Callable, Dict, Optional

import pytest

from repro.core.api import StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.results import RunResult
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.experiments.common import run_comp_steer, run_count_samps_distributed
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.obs.export import export_jsonl
from repro.resilience.demo import run_chaos_demo, run_migrate_demo
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network
from tests.shard_stages import KeyedRelay, KeyOrderSink

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "sim_digests.json")


class _Relay(StreamProcessor):
    """Forwards every payload at 8 bytes; cost set per scenario."""

    def __init__(self, per_item: float = 0.0) -> None:
        self.cost_model = CpuCostModel(per_item=per_item)

    def on_item(self, payload, context):
        context.emit(payload, size=8.0)


class _Collect(StreamProcessor):
    cost_model = CpuCostModel()

    def __init__(self) -> None:
        self.items: list = []

    def on_item(self, payload, context):
        self.items.append(payload)

    def result(self):
        return list(self.items)


def _pipeline(
    hosts: Dict[str, int],
    links,
    stages,
    streams,
    sources,
    batch: Optional[BatchPolicy] = None,
    trace_every: Optional[int] = None,
) -> RunResult:
    """Run one hand-placed pipeline.

    ``hosts`` maps name -> cores; ``links`` is ``(a, b, bandwidth,
    latency)``; ``stages`` is ``(name, factory, host, properties)``;
    ``streams`` is ``(name, src, dst)``; ``sources`` is ``(name, stage,
    payloads, rate)``.
    """
    env = Environment()
    net = Network(env)
    for name, cores in hosts.items():
        net.create_host(name, cores=cores)
    for a, b, bandwidth, latency in links:
        net.connect(a, b, bandwidth=bandwidth, latency=latency)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    configs = []
    for name, factory, host, properties in stages:
        repo.publish(f"repo://golden/{name}", factory)
        configs.append(
            StageConfig(
                name,
                f"repo://golden/{name}",
                requirement=ResourceRequirement(placement_hint=host),
                properties=properties or {},
            )
        )
    config = AppConfig(
        name="golden",
        stages=configs,
        streams=[StreamConfig(name, src, dst) for name, src, dst in streams],
    )
    deployment = Deployer(registry, repo).deploy(config)
    runtime = SimulatedRuntime(
        env, net, deployment, adaptation_enabled=True, batch=batch,
        trace_every=trace_every,
    )
    for name, stage, payloads, rate in sources:
        runtime.bind_source(SourceBinding(name, stage, payloads, rate=rate))
    return runtime.run()


def _countsamps_star(seed: int) -> RunResult:
    """The Fig-6/7 adaptive star the benchmark's ``sim-countsamps`` runs."""
    return run_count_samps_distributed(
        n_sources=4, items_per_source=20_000, bandwidth=10_000.0,
        sample_size=100.0, adaptive=True, seed=seed, trace_every=1000,
    ).result


def _comp_steer_cpu() -> RunResult:
    """Fig-8 shape: paced source, per-byte analysis cost is the constraint."""
    return run_comp_steer(
        analysis_ms_per_byte=10.0, duration_seconds=150.0, trace_every=40,
    ).result


def _comp_steer_net() -> RunResult:
    """Fig-9 shape: the 10 KB/s link is the constraint."""
    return run_comp_steer(
        generation_rate_bytes=40_000.0, link_bandwidth=10_000.0,
        duration_seconds=20.0,
    ).result


def _batched_relay() -> RunResult:
    """Micro-batched relay -> sink over a slow link with latency."""
    return _pipeline(
        hosts={"h0": 2, "h1": 2},
        links=[("h0", "h1", 20_000.0, 0.005)],
        stages=[
            ("relay", lambda: _Relay(0.0005), "h0", None),
            ("sink", _Collect, "h1", None),
        ],
        streams=[("out", "relay", "sink")],
        sources=[("src", "relay", list(range(1500)), 1500.0)],
        batch=BatchPolicy(max_items=16, max_delay=0.004),
        trace_every=25,
    )


def _one_core_contention() -> RunResult:
    """Three costed stages on a one-core host: every item queues for CPU."""
    return _pipeline(
        hosts={"h0": 1, "h1": 2},
        links=[("h0", "h1", 1e6, 0.001)],
        stages=[
            ("a", lambda: _Relay(0.003), "h0", None),
            ("b", lambda: _Relay(0.005), "h0", None),
            ("merge", lambda: _Relay(0.001), "h0", None),
            ("sink", _Collect, "h1", None),
        ],
        streams=[
            ("a-out", "a", "merge"), ("b-out", "b", "merge"),
            ("merged", "merge", "sink"),
        ],
        sources=[
            ("sa", "a", list(range(400)), None),
            ("sb", "b", list(range(1000, 1300)), 250.0),
        ],
        trace_every=20,
    )


def _shared_link_contention() -> RunResult:
    """Two edges over one slow link: every send queues for the transmitter."""
    return _pipeline(
        hosts={"h0": 4, "h1": 4},
        links=[("h0", "h1", 4_000.0, 0.002)],
        stages=[
            ("a", _Relay, "h0", None),
            ("b", _Relay, "h0", None),
            ("sink-a", _Collect, "h1", None),
            ("sink-b", _Collect, "h1", None),
        ],
        streams=[("a-out", "a", "sink-a"), ("b-out", "b", "sink-b")],
        sources=[
            ("sa", "a", list(range(500)), None),
            ("sb", "b", list(range(500)), 400.0),
        ],
        trace_every=20,
    )


def _sharded() -> RunResult:
    """A keyed relay as two replicas (PR 6's expansion) feeding one sink."""
    keys = ["k%d" % i for i in range(7)]
    payloads = [{"k": keys[i % 7], "i": i // 7} for i in range(420)]
    return _pipeline(
        hosts={"h%d" % i: 2 for i in range(4)},
        links=[
            ("h%d" % a, "h%d" % b, 50_000.0, 0.001)
            for a in range(4) for b in range(a + 1, 4)
        ],
        stages=[
            ("relay", KeyedRelay, None, {"replicas": "2", "shard-by": "field:k"}),
            ("sink", KeyOrderSink, None, None),
        ],
        streams=[("t", "relay", "sink")],
        sources=[("s", "relay", payloads, 2000.0)],
    )


SCENARIOS: Dict[str, Callable[[], RunResult]] = {
    "countsamps-star-seed3": lambda: _countsamps_star(3),
    "countsamps-star-seed11": lambda: _countsamps_star(11),
    "comp-steer-cpu-bound": _comp_steer_cpu,
    "comp-steer-net-bound": _comp_steer_net,
    "batched-relay-over-link": _batched_relay,
    "one-core-contention": _one_core_contention,
    "shared-link-contention": _shared_link_contention,
    "sharded-r2": _sharded,
    "chaos-loss-poison-crash": lambda: run_chaos_demo(
        items=400, loss=0.05, poison_every=37
    )[0],
    "migrate-demo": lambda: run_migrate_demo(items=400)[0],
}


def export_bytes(result: RunResult) -> bytes:
    """The run's complete JSONL export, as the bytes that get hashed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        export_jsonl(result, path)
        with open(path, "rb") as handle:
            return handle.read()


def digest(result: RunResult) -> str:
    return hashlib.sha256(export_bytes(result)).hexdigest()


def _load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_every_scenario_has_a_golden_and_no_golden_is_orphaned():
    assert sorted(_load_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_golden_digest(name):
    assert digest(SCENARIOS[name]()) == _load_golden()[name], (
        f"simulated behaviour of {name!r} changed; if that is intended, "
        "regenerate with `python -m tests.core.test_sim_golden --regen` "
        "(`--dump DIR` at both commits shows what moved)"
    )


def main(argv) -> int:
    if argv[:1] == ["--regen"] and len(argv) == 1:
        digests = {name: digest(run()) for name, run in sorted(SCENARIOS.items())}
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    if argv[:1] == ["--dump"] and len(argv) == 2:
        os.makedirs(argv[1], exist_ok=True)
        for name, run in sorted(SCENARIOS.items()):
            with open(os.path.join(argv[1], name + ".jsonl"), "wb") as handle:
                handle.write(export_bytes(run()))
        print(f"wrote {len(SCENARIOS)} exports to {argv[1]}")
        return 0
    print("usage: python -m tests.core.test_sim_golden --regen | --dump DIR")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
