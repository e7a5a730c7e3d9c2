"""Property test: sharding preserves per-key semantics on every runtime.

The contract from ``docs/sharding.md``: for any replica count, every
key's items arrive at the downstream stage in source order, and keyed
state follows its key (so the relay's per-key running count ``n`` stays
in lockstep with the source's per-key sequence number ``i``).  The test
runs the same keyed pipeline at 1, 2, and 4 replicas on all three
runtimes and asserts the sink observes the *identical* per-key pair
sequences every time — including, on the threaded runtime, while the
group is actively scaling up and down mid-stream (the rebalance soak).
One throughput floor rides along: on the threaded runtime, two replicas
of a compute-bound relay must reach 1.6x the items/s of one.

Fixture processors live in ``tests/shard_stages.py`` and are resolved
via ``py://`` code URLs so the networked runtime's worker processes can
import them too.
"""

import time
from typing import Any, Dict, Iterator, List

import pytest

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.net.coordinator import NetworkedRuntime
from repro.simnet.engine import Environment
from repro.simnet.topology import Network

from tests.shard_stages import KeyedRelay, KeyOrderSink, NamedKeyedRelay

KEYS = [f"k{i}" for i in range(7)]

#: The relay emits by broadcast, or names the declared stream ``"t"`` —
#: which sharding expands into per-replica ``t#i`` edges.
RELAYS = {"broadcast": KeyedRelay, "named": NamedKeyedRelay}
#: Every parity case at 1, 2 and 4 replicas with either relay (the
#: broadcast cases keep their historical ids ``[1]``, ``[2]``, ``[4]``).
cases = pytest.mark.parametrize(
    "replicas,relay",
    [pytest.param(r, "broadcast", id=str(r)) for r in (1, 2, 4)]
    + [pytest.param(r, "named", id=f"{r}-named") for r in (1, 2, 4)],
)


def _payloads(count: int) -> List[Dict[str, Any]]:
    return [{"k": KEYS[i % len(KEYS)], "i": i // len(KEYS)} for i in range(count)]


def _expected(payloads: List[Dict[str, Any]]) -> Dict[str, list]:
    """The oracle: per-key [i, n] pairs with n counting that key from 1."""
    out: Dict[str, list] = {}
    counts: Dict[str, int] = {}
    for payload in payloads:
        key = payload["k"]
        counts[key] = counts.get(key, 0) + 1
        out.setdefault(key, []).append([payload["i"], counts[key]])
    return out


PAYLOADS = _payloads(140)
EXPECTED = _expected(PAYLOADS)


def _shard_props(replicas: int) -> Dict[str, str]:
    if replicas == 1:
        return {}
    return {"replicas": str(replicas), "shard-by": "field:k"}


def _shard_item_total(metrics: Any) -> float:
    names = [n for n in metrics.names("shard.") if n.endswith(".items")]
    return sum(metrics.value(n) for n in names)


# -- simulated runtime -------------------------------------------------------


def _run_sim(replicas: int, relay: str = "broadcast"):
    env = Environment()
    net = Network(env)
    hosts = [f"h{i}" for i in range(5)]
    for host in hosts:
        net.create_host(host, cores=2)
    for a in hosts:
        for b in hosts:
            if a < b:
                net.connect(a, b, bandwidth=1e7)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    repo.publish("repo://t/relay", RELAYS[relay])
    repo.publish("repo://t/sink", KeyOrderSink)
    config = AppConfig(
        name="shard-parity-sim",
        stages=[
            StageConfig("relay", "repo://t/relay",
                        requirement=ResourceRequirement(),
                        properties=_shard_props(replicas)),
            StageConfig("sink", "repo://t/sink",
                        requirement=ResourceRequirement()),
        ],
        streams=[StreamConfig("t", "relay", "sink")],
    )
    deployment = Deployer(registry, repo).deploy(config)
    runtime = SimulatedRuntime(env, net, deployment, adaptation_enabled=False)
    runtime.bind_source(SourceBinding("s", "relay", list(PAYLOADS), rate=500.0))
    return runtime.run(), deployment


@cases
def test_sim_per_key_parity(replicas, relay):
    result, _ = _run_sim(replicas, relay)
    assert result.final_value("sink") == EXPECTED


def test_sim_counts_each_item_once_and_spreads_replicas():
    result, deployment = _run_sim(4)
    # Routed once on the group-bound hop: the total equals the item count.
    assert _shard_item_total(result.metrics) == len(PAYLOADS)
    assert result.metrics.value("shard.relay.replicas") == 4.0
    # The matchmaker's claimed-host exclusion spreads the group: four
    # replicas land on four distinct hosts of the five-host fabric.
    hosts = {deployment.host_of(f"relay#{i}") for i in range(4)}
    assert len(hosts) == 4, hosts


# -- threaded runtime --------------------------------------------------------


def _threaded_config(
    name: str,
    props: Dict[str, str],
    relay: str = "broadcast",
) -> AppConfig:
    code = RELAYS[relay].__name__ if relay in RELAYS else relay
    return AppConfig(
        name=name,
        stages=[
            StageConfig("relay", f"py://tests.shard_stages:{code}", properties=props),
            StageConfig("sink", "py://tests.shard_stages:KeyOrderSink"),
        ],
        streams=[StreamConfig("t", "relay", "sink")],
    )


@cases
def test_threaded_per_key_parity(replicas, relay):
    config = _threaded_config("shard-parity-thr", _shard_props(replicas), relay)
    runtime = ThreadedRuntime.from_config(config, adaptation_enabled=False)
    runtime.bind_source("s", "relay", list(PAYLOADS))
    result = runtime.run(timeout=60.0)
    assert result.final_value("sink") == EXPECTED
    if replicas > 1:
        assert _shard_item_total(result.metrics) == len(PAYLOADS)
        assert result.metrics.value("shard.relay.replicas") == float(replicas)


#: Two replicas of a compute-bound relay must nearly double items/s; 1.6x
#: leaves headroom for scheduler noise on a loaded machine.
MIN_SHARD_SPEEDUP = 1.6


def _threaded_items_per_second(replicas: int, items: int) -> float:
    config = AppConfig(
        name="shard-scaling",
        stages=[
            StageConfig("relay", "py://tests.shard_stages:CostlyRelay",
                        properties={"replicas": str(replicas),
                                    "shard-by": "payload"}),
            StageConfig("sink", "py://tests.shard_stages:CountSink"),
        ],
        streams=[StreamConfig("t", "relay", "sink")],
    )
    runtime = ThreadedRuntime.from_config(config, adaptation_enabled=False)
    runtime.bind_source("s", "relay", range(items))
    start = time.perf_counter()
    result = runtime.run(timeout=60.0)
    seconds = time.perf_counter() - start
    assert result.final_value("sink") == items
    return items / seconds


def test_threaded_replicas_scale_throughput():
    r1 = _threaded_items_per_second(1, 400)
    r2 = _threaded_items_per_second(2, 400)
    assert r2 / r1 >= MIN_SHARD_SPEEDUP, (
        f"2 replicas only {r2 / r1:.2f}x over 1 ({r1:,.0f} -> {r2:,.0f} "
        f"items/s; floor {MIN_SHARD_SPEEDUP}x)"
    )


# -- networked runtime -------------------------------------------------------


@cases
def test_networked_per_key_parity(replicas, relay):
    config = _threaded_config("shard-parity-net", _shard_props(replicas), relay)
    runtime = NetworkedRuntime(config, workers=3, adaptation_enabled=False)
    runtime.bind_source("s", "relay", list(PAYLOADS), rate=2000.0)
    result = runtime.run(timeout=60.0)
    assert result.final_value("sink") == EXPECTED
    if replicas > 1:
        assert _shard_item_total(result.metrics) == len(PAYLOADS)
        assert result.metrics.value("shard.relay.replicas") == float(replicas)


# -- elastic autoscaling soak (threaded) -------------------------------------


class _TwoPhaseArrivals:
    """Burst-then-trickle gaps: saturate one replica, then go idle.

    The first ``burst`` items arrive at ``burst_gap`` seconds apart —
    far faster than one SlowKeyedRelay replica (2 ms/item) can drain, so
    queue occupancy breaches and the group scales up.  The remainder
    arrive at ``idle_gap``, slow enough for even one replica, so
    occupancy collapses and the group scales back down before the
    stream ends.
    """

    def __init__(self, burst: int, burst_gap: float, idle_gap: float) -> None:
        self.burst = burst
        self.burst_gap = burst_gap
        self.idle_gap = idle_gap

    def gaps(self) -> Iterator[float]:
        count = 0
        while True:
            yield self.burst_gap if count < self.burst else self.idle_gap
            count += 1


def test_threaded_parity_under_rebalance():
    payloads = _payloads(500)
    config = _threaded_config("shard-soak", {
        "replicas": "1",
        "shard-by": "field:k",
        "scale-max-replicas": "3",
    }, relay="SlowKeyedRelay")
    runtime = ThreadedRuntime.from_config(
        config,
        adaptation_enabled=False,
        policy=AdaptationPolicy(sample_interval=0.05),
    )
    runtime.bind_source(
        "s", "relay", list(payloads),
        arrivals=_TwoPhaseArrivals(burst=360, burst_gap=0.0005, idle_gap=0.012),
    )
    result = runtime.run(timeout=120.0)

    # Parity holds even though the group rebalanced mid-stream: per-key
    # order is preserved and the keyed counts followed their keys.
    assert result.final_value("sink") == _expected(payloads)

    # The control loop actually closed: at least one scale-up under the
    # burst and at least one scale-down once the trickle phase drained.
    assert result.metrics.value("scale.relay.scale_ups") >= 1
    assert result.metrics.value("scale.relay.scale_downs") >= 1
    actives = result.metrics.series("scale.relay.replicas").values
    assert actives[0] == 1.0
    assert max(actives) >= 2.0
    # Every rebalance was timed.
    rebalances = result.metrics.histogram(
        "scale.relay.rebalance_seconds"
    ).count
    assert rebalances >= 2
