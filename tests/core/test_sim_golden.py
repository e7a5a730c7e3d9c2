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

Every simulated run behind EXPERIMENTS.md (:mod:`tests.experiments.runs`:
Fig 5, Fig 6/7 on two seeds, Fig 8, Fig 9, the ablations and the
extensions — 84 runs, a few minutes) is computed once by one command,
too slow for the test suite.  It holds each run's export to its digest
in ``golden/experiment_digests.json``, each run set's rows to
``golden/experiment_rows.json``, and evaluates every paper claim of
:mod:`tests.experiments.claims` over the fresh rows::

    python -m tests.core.test_sim_golden --experiments [--regen]

``--regen`` rewrites both files; the rows file records the sha256 of the
digests file it was written with, and tier-1 evaluates the claims over
the committed rows.
"""

import hashlib
import json
import os
import sys
import tempfile
from functools import partial
from typing import Callable, Dict, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
EXPERIMENTS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "experiment_digests.json"
)
EXPERIMENT_ROWS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "experiment_rows.json"
)


class _Relay(StreamProcessor):
    """Forwards every payload at 8 bytes; cost set per scenario."""

    def __init__(self, per_item: float = 0.0) -> None:
        self.cost_model = CpuCostModel(per_item=per_item)

    def on_item(self, payload, context):
        context.emit(payload, size=8.0)


class _Collect(StreamProcessor):
    def __init__(self, per_item: float = 0.0) -> None:
        self.cost_model = CpuCostModel(per_item=per_item)
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
    stop_at: Optional[float] = None,
) -> RunResult:
    """Run one hand-placed pipeline.

    ``hosts`` maps name -> cores; ``links`` is ``(a, b, bandwidth,
    latency)``; ``stages`` is ``(name, factory, host, properties)``;
    ``streams`` is ``(name, src, dst)``; ``sources`` is ``(name, stage,
    payloads, rate)``; a ``rate`` of None is a gap-0 source, which puts
    its next item as soon as the stage queue has room.
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
    return runtime.run(stop_at=stop_at)


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


def _fan_in_gap0() -> RunResult:
    """Three gap-0 sources block on one small queue: its putters wait FIFO."""
    return _pipeline(
        hosts={"h0": 2, "h1": 2},
        links=[("h0", "h1", 8_000.0, 0.002)],
        stages=[
            ("merge", _Relay, "h0", {"queue-capacity": "5"}),
            ("sink", _Collect, "h1", None),
        ],
        streams=[("out", "merge", "sink")],
        sources=[
            ("s0", "merge", list(range(200)), None),
            ("s1", "merge", list(range(1000, 1200)), None),
            ("s2", "merge", list(range(2000, 2150)), None),
        ],
    )


def _gap0_shares_core() -> RunResult:
    """A free stage fed at gap 0 shares a one-core host with a costed one."""
    return _pipeline(
        hosts={"h0": 1, "h1": 2},
        links=[("h0", "h1", 50_000.0, 0.001)],
        stages=[
            ("free", _Relay, "h0", {"queue-capacity": "10"}),
            ("costed", lambda: _Relay(0.002), "h0", None),
            ("sink", _Collect, "h1", None),
        ],
        streams=[("free-out", "free", "sink"), ("costed-out", "costed", "sink")],
        sources=[
            ("fast", "free", list(range(600)), None),
            ("paced", "costed", list(range(5000, 5300)), 400.0),
        ],
        trace_every=30,
    )


def _gap0_sharded() -> RunResult:
    """A gap-0 source bound to a shard group: it blocks per replica queue."""
    keys = ["k%d" % i for i in range(5)]
    payloads = [{"k": keys[i % 5], "i": i // 5} for i in range(500)]
    return _pipeline(
        hosts={"h%d" % i: 2 for i in range(4)},
        links=[
            ("h%d" % a, "h%d" % b, 30_000.0, 0.001)
            for a in range(4) for b in range(a + 1, 4)
        ],
        stages=[
            (
                "relay", KeyedRelay, None,
                {"replicas": "2", "shard-by": "field:k", "queue-capacity": "6"},
            ),
            ("sink", KeyOrderSink, None, None),
        ],
        streams=[("t", "relay", "sink")],
        sources=[("s", "relay", payloads, None)],
    )


def _traced_gap0_blocking() -> RunResult:
    """Every third arrival of a gap-0 source is traced while its puts block."""
    return _pipeline(
        hosts={"h0": 2, "h1": 2},
        links=[("h0", "h1", 10_000.0, 0.003)],
        stages=[
            ("relay", lambda: _Relay(0.0004), "h0", {"queue-capacity": "4"}),
            ("sink", _Collect, "h1", None),
        ],
        streams=[("out", "relay", "sink")],
        sources=[
            ("s0", "relay", list(range(300)), None),
            ("s1", "relay", list(range(500, 700)), None),
        ],
        trace_every=3,
    )


def _stop_inside_work() -> RunResult:
    """``stop_at`` lands inside an uncontended unit of work (item 26's):
    a lone costed stage whose next event is its own completion."""
    return _pipeline(
        hosts={"h0": 2},
        links=[],
        stages=[("sink", lambda: _Collect(0.01), "h0", None)],
        streams=[],
        sources=[("s", "sink", list(range(100)), None)],
        stop_at=0.255,
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
    "fan-in-three-gap0": _fan_in_gap0,
    "gap0-shares-one-core": _gap0_shares_core,
    "gap0-sharded": _gap0_sharded,
    "traced-gap0-blocking": _traced_gap0_blocking,
    "resilient-crash-gap0": lambda: run_chaos_demo(
        items=300, rate=None, poison_every=41
    )[0],
    "stop-inside-work": _stop_inside_work,
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


@st.composite
def _small_pipelines(draw):
    """Fan-in onto 1-3 relays (costed or free, alone or sharing cores)
    feeding one sink, from gap-0 or paced sources, maybe traced or cut
    short by ``stop_at``."""
    hosts = {f"h{i}": draw(st.integers(1, 2)) for i in range(draw(st.integers(1, 3)))}
    names = sorted(hosts)
    links = [
        (a, b, draw(st.sampled_from([2_000.0, 50_000.0])), draw(st.sampled_from([0.0, 0.002])))
        for i, a in enumerate(names) for b in names[i + 1:]
    ]
    relays = []
    for i in range(draw(st.integers(1, 3))):
        cost = draw(st.sampled_from([0.0, 0.0, 0.001, 0.004]))
        capacity = draw(st.sampled_from(["2", "5", "200"]))
        relays.append((
            f"r{i}", partial(_Relay, cost), draw(st.sampled_from(names)),
            {"queue-capacity": capacity},
        ))
    # Every relay gets a source (a stage needs an input); extra sources
    # fan in.
    targets = [name for name, _, _, _ in relays]
    targets += draw(st.lists(st.sampled_from(targets), max_size=2))
    sources = [
        (
            f"s{j}", target, list(range(100 * j, 100 * j + draw(st.integers(0, 60)))),
            draw(st.sampled_from([None, None, 300.0, 2_000.0])),
        )
        for j, target in enumerate(targets)
    ]
    return dict(
        hosts=hosts,
        links=links,
        stages=relays + [("sink", _Collect, draw(st.sampled_from(names)), None)],
        streams=[(f"{name}-out", name, "sink") for name, _, _, _ in relays],
        sources=sources,
        trace_every=draw(st.sampled_from([None, 1, 4])),
        stop_at=draw(st.sampled_from([None, None, 0.013, 0.05, 0.2])),
    )


@settings(deadline=None)  # examples: the Hypothesis profile's (tests/conftest.py)
@given(_small_pipelines())
def test_inline_operations_change_nothing(shape):
    """Running what would be the next event inline (a worker's take, a
    parked feeder's resumption, work on a free core) exports the same
    bytes as scheduling every one of them: ``Environment.next_up`` is the
    only switch, and here it always answers no."""
    fast = export_bytes(_pipeline(**shape))
    with mock.patch.object(Environment, "next_up", lambda *_: False):
        slow = export_bytes(_pipeline(**shape))
    assert fast == slow


def _load_golden(path: str = GOLDEN_PATH) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_golden(path: str, digests: Dict[str, str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {path}")


def run_experiments() -> Tuple[Dict[str, str], Dict[str, object]]:
    """Run every set of :data:`tests.experiments.runs.RUN_SETS` once.

    Returns the digest of each run's export by ``set/index`` (hashed as
    the run returns) and each set's rows, as JSON reads them back.
    """
    from tests.experiments.runs import RUN_SETS

    original = SimulatedRuntime.run
    digests: Dict[str, str] = {}
    rows: Dict[str, object] = {}
    for name, run_set in RUN_SETS.items():
        hashed: list = []

        def _hashed(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            hashed.append(digest(result))
            return result

        with mock.patch.object(SimulatedRuntime, "run", _hashed):
            rows[name] = json.loads(json.dumps(run_set()))
        for index, value in enumerate(hashed):
            digests[f"{name}/{index:02d}"] = value
        print(f"ran {name}: {len(hashed)} runs", flush=True)
    return digests, rows


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_rows(rows: Dict[str, object]) -> None:
    """Commit the rows beside the sha256 of the digests they came with."""
    document = {"digests_sha256": file_sha256(EXPERIMENTS_PATH), "rows": rows}
    with open(EXPERIMENT_ROWS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(rows)} row sets to {EXPERIMENT_ROWS_PATH}")


def check_experiments() -> int:
    """Run every experiment once; hold each run to its committed digest,
    each set's rows to the committed rows, and evaluate every claim over
    the fresh rows."""
    from tests.experiments.claims import evaluate

    golden = _load_golden(EXPERIMENTS_PATH)
    committed = _load_golden(EXPERIMENT_ROWS_PATH)["rows"]
    digests, rows = run_experiments()
    moved = [name for name, value in digests.items() if golden.get(name) != value]
    missing = sorted(set(golden) - set(digests))
    for name in moved:
        print(f"MOVED {name}")
    for name in missing:
        print(f"MISSING {name}")
    print(f"{len(digests) - len(moved)}/{len(golden)} experiment digests match")
    drifted = sorted(
        name for name in set(rows) | set(committed) if rows.get(name) != committed.get(name)
    )
    for name in drifted:
        print(f"ROWS MOVED {name}")
    print(f"{len(rows) - len(drifted)}/{len(committed)} row sets match")
    reports = evaluate(rows)
    for report in reports:
        print(report.render())
    verdicts = [verdict for report in reports for verdict in report.verdicts]
    failed = [verdict for verdict in verdicts if not verdict.holds]
    print(f"{len(verdicts) - len(failed)}/{len(verdicts)} claims hold")
    return 1 if moved or missing or drifted or failed else 0


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
    if argv == ["--regen"]:
        digests = {name: digest(run()) for name, run in sorted(SCENARIOS.items())}
        _write_golden(GOLDEN_PATH, digests)
        return 0
    if argv == ["--experiments"]:
        return check_experiments()
    if argv == ["--experiments", "--regen"]:
        digests, rows = run_experiments()
        _write_golden(EXPERIMENTS_PATH, digests)
        _write_rows(rows)
        return 0
    if argv[:1] == ["--dump"] and len(argv) == 2:
        os.makedirs(argv[1], exist_ok=True)
        for name, run in sorted(SCENARIOS.items()):
            with open(os.path.join(argv[1], name + ".jsonl"), "wb") as handle:
                handle.write(export_bytes(run()))
        print(f"wrote {len(SCENARIOS)} exports to {argv[1]}")
        return 0
    print(
        "usage: python -m tests.core.test_sim_golden "
        "--regen | --dump DIR | --experiments [--regen]"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
