"""End-to-end networked-runtime tests: parity, acceptance, error paths.

These spawn real worker OS processes over loopback TCP, so they are the
slowest tests in the suite — sized to stay under a few seconds each.
"""

import os
import random
import time

import pytest

from repro.apps.count_samps import build_distributed_config
from repro.core.runtime_threads import ThreadedRuntime
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError
from repro.net.demo import run_netdemo
from repro.grid.admission import builtin_repository
from tests.raising_source import MESSAGE, WHERES, raising_source

N_SOURCES = 2
ITEMS = 400
SEED = 5


def payloads(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(0, 30) for _ in range(n)]


def build_config():
    return build_distributed_config(
        n_sources=N_SOURCES,
        source_hosts=["worker-0", "worker-1"],
        batch=50,
        top_n=8,
        seed=SEED,
    )


def normalize(topk):
    """Final top-k as tuples (JSON transport turns tuples into lists)."""
    return [(value, float(count)) for value, count in topk]


def run_networked(config):
    runtime = NetworkedRuntime(
        config, workers=3, adaptation_enabled=False, credit_window=16
    )
    for i in range(N_SOURCES):
        runtime.bind_source(
            f"src-{i}", f"filter-{i}", payloads(SEED + i, ITEMS), item_size=8.0
        )
    return runtime, runtime.run(timeout=60.0)


#: The spawned workers' process, except that worker-1's fork exits
#: before it announces.
NEVER_ANNOUNCES = """
import os, sys
from repro.net import worker

serve = worker.Worker.serve

async def serve_unless_worker_1(self, announce=None):
    if self.name == "worker-1":
        os._exit(3)
    await serve(self, announce)

worker.Worker.serve = serve_unless_worker_1
worker.main(sys.argv[1:])
"""


def record_spawn(monkeypatch, script=None):
    """Record the one process the coordinator spawns and the pids its
    workers announce; with ``script``, the process runs ``python -c
    script`` (with the worker's arguments) instead of ``-m
    repro.net.worker``."""
    from repro.net import coordinator

    spawned, announced = [], []
    real_popen = coordinator.subprocess.Popen
    real_parse = coordinator.parse_announce

    def popen(argv, **kwargs):
        if script is not None:
            module = argv.index("-m")
            argv = argv[:module] + ["-c", script] + argv[module + 2:]
        spawned.append(real_popen(argv, **kwargs))
        return spawned[-1]

    def parse_announce(line):
        name, port, pid, uds = real_parse(line)
        announced.append(pid)
        return name, port, pid, uds

    monkeypatch.setattr(coordinator.subprocess, "Popen", popen)
    monkeypatch.setattr(coordinator, "parse_announce", parse_announce)
    return spawned, announced


def running(pid):
    """Whether ``pid`` still runs.  A zombie does not: a killed fork whose
    first process died too is reaped by init, whenever init gets to it."""
    if os.path.isdir("/proc/self"):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def still_running(pids, within=5.0):
    """The ``pids`` still running after up to ``within`` seconds."""
    deadline = time.monotonic() + within
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [pid for pid in pids if running(pid)]


def run_peer_fault(fault):
    """Start an in-process worker hosting one stage fed by data channel
    ``s0``, attach a peer to it, let ``fault(peer_writer)`` misbehave,
    and return the ERROR the worker then reports on its control
    connection — within 3 s, or the test fails."""
    import asyncio
    import io

    from repro.net.protocol import FrameType, encode_json, read_frame, send_frame
    from repro.net.worker import Worker

    async def scenario():
        worker = Worker()
        announce = io.StringIO()
        serve_task = asyncio.create_task(worker.serve(announce=announce))
        while not announce.getvalue():
            await asyncio.sleep(0.01)
        port = int(announce.getvalue().split()[1])

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await send_frame(
            writer, FrameType.HELLO,
            encode_json({"worker": "w0", "adaptation": False}),
        )
        assert (await read_frame(reader)).type is FrameType.HELLO
        await send_frame(
            writer, FrameType.REGISTER,
            encode_json({"stage": "join", "code": "repo://count-samps/join",
                         "properties": {}}),
        )
        await send_frame(
            writer, FrameType.CHANNEL,
            encode_json({"kind": "in", "stream": "s0", "dst": "join",
                         "window": 4}),
        )
        await send_frame(writer, FrameType.SYNC, encode_json({}))
        assert (await read_frame(reader)).type is FrameType.READY
        await send_frame(writer, FrameType.START, encode_json({}))
        assert (await read_frame(reader)).type is FrameType.READY

        peer_reader, peer_writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        await send_frame(
            peer_writer, FrameType.ATTACH,
            encode_json({"stream": "s0", "dst": "join"}),
        )
        assert (await read_frame(peer_reader)).type is FrameType.CREDIT
        await fault(peer_writer)

        error = await asyncio.wait_for(read_frame(reader), 3.0)
        assert error.type is FrameType.ERROR

        await send_frame(writer, FrameType.SHUTDOWN, encode_json({}))
        writer.close()
        peer_writer.close()
        await serve_task
        return error.json()["error"]

    return asyncio.run(asyncio.wait_for(scenario(), 20.0))


def run_threaded(config):
    repository = builtin_repository()
    runtime = ThreadedRuntime(adaptation_enabled=False)
    for stage in config.stages:
        runtime.add_stage(
            stage.name, repository.fetch(stage.code_url)(),
            properties=stage.properties,
        )
    for stream in config.streams:
        runtime.connect(stream.src, stream.dst, name=stream.name)
    for i in range(N_SOURCES):
        runtime.bind_source(
            f"src-{i}", f"filter-{i}", payloads(SEED + i, ITEMS), item_size=8.0
        )
    return runtime.run(timeout=60.0)


@pytest.fixture(scope="module")
def networked():
    config = build_config()
    runtime, result = run_networked(config)
    return runtime, result


class TestThreadedNetworkedParity:
    """Same config, same seeds, adaptation off: identical final answers."""

    def test_final_summaries_match(self, networked):
        _, net_result = networked
        thr_result = run_threaded(build_config())
        assert normalize(net_result.final_value("join")) == normalize(
            thr_result.final_value("join")
        )
        assert net_result.final_value("join")  # and they are not empty

    def test_item_accounting_matches(self, networked):
        _, net_result = networked
        thr_result = run_threaded(build_config())
        for i in range(N_SOURCES):
            name = f"filter-{i}"
            assert net_result.stage(name).items_in == ITEMS
            assert (
                net_result.stage(name).items_out
                == thr_result.stage(name).items_out
            )
        assert (
            net_result.stage("join").items_in == thr_result.stage("join").items_in
        )


class TestNetworkedRun:
    def test_stages_spread_across_three_worker_processes(self, networked):
        runtime, _ = networked
        assert len(set(runtime.placement.values())) == 3
        # placement hints were honored: each filter sits on its source's
        # worker, exactly as `near:` pins stages in the simulated grid.
        assert runtime.placement["filter-0"] == "worker-0"
        assert runtime.placement["filter-1"] == "worker-1"

    def test_wire_metrics_are_populated(self, networked):
        runtime, _ = networked
        registry = runtime.metrics
        # source channels: one DATA frame per item plus the EOS sentinel
        for i in range(N_SOURCES):
            assert registry.value(f"net.src-{i}.frames") == ITEMS + 1
            assert registry.value(f"net.src-{i}.bytes") > 0
        # summary channels ran over the wire too (filters -> join)
        assert registry.value("net.summary-0.frames") > 0
        # the coordinator measured worker RTTs
        for i in range(3):
            assert len(registry.get(f"net.worker-{i}.rtt").samples) == 3

    def test_run_result_shape_matches_other_runtimes(self, networked):
        runtime, result = networked
        assert result.app_name == "count-samps-distributed"
        assert result.execution_time > 0
        assert set(result.stages) == {"filter-0", "filter-1", "join"}
        for name, stats in result.stages.items():
            assert stats.host_name == runtime.placement[name]
        assert result.metrics is runtime.metrics

    def test_run_is_single_shot(self, networked):
        runtime, _ = networked
        with pytest.raises(NetworkedRuntimeError, match="only be called once"):
            runtime.run()


class TestNetworkedErrors:
    def test_bad_code_url_fails_before_spawning_workers(self):
        config = build_config()
        config.stages[0].code_url = "repo://does-not/exist"
        # The pre-deploy verifier refuses at construction (GA301).
        with pytest.raises(NetworkedRuntimeError, match="failed verification"):
            NetworkedRuntime(config, workers=2)
        # Even with the gate skipped, admission fetches every stage's
        # code at construction, before any worker can spawn.
        with pytest.raises(NetworkedRuntimeError, match="cannot fetch code"):
            NetworkedRuntime(config, workers=2, verify=False)

    def test_a_fork_that_never_announces_takes_every_worker_down(self, monkeypatch):
        """Successor of ``test_a_worker_that_fails_to_announce_takes_the_
        started_ones_down``, now that the workers are one process and its
        forks: worker-1's fork exits before it announces.  The run fails
        naming it, at once rather than at a timeout or a clean-exit wait,
        and leaves no worker running and no UNIX-socket directory."""
        from repro.net import coordinator

        spawned, announced = record_spawn(monkeypatch, NEVER_ANNOUNCES)
        monkeypatch.setattr(coordinator, "_EXIT_BOUND", 60.0)
        runtime = NetworkedRuntime(build_config(), workers=3)
        started = time.monotonic()
        with pytest.raises(NetworkedRuntimeError, match="worker worker-1 failed to announce"):
            runtime.run(timeout=30.0)
        assert time.monotonic() - started < 10.0
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert len(announced) == 2 and spawned[0].pid in announced
        assert still_running(announced) == []
        argv = spawned[0].args
        if "--uds" in argv:  # where the platform has AF_UNIX
            assert not os.path.exists(os.path.dirname(argv[argv.index("--uds") + 1]))

    def test_one_process_starts_every_worker_and_announces_map_by_name(
        self, monkeypatch
    ):
        """Successor of ``test_every_worker_starts_before_the_first_
        announce_is_read``: ``_spawn_workers(3)`` starts one process, with
        one ``--name``/``--uds`` pair per worker, and maps the announce
        lines to the workers by name, whatever their order and however
        the pipe splits them."""
        import shutil

        from repro.net import coordinator
        from repro.net.protocol import announce_line

        started = []

        class FakePopen:
            def __init__(self, argv, **kwargs):
                started.append(argv)
                read, write = os.pipe()
                os.write(write, (announce_line(9002, "worker-2", 102)
                                 + announce_line(9000, "worker-0", 100, "/x/w0.sock")).encode())
                os.write(write, announce_line(9001, "worker-1", 101).encode())
                os.close(write)
                self.stdout = os.fdopen(read, "rb")

        monkeypatch.setattr(coordinator.subprocess, "Popen", FakePopen)
        runtime = NetworkedRuntime(build_config(), workers=3)
        handles = []
        try:
            runtime._spawn_workers(3, handles, timeout=5.0)
        finally:
            if runtime._uds_dir is not None:
                shutil.rmtree(runtime._uds_dir, ignore_errors=True)
        (argv,) = started
        assert argv[argv.index("-m") + 1] == "repro.net.worker"
        assert [argv[i + 1] for i, arg in enumerate(argv) if arg == "--name"] == [
            "worker-0", "worker-1", "worker-2"
        ]
        assert [h.name for h in handles] == ["worker-0", "worker-1", "worker-2"]
        assert [h.port for h in handles] == [9000, 9001, 9002]
        assert [h.uds for h in handles] == ["/x/w0.sock", None, None]

    def test_spawned_workers_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(NetworkedRuntimeError, match=r"workers=\[\(host, port\)"):
            NetworkedRuntime(build_config(), workers=2)
        NetworkedRuntime(build_config(), workers=[("127.0.0.1", 1)])

    def test_bind_source_to_unknown_stage(self):
        runtime = NetworkedRuntime(build_config(), workers=2)
        with pytest.raises(NetworkedRuntimeError, match="unknown stage"):
            runtime.bind_source("src", "no-such-stage", [1, 2, 3])

    @pytest.mark.parametrize("where", WHERES)
    def test_a_raising_source_takes_every_worker_down(
        self, where, monkeypatch
    ):
        """Successor of ``test_a_raising_source_fails_the_run_promptly``:
        the feeder's exception ends the run at once (it used to wait
        behind RESULT collection until the timeout), and within 5 s no
        spawned or forked worker is left running."""
        spawned, announced = record_spawn(monkeypatch)
        runtime = NetworkedRuntime(build_config(), workers=2, adaptation_enabled=False)
        payloads, item_size = raising_source(where)
        runtime.bind_source("src-0", "filter-0", payloads, item_size=item_size)
        runtime.bind_source("src-1", "filter-1", [1, 2, 3])
        started = time.monotonic()
        with pytest.raises(
            NetworkedRuntimeError, match=f"source 'src-0' failed: .*{MESSAGE}"
        ) as info:
            runtime.run(timeout=60.0)
        assert time.monotonic() - started < 5.0
        assert isinstance(info.value.__cause__, ValueError)
        assert len(spawned) == 1 and spawned[0].poll() is not None
        assert len(announced) == 2 and spawned[0].pid in announced
        assert still_running(announced) == []

    def test_sender_vanishing_before_eos_fails_the_run(self):
        """A data connection dying mid-stream must ERROR, not hang.

        Regression: an abortive peer disconnect used to leave the stage
        waiting forever for an EOS that could never arrive, wedging the
        whole run until the coordinator timeout.
        """

        async def vanish(peer_writer):
            peer_writer.close()  # vanish without EOS

        assert "before EOS" in run_peer_fault(vanish)

    def test_corrupt_data_frame_fails_the_run(self):
        """A DATA frame whose CRC does not match fails the stage and
        reaches the coordinator as ERROR naming the stream.

        Regression: the framing error used to go back to the *peer* as
        ERROR, and the coordinator heard nothing until its timeout.
        """
        from repro.net.protocol import (
            FrameType, encode_payload_into, finish_frame, new_frame_buffer,
        )

        async def corrupt(peer_writer):
            frame = new_frame_buffer()
            encode_payload_into(frame, 7, 8.0)
            frame = finish_frame(frame, FrameType.DATA)
            frame[-1] ^= 0xFF  # flip payload bits under the packed CRC
            peer_writer.write(frame)
            await peer_writer.drain()

        error = run_peer_fault(corrupt)
        assert "'s0'" in error and "CRC mismatch" in error

    def test_truncated_data_frame_fails_the_run(self):
        """A sender closing mid-frame fails the stage with an ERROR
        naming the stream, instead of wedging the run."""
        from repro.net.protocol import FrameType, encode_frame
        from tests.net.payloads import payload

        async def truncate(peer_writer):
            frame = encode_frame(FrameType.DATA, payload(7, 8.0))
            peer_writer.write(frame[:-3])
            await peer_writer.drain()
            peer_writer.close()

        error = run_peer_fault(truncate)
        assert "'s0'" in error and "closed mid-frame" in error

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_batch_delay_is_rejected(self, delay):
        """Workers used to accept a nan or inf ``batch-max-delay``."""
        config = build_config()
        config.stages[0].properties["batch-max-delay"] = delay
        with pytest.raises(NetworkedRuntimeError, match="failed verification"):
            NetworkedRuntime(config, workers=2)
        # Even with the gate skipped, the failure precedes worker spawn.
        with pytest.raises(NetworkedRuntimeError, match="batch-max-delay"):
            NetworkedRuntime(config, workers=2, verify=False)

    def test_constructor_validation(self):
        with pytest.raises(NetworkedRuntimeError, match="time_scale"):
            NetworkedRuntime(build_config(), time_scale=0)
        with pytest.raises(NetworkedRuntimeError, match="credit_window"):
            NetworkedRuntime(build_config(), credit_window=0)
        with pytest.raises(NetworkedRuntimeError, match="at least 1 worker"):
            NetworkedRuntime(build_config(), workers=0)


def test_queue_capacity_property_bounds_a_stage_inbox():
    """``queue-capacity`` used to be read on the simulator only; net read
    a ``net-queue-capacity`` of its own.  The sink's inbox is fed by a
    local route (one worker), so only the capacity bounds it."""
    from repro.core.adaptation.policy import AdaptationPolicy
    from repro.grid.config import AppConfig, StageConfig, StreamConfig

    config = AppConfig("capacity", stages=[
        StageConfig("relay", "py://tests.shard_stages:KeyedRelay"),
        StageConfig("sink", "py://tests.shard_stages:SlowKeyedRelay",
                    properties={"queue-capacity": "4"}),
    ], streams=[StreamConfig("t", "relay", "sink")])
    runtime = NetworkedRuntime(
        config, workers=1, policy=AdaptationPolicy(sample_interval=0.02, adjust_every=2)
    )
    runtime.bind_source("src", "relay", [{"k": f"k{i % 7}", "i": i} for i in range(300)])
    lengths = runtime.run(timeout=60.0).stage("sink").queue_history.values
    assert lengths and max(lengths) <= 4 + 1  # + the force-put end-of-stream


class TestNetdemoAcceptance:
    """The ISSUE acceptance scenario: adaptation exceptions over the wire."""

    @pytest.fixture(scope="class")
    def demo(self):
        # At the default 2 ms per summary the join drains in ~0.25 s, a
        # couple of adaptation ticks, and sometimes reports no overload
        # before the run ends; 5 ms keeps it overloaded for ~0.6 s, where
        # every run delivers several exceptions to each filter.
        return run_netdemo(items_per_source=2500, join_cost_ms=5.0,
                           timeout=60.0)

    def test_completes_with_a_top_k(self, demo):
        result, summary = demo
        assert len(summary["topk"]) == 5
        assert len(set(summary["placement"].values())) == 3

    def test_wire_exceptions_were_delivered(self, demo):
        _, summary = demo
        assert summary["wire_exceptions"] >= 1
        # and the receiving filter stages actually counted them
        result, _ = demo
        received = sum(
            result.stage(f"filter-{i}").exceptions_received for i in range(2)
        )
        assert received >= 1

    def test_credit_window_was_respected_under_pressure(self, demo):
        _, summary = demo
        for channel, stats in summary["channels"].items():
            assert stats["in_flight_peak"] <= 16
        # the slow join forced the sources to stall at least once
        assert any(
            stats["credit_stalls"] > 0 for stats in summary["channels"].values()
        )


def _batch_policy():
    from repro.core.batching import BatchPolicy

    return BatchPolicy(max_items=16, max_delay=0.005)


@pytest.fixture(scope="module")
def networked_batched():
    config = build_config()
    runtime = NetworkedRuntime(
        config, workers=3, adaptation_enabled=False, credit_window=16,
        batch=_batch_policy(),
    )
    for i in range(N_SOURCES):
        runtime.bind_source(
            f"src-{i}", f"filter-{i}", payloads(SEED + i, ITEMS), item_size=8.0
        )
    return runtime, runtime.run(timeout=60.0)


class TestBatchedParity:
    """Micro-batching is a transport optimization: answers must not move."""

    def test_batched_networked_matches_unbatched(self, networked, networked_batched):
        _, plain = networked
        _, batched = networked_batched
        assert normalize(batched.final_value("join")) == normalize(
            plain.final_value("join")
        )
        assert batched.final_value("join")

    def test_batched_networked_matches_batched_threaded(self, networked_batched):
        _, net_result = networked_batched
        repository = builtin_repository()
        config = build_config()
        runtime = ThreadedRuntime(
            adaptation_enabled=False, batch=_batch_policy()
        )
        for stage in config.stages:
            runtime.add_stage(
                stage.name, repository.fetch(stage.code_url)(),
                properties=stage.properties,
            )
        for stream in config.streams:
            runtime.connect(stream.src, stream.dst, name=stream.name)
        for i in range(N_SOURCES):
            runtime.bind_source(
                f"src-{i}", f"filter-{i}", payloads(SEED + i, ITEMS),
                item_size=8.0,
            )
        thr_result = runtime.run(timeout=60.0)
        assert normalize(net_result.final_value("join")) == normalize(
            thr_result.final_value("join")
        )
        for i in range(N_SOURCES):
            name = f"filter-{i}"
            assert net_result.stage(name).items_in == ITEMS
            assert (
                net_result.stage(name).items_out
                == thr_result.stage(name).items_out
            )

    def test_item_accounting_survives_batching(self, networked, networked_batched):
        _, plain = networked
        _, batched = networked_batched
        for name in ("filter-0", "filter-1", "join"):
            assert batched.stage(name).items_in == plain.stage(name).items_in
            assert batched.stage(name).items_out == plain.stage(name).items_out

    def test_frames_collapse_under_batching(self, networked, networked_batched):
        plain_runtime, _ = networked
        batched_runtime, _ = networked_batched
        for i in range(N_SOURCES):
            plain_frames = plain_runtime.metrics.value(f"net.src-{i}.frames")
            batched_frames = batched_runtime.metrics.value(f"net.src-{i}.frames")
            # 400 items one-at-a-time vs packed up to 16 per frame.
            assert batched_frames < plain_frames / 4

    def test_credit_window_holds_under_batching(self, networked_batched):
        runtime, _ = networked_batched
        registry = runtime.metrics
        checked = 0
        for i in range(N_SOURCES):
            peak = registry.value(f"net.src-{i}.in_flight_peak")
            assert peak <= 16
            checked += 1
        assert checked == N_SOURCES

    def test_batch_metrics_recorded(self, networked_batched):
        runtime, _ = networked_batched
        registry = runtime.metrics
        stages = ("filter-0", "filter-1", "join")
        total_batches = sum(
            registry.value(f"batch.{name}.batches", 0.0) for name in stages
        )
        total_items = sum(
            registry.value(f"batch.{name}.batched_items", 0.0)
            for name in stages
        )
        assert total_batches > 0
        assert total_items >= total_batches  # batches carry >= 1 item each


#: The spawned workers' process, logging each fork it makes: how many OS
#: and Python threads were alive, and what warnings the fork raised
#: (Python 3.12+ warns on a fork with threads alive).
RECORD_FORKS = """
import json, os, sys, threading, warnings
from repro.net import worker

fork = os.fork

def recorded_fork():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
        python_threads = threading.active_count()
        pid = fork()
    if pid:
        with open(LOG, "a", encoding="utf-8") as log:
            log.write(json.dumps({"threads": threads, "python_threads": python_threads,
                                  "warnings": [str(w.message) for w in caught]}) + "\\n")
    return pid

os.fork = recorded_fork
worker.main(sys.argv[1:])
"""


class TestSpawnedWorkers:
    def test_a_clean_run_reaps_every_fork_and_keeps_its_cpu(self, monkeypatch, tmp_path):
        """After a clean two-worker run every announced pid is reaped, and
        ``RUSAGE_CHILDREN`` grew by at least the CPU each hosting process
        reported: the fork's time reached the coordinator through the
        first process, which reaps it before it exits.  The fork happened
        with one thread alive."""
        import json
        import resource

        from repro.grid.config import AppConfig, StageConfig, StreamConfig
        from repro.grid.resources import ResourceRequirement

        log = tmp_path / "forks.jsonl"
        spawned, announced = record_spawn(monkeypatch, f"LOG = {str(log)!r}\n{RECORD_FORKS}")
        config = AppConfig(
            name="usage",
            stages=[
                StageConfig("relay", "py://tests.net.usage_stages:UsageRelay",
                            requirement=ResourceRequirement(placement_hint="worker-0")),
                StageConfig("sink", "py://tests.net.usage_stages:UsageSink",
                            requirement=ResourceRequirement(placement_hint="worker-1")),
            ],
            streams=[StreamConfig("s", "relay", "sink")],
        )
        runtime = NetworkedRuntime(config, workers=2, adaptation_enabled=False)
        runtime.bind_source("src", "relay", list(range(2000)))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        result = runtime.run(timeout=60.0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        relay, sink = result.final_value("relay"), result.final_value("sink")
        assert sink["items"] == 2000
        (process,) = spawned
        assert process.returncode == 0, "the first process was killed, not waited for"
        assert sorted(announced) == sorted({relay["pid"], sink["pid"]})
        assert relay["pid"] == process.pid
        for pid in announced:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # a zombie would still answer
        grew = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert grew >= relay["cpu_s"] + sink["cpu_s"]
        forks = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(forks) == 1
        assert forks[0]["python_threads"] == 1 and forks[0]["threads"] in (1, None)
        assert forks[0]["warnings"] == []
