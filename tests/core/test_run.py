"""The run options table and the one entry point, ``repro.core.run``.

Every row is refused, with the runtime's own error type, by a runtime
that does not honour it; so is a source field its feeder cannot feed;
and the table is exactly the arguments the three runtimes take.
"""

import inspect

import pytest

from repro.apps.count_samps import build_distributed_config
from repro.apps.quickstart import APP_XML, numbers, quickstart_fabric
from repro.core.kernel import SourceBinding
from repro.core.run import ROWS, RUNTIMES, RunOptions, build, run
from repro.core.runtime_sim import RuntimeError_, SimulatedRuntime
from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError
from repro.grid.repository import CodeRepository
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError
from repro.resilience.checkpoint import MemoryCheckpointStore
from repro.resilience.migration import MigrationPlan
from repro.resilience.policy import ResilienceConfig
from repro.streams.arrivals import PoissonArrivals

ERRORS = {"sim": RuntimeError_, "threaded": ThreadedRuntimeError, "net": NetworkedRuntimeError}

#: A value other than the default, for the rows one runtime or another
#: does not honour.
SET = {
    "trace_every": 4, "resilience": ResilienceConfig(), "checkpoints": MemoryCheckpointStore(),
    "time_scale": 0.5, "repository": CodeRepository(), "workers": 2, "credit_window": 8,
    "migrations": (MigrationPlan("join", at=0.1),), "max_sim_time": 50.0, "stop_at": 5.0,
    "timeout": 30.0,
}


def config():
    return build_distributed_config(2, ["source-0", "source-1"], batch=50)


def build_on(runtime, options, sources=()):
    fabric = quickstart_fabric() if runtime == "sim" else None
    target = APP_XML if runtime == "sim" else config()
    return build(target, runtime, options, sources, fabric=fabric)


def test_the_rows_are_the_arguments_the_runtimes_took():
    """No new option: the table is the union of what the three
    constructors, ``from_config`` and ``run()`` took before it."""
    assert [row.name for row in ROWS] == [
        "policy", "adaptation_enabled", "metrics", "batch", "trace_every", "resilience",
        "checkpoints", "time_scale", "repository", "verify", "workers", "credit_window",
        "migrations", "max_sim_time", "stop_at", "timeout",
    ]
    for runtime, cls, structural in (
        ("sim", SimulatedRuntime, ["env", "network", "deployment"]),
        ("threaded", ThreadedRuntime, []),
        ("net", NetworkedRuntime, ["config"]),
    ):
        init = list(inspect.signature(cls.__init__).parameters)
        assert init == ["self", *structural, "options"]
        run_args = list(inspect.signature(cls.run).parameters)[1:]
        assert run_args == [r.name for r in ROWS if r.phase == "run" and runtime in r.runtimes]
        for name in run_args:
            assert inspect.signature(cls.run).parameters[name].default == getattr(RunOptions, name)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_an_unhonoured_row_is_refused_by_name(runtime):
    unhonoured = [row for row in ROWS if runtime not in row.runtimes]
    assert unhonoured and all(row.name in SET for row in unhonoured)
    for row in unhonoured:
        with pytest.raises(ERRORS[runtime], match=f"does not honour run option '{row.name}'"):
            build_on(runtime, RunOptions(**{row.name: SET[row.name]}))


def test_a_constructor_refuses_rows_by_name():
    """``NetworkedRuntime(trace_every=...)`` used to be a bare TypeError."""
    with pytest.raises(NetworkedRuntimeError, match="'trace_every'"):
        NetworkedRuntime(config(), trace_every=4)
    with pytest.raises(ThreadedRuntimeError, match="'workers'"):
        ThreadedRuntime(workers=2)
    with pytest.raises(ThreadedRuntimeError, match="'timeout' is taken at run"):
        ThreadedRuntime(timeout=5.0)
    with pytest.raises(ThreadedRuntimeError, match="unknown run option 'sped'"):
        ThreadedRuntime(sped=2)
    deployment = quickstart_fabric().launcher.launch(APP_XML)
    with pytest.raises(RuntimeError_, match="'verify' is taken at admit"):
        SimulatedRuntime(None, None, deployment, verify=False)


@pytest.mark.parametrize("runtime, field, value", [
    ("threaded", "drop_when_full", True),
    ("net", "drop_when_full", True),
])
def test_a_source_field_the_feeder_cannot_feed_is_refused(runtime, field, value):
    source = SourceBinding("feed", "filter-0", range(10), **{field: value})
    with pytest.raises(ERRORS[runtime], match=f"cannot feed {field}"):
        build_on(runtime, RunOptions(), [source])


def test_a_net_source_with_arrivals_delivers_every_item_in_order():
    """The coordinator's feeder draws the binding's ``arrivals`` gaps:
    every item arrives, in order."""
    from repro.grid.config import AppConfig, StageConfig

    config = AppConfig("arrivals", stages=[
        StageConfig("sink", "py://tests.core.test_runtime_threads:Collect"),
    ], streams=[])
    source = SourceBinding("feed", "sink", range(200), arrivals=PoissonArrivals(4000.0, seed=3))
    options = RunOptions(adaptation_enabled=False, workers=1, timeout=60.0)
    assert run(config, "net", options, [source]).final_value("sink") == list(range(200))


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_checks_and_cross_row_rules_live_in_the_table(runtime):
    error = ERRORS[runtime]
    if runtime != "sim":
        with pytest.raises(error, match="time_scale=0"):
            build_on(runtime, RunOptions(time_scale=0))
    else:
        with pytest.raises(error, match="trace_every=0"):
            build_on(runtime, RunOptions(trace_every=0))
    if runtime != "net":
        with pytest.raises(error, match="requires resilience"):
            build_on(runtime, RunOptions(checkpoints=MemoryCheckpointStore()))


def test_the_fabric_goes_with_the_simulator_only():
    with pytest.raises(RuntimeError_, match="fabric"):
        build(APP_XML, "sim")
    with pytest.raises(ThreadedRuntimeError, match="fabric"):
        build(config(), "threaded", fabric=quickstart_fabric())
    with pytest.raises(ValueError, match="unknown runtime"):
        build(config(), "jvm")


def test_defaults_are_filled_once():
    built = build_on("threaded", RunOptions(trace_every=2))
    runtime = built.runtime
    assert runtime.policy is not None and runtime.metrics is not None
    assert runtime.tracer.sample_every == 2 and runtime.checkpoints is None


def test_one_run_on_the_simulator_and_on_threads():
    """The quickstart pipeline gives the same answer through both."""
    sim = run(APP_XML, "sim", RunOptions(adaptation_enabled=False), [numbers()],
              fabric=quickstart_fabric())
    options = RunOptions(
        adaptation_enabled=False, repository=quickstart_fabric().repository, timeout=30.0
    )
    threaded = run(APP_XML, "threaded", options,
                   [SourceBinding("numbers", "square", payloads=range(1, 101))])
    assert sim.final_value("average") == threaded.final_value("average") == 3383.5
