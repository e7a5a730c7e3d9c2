"""A process that relays items loads neither numpy nor networkx, and a
networked worker loads none of the layers it does not run, nor any XML
module.

numpy is still a dependency — the stream generators and the sketches
draw from it — but it loads where it is first used, and networkx is a
test-only dependency nothing under ``src/`` imports, so a networked
worker, the coordinator and a threaded run of stages that use neither
never pay for them (ROADMAP item 4(c); ``docs/performance.md`` "Process footprint
and RESULT collection" and "Process start").  The runs happen in fresh
interpreters: this test process has both loaded long before it gets here.
That no runtime package imports either at module level is the GA527 row
of :data:`repro.analysis.rules.RULES`.
"""

import json

from tests.net.fresh_process import run_python

HEAVY = ("numpy", "networkx")


#: Layers a relay or sink worker does not run: the coordinator, the
#: other two runtimes, the grid Deployer/Launcher, migration control, the
#: analyzers and the experiment harness (ROADMAP item 4(c)).
UNHOSTED = (
    "repro.net.coordinator", "repro.core.runtime_sim", "repro.core.runtime_threads",
    "repro.grid.deployer", "repro.grid.launcher", "repro.resilience.migration",
    "repro.analysis", "repro.experiments",
)


def xml_in(modules) -> list:
    """XML modules: only reading or writing a configuration document
    loads them, and a worker does neither."""
    return sorted(m for m in modules if m.split(".")[0] in ("xml", "pyexpat"))


def heavy_in(modules) -> list:
    return sorted(m for m in modules if m.split(".")[0] in HEAVY)


def unhosted_in(modules) -> list:
    return sorted(
        m for m in modules
        if any(m == layer or m.startswith(layer + ".") for layer in UNHOSTED)
    )


def test_importing_the_worker_loads_neither_package():
    out = run_python(
        "import json, sys\n"
        "import repro.net.worker\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = json.loads(out)
    assert "repro.net.worker" in modules
    assert heavy_in(modules) == []
    assert xml_in(modules) == []


def test_importing_the_coordinator_does_not_load_the_worker():
    """The coordinator spawns workers as ``python -m repro.net.worker``
    and reads their announce line with the prefix from the protocol
    module, so its own process never executes worker.py."""
    out = run_python(
        "import json, sys\n"
        "import repro.net.coordinator\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = json.loads(out)
    assert "repro.net.coordinator" in modules
    assert "repro.net.worker" not in modules


NETWORKED_RUN = """
import json, os, sys
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.resources import ResourceRequirement
from repro.net.coordinator import NetworkedRuntime

config = AppConfig(
    name="import-guard",
    stages=[
        StageConfig("relay", "py://tests.net.guard_stages:ModulesRelay",
                    requirement=ResourceRequirement(placement_hint="near:worker-0")),
        StageConfig("sink", "py://tests.net.guard_stages:ModulesSink",
                    requirement=ResourceRequirement(placement_hint="near:worker-1")),
    ],
    streams=[StreamConfig("s", "relay", "sink")],
)
runtime = NetworkedRuntime(config, workers=2, adaptation_enabled=False)
runtime.bind_source("src", "relay", list(range(200)))
result = runtime.run(timeout=60.0)
print(json.dumps({
    "coordinator": {"pid": os.getpid(), "modules": sorted(sys.modules)},
    "relay": result.final_value("relay"),
    "sink": result.final_value("sink"),
    "latencies": len(result.stage("sink").latencies),
}))
"""


def test_a_networked_run_loads_neither_package_in_any_process():
    report = json.loads(run_python(NETWORKED_RUN))
    assert report["sink"]["items"] == 200
    assert report["latencies"] == 200
    pids = {report[role]["pid"] for role in ("coordinator", "relay", "sink")}
    assert len(pids) == 3, "relay and sink were meant to land on two workers"
    for role in ("coordinator", "relay", "sink"):
        assert heavy_in(report[role]["modules"]) == [], role
    for role in ("relay", "sink"):
        modules = report[role]["modules"]
        # worker.py runs once, as the script: nothing imports it again.
        assert report[role]["main"] == "repro.net.worker", role
        assert "repro.net.worker" not in modules, role
        assert unhosted_in(modules) == [], role
        assert xml_in(modules) == [], role
        # START warms the ledger context on purpose (net/worker.py).
        assert "repro.ledger.context" in modules, role


THREADED_RUN = """
import json, sys
from repro.core.runtime_threads import ThreadedRuntime
from repro.grid.config import AppConfig, StageConfig, StreamConfig

config = AppConfig(
    name="import-guard",
    stages=[
        StageConfig("relay", "py://tests.net.guard_stages:ModulesRelay"),
        StageConfig("sink", "py://tests.net.guard_stages:ModulesSink"),
    ],
    streams=[StreamConfig("s", "relay", "sink")],
)
runtime = ThreadedRuntime.from_config(config, adaptation_enabled=False)
runtime.bind_source("src", "relay", list(range(200)))
result = runtime.run(timeout=60.0)
print(json.dumps(result.final_value("sink")))
"""


def test_a_threaded_run_from_a_config_does_not_load_networkx():
    sink = json.loads(run_python(THREADED_RUN))
    assert sink["items"] == 200
    assert [m for m in sink["modules"] if m.split(".")[0] == "networkx"] == []


FORKED_REGISTER = """
import json, os, sys
from repro.net import worker

repository = worker._preload() if PRELOAD else None
index, forks = worker._fork_workers(2)
before = set(sys.modules)
node = worker.Worker(name=f"worker-{index}", repository=repository)
node._register_stage({"stage": "filter", "code": "repo://count-samps/filter"})
node._register_stage({"stage": "relay", "code": "py://tests.net.guard_stages:ModulesRelay"})
os.write(1, (json.dumps({
    "index": index,
    "imported": sorted(set(sys.modules) - before),
    "ledger_ready": "repro.ledger.context" in before,
}) + "\\n").encode())
for pid in forks:
    os.waitpid(pid, 0)
os._exit(0)
"""


def registered_in_each_fork(preload: bool) -> list:
    """Per worker process of a two-worker start, in index order: what its
    REGISTER of a ``repo://`` and a ``py://`` stage imported, and whether
    START's ledger module was already loaded."""
    out = run_python(f"PRELOAD = {preload}\n" + FORKED_REGISTER)
    reports = sorted((json.loads(line) for line in out.splitlines()), key=lambda r: r["index"])
    assert [report["index"] for report in reports] == [0, 1]
    return [
        ([m for m in report["imported"] if m.startswith(("repro.apps", "repro.ledger"))],
         report["ledger_ready"])
        for report in reports
    ]


def test_a_forked_worker_registers_without_importing_an_application():
    """``main`` builds the built-in repository and imports the ledger
    context once, before it forks (``worker._preload``): no worker's
    REGISTER imports a ``repro.apps`` or ``repro.ledger`` module, and
    START's ledger import finds it loaded.  Without the preload each
    worker's first REGISTER imports the applications itself."""
    assert registered_in_each_fork(preload=True) == [([], True), ([], True)]
    for imported, ledger_ready in registered_in_each_fork(preload=False):
        assert "repro.apps.count_samps" in imported and not ledger_ready
