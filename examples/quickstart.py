"""Quickstart: deploy and run a two-stage GATES application.

Walks the full middleware path an application developer + user would take:

1. write stage processors against the ``StreamProcessor`` API,
2. publish them to a code repository,
3. describe the application in the XML configuration format,
4. stand up a (simulated) grid: hosts, links, registry,
5. hand the XML to the Launcher — discovery, matching, and deployment
   happen inside the middleware,
6. bind a data stream and run — with hop tracing on, so the run ends
   with a full observability report (see docs/observability.md).

Run: ``python examples/quickstart.py``
(or, equivalently: ``python -m repro report``)
"""

from repro.core.api import StageContext, StreamProcessor
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.grid.deployer import Deployer
from repro.grid.launcher import Launcher
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network


class Squarer(StreamProcessor):
    """First stage: near the source, squares each value."""

    cost_model = CpuCostModel(per_item=1e-4)

    def on_item(self, payload, context: StageContext) -> None:
        context.emit(payload * payload, size=8.0)


class Averager(StreamProcessor):
    """Second stage: central, keeps a running mean."""

    cost_model = CpuCostModel(per_item=1e-4)

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0

    def on_item(self, payload, context: StageContext) -> None:
        self._count += 1
        self._total += payload

    def result(self):
        return self._total / self._count if self._count else 0.0


APP_XML = """
<application name="quickstart">
  <stage name="square" code="repo://quickstart/square">
    <requirement placement="near:edge"/>
  </stage>
  <stage name="average" code="repo://quickstart/average">
    <requirement min-cores="2"/>
  </stage>
  <stream name="squares" from="square" to="average" item-size="8.0"/>
</application>
"""


def main() -> float:
    # The grid fabric: an edge host near the instrument, a beefier
    # central host, and a 10 KB/s link between them.
    env = Environment()
    network = Network(env)
    network.create_host("edge", cores=1)
    network.create_host("central", cores=4)
    network.connect("edge", "central", bandwidth=10_000.0, latency=0.01)

    # Grid services: registry (discovery), repository (stage code).
    registry = ServiceRegistry()
    registry.register_network(network)
    repository = CodeRepository()
    repository.publish("repo://quickstart/square", Squarer)
    repository.publish("repo://quickstart/average", Averager)

    # The application user's entire job: hand the XML to the Launcher.
    launcher = Launcher(Deployer(registry, repository))
    deployment = launcher.launch(APP_XML)
    print("placements:", {s: p.host_name for s, p in deployment.placements.items()})

    # Bind a data stream and execute.  trace_every=1 hop-traces every
    # item, so the report below can split latency into queue / compute /
    # network time (the paper's Fig 4 queue model, measured).
    runtime = SimulatedRuntime(
        env, network, deployment, adaptation_enabled=False, trace_every=1
    )
    runtime.bind_source(
        SourceBinding("numbers", "square", payloads=range(1, 101), rate=200.0)
    )
    result = runtime.run()

    mean_of_squares = result.final_value("average")
    print(f"mean of squares of 1..100 = {mean_of_squares:.1f} (expected 3383.5)")
    print(f"simulated execution time  = {result.execution_time:.2f}s")
    print(f"bytes over the link       = {result.stage('average').bytes_in:.0f}")

    # Every monitored signal lives in one registry with stable dotted
    # names (docs/observability.md is the reference)...
    print(f"items through the link    = "
          f"{result.metrics.value('link.edge->central.messages'):.0f} messages")
    # ...and the full run renders as a terminal report (also available
    # as `python -m repro report`, with --export jsonl/csv).
    from repro.obs.report import render_report

    print()
    print(render_report(result))
    return mean_of_squares


if __name__ == "__main__":
    value = main()
    assert abs(value - 3383.5) < 1e-6
