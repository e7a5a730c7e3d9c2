"""Host failure and redeployment on the GATES grid.

The operator playbook for a crash-stop host failure:

1. a host dies mid-run — the run surfaces ``HostFailedError``;
2. the matchmaker (now liveness-aware) excludes the dead host;
3. the :class:`~repro.grid.faults.Redeployer` moves the affected stages'
   service instances onto healthy hosts, re-fetching their code from the
   repository;
4. the workload re-runs to completion on the new placement.

Run: ``python examples/fault_tolerance.py``
"""

from repro.apps.count_samps import build_distributed_config
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, build, run
from repro.experiments.common import build_star_fabric
from repro.grid.faults import FaultInjector, FaultPlan, Redeployer
from repro.simnet.hosts import HostFailedError
from repro.streams.sources import IntegerStream


def sources(streams):
    return [
        SourceBinding(f"s{i}", f"filter-{i}", list(stream), rate=2_000.0)
        for i, stream in enumerate(streams)
    ]


def main() -> None:
    n = 3
    fabric = build_star_fabric(n, bandwidth=100_000.0)
    # A spare edge host the redeployer can fall back to.
    spare = fabric.network.create_host("spare", cores=2)
    fabric.network.connect("spare", fabric.center_host, bandwidth=100_000.0)
    fabric.registry.register_network(fabric.network)  # re-advertise with spare

    config = build_distributed_config(n, fabric.source_hosts, batch=400)
    streams = [IntegerStream(10_000, universe=1000, seed=i) for i in range(n)]
    options = RunOptions(adaptation_enabled=False)
    first = build(config, "sim", options, sources(streams), fabric=fabric)
    deployment = first.runtime.deployment
    print("initial placement:",
          {s: p.host_name for s, p in deployment.placements.items()})

    injector = FaultInjector(fabric.env, fabric.network)
    injector.schedule(FaultPlan("source-1", fail_at=1.0))

    try:
        first.run()
        raise AssertionError("expected the failure to surface")
    except HostFailedError as exc:
        print(f"\nfailure at t={fabric.env.now:.1f}s: {exc}")

    report = Redeployer(fabric.deployer).redeploy(deployment, "source-1")
    print(f"redeployed stages {report.moved_stages} -> {report.new_hosts}")

    # The redeployed deployment runs again on the same fabric.
    result = run(deployment, "sim", options, sources(streams), fabric=fabric)
    top = result.final_value("join")
    print(f"\nre-run completed in {result.execution_time:.1f} simulated seconds")
    print(f"filter-1 now runs on {result.stage('filter-1').host_name!r}")
    print("top-5 most frequent values:", [v for v, _ in top[:5]])


if __name__ == "__main__":
    main()
