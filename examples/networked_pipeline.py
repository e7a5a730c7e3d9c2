"""Distributed count-samps across three real OS processes.

Where ``threaded_pipeline.py`` runs the stages as threads in one
process, this example uses the :mod:`repro.net` runtime: a coordinator
spawns three worker processes on localhost, places the two filter stages
and the join via the matchmaker, wires credit-flow-controlled TCP
channels between them, and collects the merged result — the same
:class:`~repro.core.results.RunResult` shape as every other runtime.

Two things worth watching in the output:

* the filters and the join report from *different PIDs* — these are
  genuinely separate processes, connected only by the framed wire
  protocol;
* the ``net.*`` channel metrics show the credit window at work: with a
  slow join, the senders stall when their 16-frame window is exhausted
  rather than flooding the socket.

Run: ``python examples/networked_pipeline.py``
"""

import random

from repro.apps.count_samps import build_distributed_config
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, build

N_SOURCES = 2
ITEMS_PER_SOURCE = 3000
SEED = 3


def main() -> None:
    workers = ["worker-0", "worker-1", "worker-2"]
    config = build_distributed_config(
        n_sources=N_SOURCES,
        source_hosts=workers[:N_SOURCES],
        batch=100,
        top_n=5,
        seed=SEED,
    )
    rng = random.Random(SEED)
    sources = [
        SourceBinding(
            f"src-{i}", f"filter-{i}",
            [rng.randrange(0, 40) for _ in range(ITEMS_PER_SOURCE)], item_size=8.0,
        )
        for i in range(N_SOURCES)
    ]
    options = RunOptions(workers=3, adaptation_enabled=False, credit_window=16, timeout=60.0)
    built = build(config, "net", options, sources)
    result = built.run()
    runtime = built.runtime

    print(f"application {result.app_name!r} "
          f"completed in {result.execution_time:.2f}s")
    print("placement (stage -> worker process)")
    for stage, worker in runtime.placement.items():
        print(f"  {stage:<10} -> {worker}")
    print("final top-5")
    for value, count in result.final_value("join"):
        print(f"  {value:>4} : {count:.0f}")
    print("per-stage accounting")
    for name in sorted(result.stages):
        stats = result.stages[name]
        print(f"  {name:<10} in={stats.items_in:<6} out={stats.items_out:<5} "
              f"host={stats.host_name}")
    print("wire channels")
    for name in runtime.metrics.names("net."):
        if name.endswith(".frames"):
            channel = name.split(".")[1]
            frames = runtime.metrics.value(name)
            stalls = runtime.metrics.value(
                f"net.{channel}.credit_stalls", 0.0
            )
            print(f"  {channel:<12} frames={frames:<6.0f} stalls={stalls:.0f}")


if __name__ == "__main__":
    main()
