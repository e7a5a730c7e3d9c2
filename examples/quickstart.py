"""Quickstart: deploy and run a two-stage GATES application.

Walks the full middleware path an application developer + user would take,
on the application of ``repro.apps.quickstart``:

1. write stage processors against the ``StreamProcessor`` API
   (``Squarer``, ``Averager``),
2. publish them to a code repository,
3. describe the application in the XML configuration format (``APP_XML``),
4. stand up a (simulated) grid: hosts, links, registry
   (``quickstart_fabric`` does steps 2 and 4),
5. hand the XML to ``run`` — discovery, matching, and deployment
   happen inside the middleware,
6. bind a data stream and run — with hop tracing on, so the run ends
   with a full observability report (see docs/observability.md).

Run: ``python examples/quickstart.py``
(or, equivalently: ``python -m repro report``)
"""

from repro.apps.quickstart import APP_XML, numbers, quickstart_fabric
from repro.core.run import RunOptions, run
from repro.obs.report import render_report


def main() -> float:
    # The application user's entire job: hand the XML, the run options
    # and the data stream to run().  trace_every=1 hop-traces every
    # item, so the report below can split latency into queue / compute /
    # network time (the paper's Fig 4 queue model, measured).
    options = RunOptions(adaptation_enabled=False, trace_every=1)
    result = run(APP_XML, "sim", options, [numbers()], fabric=quickstart_fabric())
    print("placements:", {name: stats.host_name for name, stats in result.stages.items()})

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
    print()
    print(render_report(result))
    return mean_of_squares


if __name__ == "__main__":
    value = main()
    assert abs(value - 3383.5) < 1e-6
