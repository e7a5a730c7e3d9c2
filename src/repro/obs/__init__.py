"""Unified observability: metrics registry, hop tracing, exporters, reports.

The measurement substrate the adaptation paper presumes ("you cannot tune
what you cannot observe"):

* :mod:`repro.obs.names` — the canonical catalog of stable dotted metric
  names (the contract ``docs/observability.md`` documents and the
  docs-consistency check enforces);
* :mod:`repro.obs.registry` — counters, gauges, histograms and time
  series both runtimes publish into;
* :mod:`repro.obs.tracing` — sampled per-item hop traces decomposing
  end-to-end latency into queue / compute / network time;
* :mod:`repro.obs.export` — JSONL and CSV exporters plus the lossless
  loader backing ``repro report``;
* :mod:`repro.obs.report` — the terminal run-summary renderer.

``export`` and ``report`` sit *above* :mod:`repro.core` (they consume
``RunResult``); the registry/tracing layer below the core must import
without them.
"""
