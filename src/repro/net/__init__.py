"""repro.net: the real multi-process networked runtime.

GATES deploys each stage into a grid service container on its own
machine; this package is that data/control plane made real.  A
:class:`~repro.net.coordinator.NetworkedRuntime` places the stages of an
:class:`~repro.grid.config.AppConfig` onto worker OS processes
(:mod:`repro.net.worker`), ships their registrations over a framed TCP
protocol (:mod:`repro.net.protocol`), wires credit-flow-controlled data
channels between them (:mod:`repro.net.channels`), and collects a
:class:`~repro.core.results.RunResult` — including each worker's full
metrics registry — when the pipeline drains.

See ``docs/networking.md`` for the frame layout, the credit-based flow
control semantics, and the worker lifecycle.
"""
