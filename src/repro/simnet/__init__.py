"""Discrete-event simulation substrate for the GATES reproduction.

The paper evaluated GATES on a physical cluster with delay-injected links.
This package provides the deterministic, laptop-scale equivalent: a
generator-based discrete-event kernel (:mod:`repro.simnet.engine`),
capacity resources and bounded queues (:mod:`repro.simnet.resources`),
bandwidth/latency-modeled network links (:mod:`repro.simnet.links`),
hosts with CPU cost models (:mod:`repro.simnet.hosts`), a routed
topology layer (:mod:`repro.simnet.topology`), and time-series tracing
(:mod:`repro.simnet.trace`).

Everything in the middleware layers above (``repro.grid``, ``repro.core``)
is written against these abstractions, so experiments that in the paper
required a cluster run here as repeatable single-process simulations.
"""
