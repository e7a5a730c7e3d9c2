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

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.simnet.crosstraffic import CrossTrafficSource, inject_cross_traffic
from repro.simnet.hosts import CpuCostModel, Host, HostFailedError
from repro.simnet.links import Link, TokenBucket
from repro.simnet.resources import BoundedQueue, CapacityResource, QueueFullError, Store
from repro.simnet.topology import Network
from repro.simnet.trace import EventLog, StatSummary, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundedQueue",
    "CapacityResource",
    "CpuCostModel",
    "CrossTrafficSource",
    "Environment",
    "HostFailedError",
    "inject_cross_traffic",
    "Event",
    "EventLog",
    "Host",
    "Interrupt",
    "Link",
    "Network",
    "Process",
    "QueueFullError",
    "SimulationError",
    "StatSummary",
    "Store",
    "TimeSeries",
    "Timeout",
    "TokenBucket",
]
