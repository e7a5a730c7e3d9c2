"""The canonical metric-name catalog.

Every metric the middleware publishes has a **stable dotted name** built
from one of the templates below (``{stage}``, ``{link}``, ``{host}`` and
``{parameter}`` are filled with the runtime entity's name; entity names
never contain dots).  The catalog is the single source of truth three
consumers share:

* :class:`~repro.obs.registry.MetricsRegistry` validates every
  registration against it (an unknown name is a bug, not a new metric);
* ``docs/observability.md`` documents exactly these templates, and the
  docs-consistency check (:mod:`repro.analysis.docscheck`, run as a tier-1
  test) fails when either side drifts;
* the metric-name stability snapshot test pins the templates so renames
  are deliberate, reviewed events.

The ``paper`` column ties each signal back to GATES (HPDC 2004): the
Section 1 monitoring claim ("the system monitors the arrival rate at each
source, the available computing resources and memory, and the available
network bandwidth"), the Figure 4 queue model, and the Section 4
adaptation quantities (load factors phi1/phi2/phi3, the long-term load
score d-tilde, over-/under-load exceptions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["METRICS", "MetricSpec", "spec_for", "validate_name"]


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: a metric-name template and its meaning."""

    #: Dotted template, e.g. ``"stage.{stage}.items_in"``.
    template: str
    #: ``counter`` | ``gauge`` | ``histogram`` | ``series``.
    kind: str
    #: Unit of the recorded value.
    unit: str
    #: Which runtimes emit it: subset of {"sim", "threaded", "net"}.
    runtimes: Tuple[str, ...]
    #: The paper signal this metric corresponds to (or "—" for
    #: reproduction-only instrumentation).
    paper: str
    #: One-line human description.
    description: str


METRICS: Tuple[MetricSpec, ...] = (
    # -- per-stage flow accounting -----------------------------------------
    MetricSpec("stage.{stage}.items_in", "counter", "items", ("sim", "threaded"),
               "arrival accounting feeding the arrival-rate monitor (§1)",
               "Items dequeued and processed by the stage."),
    MetricSpec("stage.{stage}.items_out", "counter", "items", ("sim", "threaded"),
               "data-reduction factor of a stage (§3.1 selectivity)",
               "Items emitted by the stage's processor."),
    MetricSpec("stage.{stage}.items_dropped", "counter", "items", ("sim", "threaded"),
               "\"it is often not feasible to store all data\" (§1)",
               "Arrivals dropped at ingestion (lossy source bindings; "
               "always 0 on the threaded runtime, which has no lossy mode)."),
    MetricSpec("stage.{stage}.bytes_in", "counter", "bytes", ("sim", "threaded"),
               "network volume the evaluation measures (Fig 5 bytes column)",
               "Bytes received by the stage."),
    MetricSpec("stage.{stage}.bytes_out", "counter", "bytes", ("sim", "threaded"),
               "network volume the evaluation measures (Fig 5 bytes column)",
               "Bytes emitted by the stage."),
    MetricSpec("stage.{stage}.busy_seconds", "counter", "seconds", ("sim", "threaded"),
               "server busy time in the Fig 4 queue model",
               "Seconds the stage spent executing processor work."),
    MetricSpec("stage.{stage}.exceptions_reported", "counter", "exceptions",
               ("sim", "threaded"),
               "over-/under-load exceptions sent upstream (§4.2)",
               "Load exceptions this stage reported to its upstream stages."),
    MetricSpec("stage.{stage}.exceptions_received", "counter", "exceptions",
               ("sim", "threaded"),
               "over-/under-load exceptions received from downstream (§4.2)",
               "Load exceptions received from downstream stages."),
    # -- per-stage signals --------------------------------------------------
    MetricSpec("stage.{stage}.arrival_rate", "gauge", "items/second",
               ("sim", "threaded"),
               "\"the system monitors the arrival rate at each source\" (§1)",
               "EWMA arrival-rate estimate at end of run (silence-decayed)."),
    MetricSpec("stage.{stage}.queue_len", "series", "items", ("sim", "threaded"),
               "queue of the server, Fig 4 — the phi3 input",
               "Queue length sampled on the adaptation cadence."),
    MetricSpec("stage.{stage}.latency", "histogram", "seconds", ("sim", "threaded"),
               "the real-time constraint (§1: processing keeps up with arrival)",
               "End-to-end latency (item creation -> processed here), every item."),
    MetricSpec("stage.{stage}.latency_queue", "histogram", "seconds",
               ("sim", "threaded"),
               "waiting time in the Fig 4 queue",
               "Per-hop queue-wait seconds at this stage (sampled hop traces)."),
    MetricSpec("stage.{stage}.latency_compute", "histogram", "seconds",
               ("sim", "threaded"),
               "service time in the Fig 4 queue model",
               "Per-hop processing seconds at this stage (sampled hop traces)."),
    MetricSpec("stage.{stage}.latency_network", "histogram", "seconds",
               ("sim", "threaded"),
               "transmission on the bandwidth-constrained link (Fig 9 regime)",
               "Per-hop sender-side transmission seconds (sampled hop traces)."),
    # -- micro-batching (see docs/performance.md) ---------------------------
    MetricSpec("batch.{stage}.batches", "counter", "batches",
               ("sim", "threaded", "net"),
               "throughput-vs-latency trade the adaptation loop tunes (§4)",
               "Micro-batches flushed by the stage (all out-streams)."),
    MetricSpec("batch.{stage}.batched_items", "counter", "items",
               ("sim", "threaded", "net"),
               "throughput-vs-latency trade the adaptation loop tunes (§4)",
               "Items shipped through the batched fast path."),
    MetricSpec("batch.{stage}.flush_size", "histogram", "items",
               ("sim", "threaded", "net"),
               "throughput-vs-latency trade the adaptation loop tunes (§4)",
               "Items per flushed batch (full batches hit max_items; "
               "age flushes are smaller)."),
    MetricSpec("batch.{stage}.age_flushes", "counter", "flushes",
               ("sim", "threaded", "net"),
               "the real-time constraint (§1) bounding batch wait",
               "Batches flushed by the max_delay age bound rather than "
               "by reaching max_items."),
    # -- sharding and elastic scaling (see docs/sharding.md) ----------------
    MetricSpec("shard.{stage}.items", "counter", "items",
               ("sim", "threaded", "net"),
               "scheduling/brokering direction of the related work "
               "(Grid Service Broker, cs/0405023)",
               "Items routed to this replica by its group's partitioner."),
    MetricSpec("shard.{group}.replicas", "gauge", "replicas",
               ("sim", "threaded", "net"),
               "resource allocation the Section-4 load signal drives",
               "Active replica count of the shard group at end of run."),
    MetricSpec("scale.{group}.scale_ups", "counter", "transitions",
               ("threaded",),
               "scale-up on sustained queue-band breach (§4 signal reuse)",
               "Completed scale-up transitions of the group's autoscaler."),
    MetricSpec("scale.{group}.scale_downs", "counter", "transitions",
               ("threaded",),
               "scale-down on sustained idleness (§4 signal reuse)",
               "Completed scale-down transitions of the group's autoscaler."),
    MetricSpec("scale.{group}.replicas", "series", "replicas",
               ("threaded",),
               "resource allocation trajectory under the §4 load signal",
               "Active replica count over time (one point per transition, "
               "plus the starting count)."),
    MetricSpec("scale.{group}.rebalance_seconds", "histogram", "seconds",
               ("threaded",),
               "the real-time constraint (§1) bounding handoff stalls",
               "Wall-clock duration of each drain-and-handoff rebalance."),
    # -- adaptation ---------------------------------------------------------
    MetricSpec("adapt.{stage}.d_tilde", "series", "load score", ("sim", "threaded"),
               "the long-term load score d-tilde (§4.1)",
               "Long-term load trajectory driving the exception protocol."),
    MetricSpec("adapt.{stage}.param.{parameter}", "series", "parameter units",
               ("sim", "threaded"),
               "adjustment-parameter trajectory (Figures 8 and 9)",
               "Value of one adjustment parameter over time."),
    # -- network fabric -----------------------------------------------------
    MetricSpec("link.{link}.tx_busy", "gauge", "seconds", ("sim",),
               "\"the available network bandwidth\" (§1)",
               "Cumulative transmitter-busy seconds of the link."),
    MetricSpec("link.{link}.bytes", "gauge", "bytes", ("sim",),
               "network volume over the delay-injected links (§5)",
               "Cumulative bytes delivered by the link."),
    MetricSpec("link.{link}.messages", "gauge", "messages", ("sim",),
               "network volume over the delay-injected links (§5)",
               "Cumulative messages delivered by the link."),
    MetricSpec("link.{link}.throughput", "series", "bytes/second", ("sim",),
               "\"the available network bandwidth\" (§1)",
               "Delivered bytes/second per MonitoringService period."),
    MetricSpec("link.{link}.utilization", "series", "fraction", ("sim",),
               "\"the available network bandwidth\" (§1)",
               "TX-busy fraction per MonitoringService period."),
    MetricSpec("host.{host}.utilization", "series", "fraction", ("sim",),
               "\"the available computing resources\" (§1)",
               "Busy-core fraction per MonitoringService period."),
    # -- faults and recovery (see docs/fault_tolerance.md) ------------------
    MetricSpec("fault.{stage}.failovers", "counter", "failovers", ("sim",),
               "\"24 hours a day, 7 days a week\" (§1) — recovery extension",
               "Times the stage was re-placed and restored after a host "
               "failure (includes in-place restarts after recovery)."),
    MetricSpec("fault.{stage}.retries", "counter", "retries", ("sim",),
               "transient faults on the delay-injected links (§5) — extension",
               "Transmission retries after transient link losses."),
    MetricSpec("fault.{stage}.quarantined", "counter", "items",
               ("sim", "threaded"),
               "—",
               "Poison items quarantined under the skip/dead-letter error "
               "policy (on_item raised, or transmission retries exhausted)."),
    MetricSpec("recovery.{stage}.checkpoints", "counter", "checkpoints",
               ("sim", "threaded"),
               "—",
               "Stage checkpoints taken on the configured cadence."),
    MetricSpec("recovery.{stage}.latency", "histogram", "seconds", ("sim",),
               "\"24 hours a day, 7 days a week\" (§1) — recovery extension",
               "Outage per failover: last heartbeat (or worker death) to "
               "the restored worker starting."),
    MetricSpec("recovery.{stage}.items_replayed", "counter", "items", ("sim",),
               "—",
               "Messages re-delivered from the replay buffer after a "
               "failover."),
    MetricSpec("recovery.{stage}.duplicates", "counter", "items", ("sim",),
               "—",
               "Replayed items the pre-failure worker had already processed "
               "(the at-least-once duplicates; counted, not hidden)."),
    MetricSpec("recovery.{stage}.replay_dropped", "counter", "items", ("sim",),
               "—",
               "Unacknowledged items the bounded replay buffer had already "
               "evicted when a failover needed them (permanently lost)."),
    # -- planned live migration (see docs/migration.md) ---------------------
    MetricSpec("migration.{stage}.moves", "counter", "moves",
               ("sim", "threaded", "net"),
               "deployment-time assumptions drift (§1) — re-placement loop",
               "Completed planned moves of the stage (manual or "
               "controller-triggered)."),
    MetricSpec("migration.{stage}.pause_seconds", "histogram", "seconds",
               ("sim", "threaded", "net"),
               "—",
               "Per-move pause: migration request to the replacement "
               "consuming again (the bounded-pause guarantee; p99 is the "
               "acceptance number)."),
    MetricSpec("migration.{stage}.triggers", "counter", "triggers",
               ("sim",),
               "observed bandwidth/occupancy vs. deployment assumptions (§4)",
               "MigrationController decisions that requested a move after "
               "a hysteresis breach (link drift or host occupancy)."),
    MetricSpec("migration.{stage}.items_replayed", "counter", "items",
               ("sim",),
               "—",
               "Replay performed because a planned move degraded to a "
               "crash failover (source host died mid-move); zero on the "
               "planned path."),
    MetricSpec("migration.{stage}.duplicates", "counter", "items",
               ("sim",),
               "—",
               "At-least-once duplicates from a degraded (crash-interrupted) "
               "migration; zero on the planned path."),
    # -- record/replay ledger (see docs/replay.md) --------------------------
    MetricSpec("ledger.{stage}.records", "counter", "records",
               ("sim", "threaded", "net"),
               "—",
               "Nondeterministic reads (CLOCK/RNG/PARAM) the stage recorded "
               "into its run-ledger sidecar."),
    MetricSpec("ledger.{stage}.effects", "counter", "effects",
               ("sim", "threaded", "net"),
               "—",
               "Sink effects committed exactly once through the SinkTxn "
               "protocol (SINK records)."),
    MetricSpec("ledger.{stage}.dedup_hits", "counter", "reads",
               ("sim", "threaded", "net"),
               "—",
               "Reads served from the recorded coordinate instead of a "
               "fresh value (redelivered items reproducing their original "
               "output bit for bit)."),
    MetricSpec("ledger.{stage}.replay_misses", "counter", "reads",
               ("sim", "threaded", "net"),
               "—",
               "Replay-mode reads whose coordinate was absent from the "
               "recording (fell back to a live value; nonzero means the "
               "replay drifted off the recorded path)."),
    # -- networked data plane (see docs/networking.md) ----------------------
    MetricSpec("net.{channel}.frames", "counter", "frames", ("net",),
               "inter-server stream traffic (§2: stages on distinct hosts)",
               "DATA + EOS frames sent on the channel (sender side)."),
    MetricSpec("net.{channel}.bytes", "counter", "bytes", ("net",),
               "network volume the evaluation measures (Fig 5 bytes column)",
               "Encoded frame bytes (header + payload) put on the wire "
               "by the channel's sender."),
    MetricSpec("net.{channel}.credit_frames", "counter", "frames", ("net",),
               "backpressure in the Fig 4 queue model, made explicit",
               "CREDIT frames the channel's sender received, the initial "
               "grant included (at most one per receiver wakeup)."),
    MetricSpec("net.{channel}.credit_stalls", "counter", "stalls", ("net",),
               "backpressure in the Fig 4 queue model, made explicit",
               "Sends that blocked because the credit window was exhausted."),
    MetricSpec("net.{channel}.credit_wait_seconds", "counter", "seconds",
               ("net",),
               "backpressure in the Fig 4 queue model, made explicit",
               "Total seconds the sender spent blocked awaiting credit."),
    MetricSpec("net.{channel}.in_flight_peak", "gauge", "items", ("net",),
               "bounded buffering replacing unbounded socket queues",
               "Peak unacknowledged items in flight (credit is charged "
               "per item, not per frame, so a batched DATA frame costs "
               "its item count); never exceeds the receiver's granted "
               "credit window."),
    MetricSpec("net.{channel}.exceptions", "counter", "exceptions", ("net",),
               "over-/under-load exceptions sent upstream over the wire (§4.2)",
               "Load exceptions delivered upstream over the channel's "
               "socket (counted at the sending stage's worker)."),
    MetricSpec("net.{worker}.rtt", "histogram", "seconds", ("net",),
               "\"the available network bandwidth\" (§1) — liveness probe",
               "Coordinator -> worker ping round-trip-time samples."),
    # -- whole-run ----------------------------------------------------------
    MetricSpec("run.execution_time", "gauge", "seconds", ("sim", "threaded"),
               "execution time of Figures 5 and 6",
               "Simulated (or wall-clock) seconds from start to completion."),
    MetricSpec("run.traced_items", "counter", "items", ("sim", "threaded"),
               "—",
               "Items that carried a sampled hop-trace context."),
)

_PLACEHOLDER = re.compile(r"\{[a-z]+\}")


def _compile(template: str) -> "re.Pattern[str]":
    pattern = _PLACEHOLDER.sub("[^.]+", re.escape(template).replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


_COMPILED: Dict[str, "re.Pattern[str]"] = {
    spec.template: _compile(spec.template) for spec in METRICS
}


def spec_for(name: str) -> Optional[MetricSpec]:
    """The catalog entry a concrete metric name instantiates, or None."""
    for spec in METRICS:
        if _COMPILED[spec.template].match(name):
            return spec
    return None


def validate_name(name: str, kind: str) -> MetricSpec:
    """Assert ``name`` instantiates a catalog template of ``kind``.

    Returns the matching spec; raises ``ValueError`` otherwise.  This is
    what keeps metric names stable: new metrics require a catalog entry
    (and therefore a ``docs/observability.md`` row) first.
    """
    spec = spec_for(name)
    if spec is None:
        raise ValueError(
            f"metric name {name!r} matches no template in the catalog "
            "(repro.obs.names.METRICS); add a MetricSpec and document it "
            "in docs/observability.md"
        )
    if spec.kind != kind:
        raise ValueError(
            f"metric {name!r} is cataloged as a {spec.kind}, "
            f"registered as a {kind}"
        )
    return spec
