"""Run results and per-stage statistics.

Since the observability layer (:mod:`repro.obs`), both runtimes publish
their measurements into a :class:`~repro.obs.registry.MetricsRegistry`
during the run and *materialize* :class:`StageStats` from it at the end
(:meth:`StageStats.from_registry`) — the stats are views over the
registry, so the simulated and threaded runtimes report identically and
the exporters serialize one source of truth.  :class:`StageStats` remains
a plain dataclass so tests and analysis code can also build one directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import ItemTrace
from repro.simnet.trace import EventLog, StatSummary, TimeSeries, percentile

__all__ = ["RunResult", "StageStats"]


@dataclass
class StageStats:
    """Everything measured about one stage during a run.

    The per-sample fields (histories, latencies) stay out of ``repr()``:
    they grow with the run, and a repr is for logs and tracebacks.
    """

    stage_name: str
    host_name: str = ""
    items_in: int = 0
    items_out: int = 0
    #: Items dropped at ingestion (lossy source bindings only).
    items_dropped: int = 0
    #: EWMA arrival-rate estimate (items/s) at the end of the run — the
    #: paper's "monitors the arrival rate" signal, per stage.
    arrival_rate: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    busy_seconds: float = 0.0
    #: Adjustment-parameter trajectories, name -> series (Figures 8/9).
    parameter_history: Dict[str, TimeSeries] = field(default_factory=dict, repr=False)
    #: Long-term load score trajectory (d̃ over time).
    load_history: Optional[TimeSeries] = field(default=None, repr=False)
    #: Queue length series sampled on the adaptation cadence.
    queue_history: Optional[TimeSeries] = field(default=None, repr=False)
    #: Over-/under-load exceptions *received from downstream*.
    exceptions_received: int = 0
    #: Exceptions this stage reported upstream.
    exceptions_reported: int = 0
    #: Per-item latency samples (arrival at system -> processed here).
    latencies: List[float] = field(default_factory=list, repr=False)
    #: Final value returned by the stage processor's ``result()``.
    final_value: Any = None

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        stage_name: str,
        host_name: str = "",
        final_value: Any = None,
    ) -> "StageStats":
        """Materialize the stats view of one stage from the registry.

        Missing metrics read as zero/empty, so a registry populated by
        either runtime (or loaded from an export) yields the same shape.
        """
        prefix = f"stage.{stage_name}"
        stats = cls(
            stage_name=stage_name,
            host_name=host_name,
            items_in=int(registry.value(f"{prefix}.items_in", 0.0)),
            items_out=int(registry.value(f"{prefix}.items_out", 0.0)),
            items_dropped=int(registry.value(f"{prefix}.items_dropped", 0.0)),
            arrival_rate=registry.value(f"{prefix}.arrival_rate", 0.0),
            bytes_in=registry.value(f"{prefix}.bytes_in", 0.0),
            bytes_out=registry.value(f"{prefix}.bytes_out", 0.0),
            busy_seconds=registry.value(f"{prefix}.busy_seconds", 0.0),
            exceptions_received=int(
                registry.value(f"{prefix}.exceptions_received", 0.0)
            ),
            exceptions_reported=int(
                registry.value(f"{prefix}.exceptions_reported", 0.0)
            ),
            final_value=final_value,
        )
        if f"{prefix}.latency" in registry:
            stats.latencies = registry.get(f"{prefix}.latency").samples
        if f"{prefix}.queue_len" in registry:
            stats.queue_history = registry.get(f"{prefix}.queue_len").series
        if f"adapt.{stage_name}.d_tilde" in registry:
            stats.load_history = registry.get(f"adapt.{stage_name}.d_tilde").series
        param_prefix = f"adapt.{stage_name}.param."
        for name in registry.names(param_prefix):
            stats.parameter_history[name[len(param_prefix):]] = (
                registry.get(name).series
            )
        return stats

    def latency_summary(self) -> StatSummary:
        """Summary of end-to-end latencies observed at this stage."""
        return StatSummary.of(self.latencies)

    def latency_percentiles(self, qs=(50.0, 95.0, 99.0)) -> Dict[float, float]:
        """Latency percentiles (default p50/p95/p99).

        Reporting surface: an empty sample set zero-fills via the shared
        ``percentile(..., default=0.0)`` contract (see
        :func:`repro.simnet.trace.percentile`).
        """
        return {q: percentile(self.latencies, q, default=0.0) for q in qs}

    def to_dict(self, include_series: bool = True) -> Dict[str, Any]:
        """JSON-ready representation.

        ``include_series=False`` drops the (potentially long) parameter /
        load / queue trajectories and raw latency samples, keeping only
        scalars — the compact form for result tables.
        """
        data: Dict[str, Any] = {
            "stage_name": self.stage_name,
            "host_name": self.host_name,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "items_dropped": self.items_dropped,
            "arrival_rate": self.arrival_rate,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "busy_seconds": self.busy_seconds,
            "exceptions_received": self.exceptions_received,
            "exceptions_reported": self.exceptions_reported,
            "latency_mean": self.latency_summary().mean,
            "final_value": self.final_value,
        }
        if include_series:
            data["parameter_history"] = {
                name: series.to_dict()
                for name, series in self.parameter_history.items()
            }
            data["load_history"] = (
                self.load_history.to_dict() if self.load_history else None
            )
            data["queue_history"] = (
                self.queue_history.to_dict() if self.queue_history else None
            )
            data["latencies"] = list(self.latencies)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageStats":
        """Inverse of :meth:`to_dict` (full form with series)."""
        stats = cls(
            stage_name=data["stage_name"],
            host_name=data.get("host_name", ""),
            items_in=data.get("items_in", 0),
            items_out=data.get("items_out", 0),
            items_dropped=data.get("items_dropped", 0),
            arrival_rate=data.get("arrival_rate", 0.0),
            bytes_in=data.get("bytes_in", 0.0),
            bytes_out=data.get("bytes_out", 0.0),
            busy_seconds=data.get("busy_seconds", 0.0),
            exceptions_received=data.get("exceptions_received", 0),
            exceptions_reported=data.get("exceptions_reported", 0),
            final_value=data.get("final_value"),
        )
        for name, payload in (data.get("parameter_history") or {}).items():
            stats.parameter_history[name] = TimeSeries.from_dict(payload)
        if data.get("load_history"):
            stats.load_history = TimeSeries.from_dict(data["load_history"])
        if data.get("queue_history"):
            stats.queue_history = TimeSeries.from_dict(data["queue_history"])
        stats.latencies = list(data.get("latencies") or [])
        return stats

    @property
    def selectivity(self) -> float:
        """items_out / items_in (data-reduction factor of the stage)."""
        return self.items_out / self.items_in if self.items_in else 0.0


@dataclass
class RunResult:
    """Outcome of executing a deployed application."""

    app_name: str
    #: Simulated (or wall-clock) seconds from start to completion — the
    #: "execution time" of Figures 5 and 6.
    execution_time: float = 0.0
    stages: Dict[str, StageStats] = field(default_factory=dict)
    events: EventLog = field(default_factory=EventLog, repr=False)
    #: The metrics registry the runtime published into (None for results
    #: assembled by hand or by pre-observability code paths).
    metrics: Optional[MetricsRegistry] = field(default=None, repr=False)
    #: Sampled per-item hop traces (empty unless tracing was enabled).
    traces: List[ItemTrace] = field(default_factory=list, repr=False)

    def stage(self, name: str) -> StageStats:
        """Stats for one stage."""
        try:
            return self.stages[name]
        except KeyError:
            raise KeyError(
                f"no stage {name!r} in results (have {sorted(self.stages)})"
            ) from None

    def final_value(self, stage_name: str) -> Any:
        """The ``result()`` of a (typically sink) stage."""
        return self.stage(stage_name).final_value

    def parameter_series(self, stage_name: str, parameter: str) -> TimeSeries:
        """Trajectory of one adjustment parameter (Figures 8/9 series)."""
        stage = self.stage(stage_name)
        try:
            return stage.parameter_history[parameter]
        except KeyError:
            raise KeyError(
                f"stage {stage_name!r} has no parameter {parameter!r} "
                f"(have {sorted(stage.parameter_history)})"
            ) from None

    def total_bytes_moved(self) -> float:
        """Sum of bytes received by all stages (network volume proxy)."""
        return sum(s.bytes_in for s in self.stages.values())

    def total_exceptions(self) -> int:
        """All load exceptions reported during the run."""
        return sum(s.exceptions_reported for s in self.stages.values())

    def to_dict(self, include_series: bool = True) -> Dict[str, Any]:
        """JSON-ready representation of the whole run.

        The ``final_value`` of each stage must itself be JSON-serializable
        for ``json.dumps`` to succeed — all shipped applications return
        dicts/lists of primitives.
        """
        return {
            "app_name": self.app_name,
            "execution_time": self.execution_time,
            "stages": {
                name: stats.to_dict(include_series=include_series)
                for name, stats in self.stages.items()
            },
            "events": [
                {"time": t, "kind": kind, **attrs}
                for t, kind, attrs in self.events.entries
            ],
            "metrics": self.metrics.to_dict() if self.metrics else None,
            "traces": [trace.to_dict() for trace in self.traces],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` — what the JSONL loader assembles."""
        result = cls(
            app_name=data["app_name"],
            execution_time=data.get("execution_time", 0.0),
        )
        for name, payload in data.get("stages", {}).items():
            result.stages[name] = StageStats.from_dict(payload)
        for event in data.get("events", []):
            attrs = {k: v for k, v in event.items() if k not in ("time", "kind")}
            result.events.log(event["time"], event["kind"], **attrs)
        if data.get("metrics"):
            result.metrics = MetricsRegistry.from_dict(data["metrics"])
        result.traces = [
            ItemTrace.from_dict(t) for t in data.get("traces") or []
        ]
        return result
