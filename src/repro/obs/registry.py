"""The metrics registry: one namespace for everything the middleware measures.

The paper's premise is that adaptation needs monitoring ("the system
monitors the arrival rate at each source, the available computing
resources and memory, and the available network bandwidth", Section 1).
Before this module, those signals lived in ad-hoc fields scattered over
the runtimes, the link statistics, and the grid monitor.  The registry
gives them one home with four metric kinds:

* :class:`Counter` — monotone totals (items, bytes, exceptions);
* :class:`Gauge` — point-in-time values, either set directly or read
  lazily from a callback (link statistics);
* :class:`Histogram` — raw float64 samples in a packed array, reduced to
  percentiles (latency);
* :class:`Series` — (time, value) trajectories, wrapping the existing
  :class:`~repro.simnet.trace.TimeSeries` (queue length, d-tilde,
  adjustment parameters, fabric utilization).

Every name must instantiate a template from the catalog in
:mod:`repro.obs.names`; registering an uncataloged name raises.  Both
runtimes publish into a registry, :class:`~repro.core.results.StageStats`
is materialized *from* it (so the two runtimes report identically), and
the exporters in :mod:`repro.obs.export` serialize it losslessly.
"""

from __future__ import annotations

import sys
import threading
from array import array
from base64 import b64decode, b64encode
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.names import validate_name
from repro.simnet.trace import StatSummary, TimeSeries, percentile

__all__ = [
    "BatchMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "StageMetrics",
]


class Counter:
    """A monotonically increasing total (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self._value}


class Gauge:
    """A point-in-time value; optionally read through a callback.

    A callback gauge (``fn=...``) evaluates lazily at read time — the
    pattern link statistics use so the registry always reflects the live
    counters without per-message publication overhead.
    """

    kind = "gauge"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed; cannot set()")
        self._value = float(value)

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Raw samples reduced to count/mean/percentiles (thread-safe append).

    Samples are kept raw rather than bucketed: run sizes here are test- and
    experiment-scale, and raw samples are what the latency decomposition
    and the existing ``StageStats.latencies`` contract need.  They sit in
    an ``array('d')`` — 8 bytes a sample, and one buffer to put on the
    wire (:meth:`to_wire`).
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples = array("d")
        #: ``observe(value)`` appends one sample.  It *is* the array's
        #: ``append``: that converts to float64 itself and is atomic
        #: under the GIL, so the hot path takes no lock and no Python
        #: frame.  Nothing may rebind ``_samples`` afterwards.
        self.observe: Callable[[float], None] = self._samples.append

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def summary(self) -> StatSummary:
        return StatSummary.of(self._samples)

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)) -> Dict[float, float]:
        """Percentiles of the samples; empty histograms zero-fill.

        Uses the unified empty-input contract of
        :func:`repro.simnet.trace.percentile` (``default=0.0``).
        """
        return {q: percentile(self._samples, q, default=0.0) for q in qs}

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "samples": list(self._samples)}

    def to_wire(self) -> Dict[str, Any]:
        """:meth:`to_dict` for a RESULT frame: the samples as base64 of
        little-endian float64 under ``"f8"``, not as a JSON list."""
        samples = self._samples
        if sys.byteorder == "big":
            samples = array("d", samples)
            samples.byteswap()
        return {"kind": self.kind, "f8": b64encode(samples.tobytes()).decode("ascii")}

    def extend_wire(self, payload: Dict[str, Any]) -> None:
        """Append the samples of another histogram's :meth:`to_wire`."""
        incoming = array("d")
        incoming.frombytes(b64decode(payload["f8"], validate=True))
        if sys.byteorder == "big":
            incoming.byteswap()
        self._samples.extend(incoming)


class Series:
    """A (time, value) trajectory metric wrapping a :class:`TimeSeries`."""

    kind = "series"

    def __init__(self, name: str, series: Optional[TimeSeries] = None) -> None:
        self.name = name
        self.series = series if series is not None else TimeSeries(name)

    def record(self, time: float, value: float) -> None:
        self.series.record(time, value)

    @property
    def values(self) -> List[float]:
        return self.series.values

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "series": self.series.to_dict()}


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
                 "series": Series}


class MetricsRegistry:
    """Get-or-create store of named metrics, validated against the catalog.

    ``counter(name)`` etc. return the existing metric when the name is
    already registered (so two publishers of ``link.X.bytes`` share one
    gauge) and raise if it is registered under a different kind.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: str, factory: Callable[[], Any]) -> Any:
        validate_name(name, kind)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name, fn=fn))

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, "histogram", lambda: Histogram(name))

    def series(self, name: str, series: Optional[TimeSeries] = None) -> Series:
        """Register a trajectory; ``series`` adopts an existing TimeSeries.

        Adopting (rather than copying) is deliberate: the runtimes keep
        recording into the same object they always did, and the registry
        view stays live.
        """
        metric = self._get_or_create(name, "series", lambda: Series(name, series))
        if series is not None and metric.series is not series:
            raise ValueError(f"metric {name!r} already wraps a different series")
        return metric

    # -- queries ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Any:
        """The metric registered under ``name`` (KeyError if absent)."""
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"no metric {name!r} (have {len(self._metrics)} metrics; "
                "see names() for the full list)"
            ) from None

    def value(self, name: str, default: Optional[float] = None) -> float:
        """Scalar value of a counter/gauge; ``default`` when unregistered."""
        if name not in self._metrics:
            if default is not None:
                return default
            raise KeyError(f"no metric {name!r}")
        return self._metrics[name].value

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names, optionally filtered by dotted prefix."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def metrics(self, prefix: str = "") -> List[Any]:
        """The metric objects, sorted by name."""
        return [self._metrics[n] for n in self.names(prefix)]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{name: {kind, payload}}`` mapping (sorted names)."""
        return {name: self._metrics[name].to_dict() for name in self.names()}

    def to_wire(self) -> Dict[str, Any]:
        """:meth:`to_dict` with every histogram packed
        (:meth:`Histogram.to_wire`) — what a worker's RESULT carries."""
        return {
            name: metric.to_wire() if metric.kind == "histogram" else metric.to_dict()
            for name, metric in sorted(self._metrics.items())
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict` (callback gauges become plain)."""
        registry = cls()
        for name, payload in data.items():
            kind = payload["kind"]
            if kind == "counter":
                registry.counter(name).inc(payload["value"])
            elif kind == "gauge":
                registry.gauge(name).set(payload["value"])
            elif kind == "histogram":
                hist = registry.histogram(name)
                for sample in payload["samples"]:
                    hist.observe(sample)
            elif kind == "series":
                registry.series(name, TimeSeries.from_dict(payload["series"]))
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
        return registry


class StageMetrics:
    """Pre-resolved metric handles for one stage's hot path.

    Both runtimes construct one per stage at build time, so the per-item
    code increments bound :class:`Counter` objects instead of re-resolving
    dotted names — and, because the names come from one place, the
    simulated and threaded runtimes are guaranteed to register identical
    ``stage.*`` / ``adapt.*`` families (the registry-parity contract).
    """

    def __init__(self, registry: MetricsRegistry, stage_name: str) -> None:
        prefix = f"stage.{stage_name}"
        self.items_in = registry.counter(f"{prefix}.items_in")
        self.items_out = registry.counter(f"{prefix}.items_out")
        self.items_dropped = registry.counter(f"{prefix}.items_dropped")
        self.bytes_in = registry.counter(f"{prefix}.bytes_in")
        self.bytes_out = registry.counter(f"{prefix}.bytes_out")
        self.busy_seconds = registry.counter(f"{prefix}.busy_seconds")
        self.exceptions_reported = registry.counter(f"{prefix}.exceptions_reported")
        self.exceptions_received = registry.counter(f"{prefix}.exceptions_received")
        self.latency = registry.histogram(f"{prefix}.latency")
        self.queue_len = registry.series(f"{prefix}.queue_len")
        self.arrival_rate = registry.gauge(f"{prefix}.arrival_rate")


class BatchMetrics:
    """Pre-resolved handles for one stage's micro-batching accounting.

    Constructed only when a stage runs with an enabled
    :class:`~repro.core.batching.BatchPolicy`, by whichever runtime hosts
    it — the ``batch.*`` family is identical across all three runtimes.
    """

    def __init__(self, registry: MetricsRegistry, stage_name: str) -> None:
        prefix = f"batch.{stage_name}"
        self.batches = registry.counter(f"{prefix}.batches")
        self.items = registry.counter(f"{prefix}.batched_items")
        self.flush_size = registry.histogram(f"{prefix}.flush_size")
        self.age_flushes = registry.counter(f"{prefix}.age_flushes")
