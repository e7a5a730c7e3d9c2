"""Time-series recording and statistics for experiments.

The evaluation figures are time series (Figures 8/9: adjustment-parameter
value over time) and aggregate rows (Figure 5 table, Figures 6/7 bars).
:class:`TimeSeries` records (time, value) samples; :class:`EventLog`
records structured events; :class:`StatSummary` reduces a series to the
numbers the harness prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["EventLog", "StatSummary", "TimeSeries"]


@dataclass(frozen=True)
class StatSummary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "StatSummary":
        """Compute a summary; empty input yields a zeroed summary."""
        n = len(values)
        if n == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return cls(n, mean, math.sqrt(var), min(values), max(values))


def percentile(
    values: Sequence[float], q: float, default: Optional[float] = None
) -> float:
    """The q-th percentile (0-100) by linear interpolation.

    Latency reporting uses p50/p95/p99; defined here rather than via
    numpy so small sample sets behave predictably in tests.

    Empty-input contract (shared by every percentile surface in the
    repo): an empty sample set **raises** ``ValueError`` unless the
    caller opts into a fallback with ``default`` — reporting layers
    (``StageStats.latency_percentiles``, ``Histogram.percentiles``,
    ``repro report``) pass ``default=0.0`` so empty stages render as
    zeros, while analysis code that would silently compute on nothing
    fails loudly.
    """
    if not values:
        if default is not None:
            return float(default)
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class TimeSeries:
    """An append-only sequence of (time, value) samples.

    Times must be non-decreasing (simulation time only moves forward);
    violating that raises immediately, which catches model bugs early.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time went backwards in series {self.name!r}: "
                f"{time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def last(self) -> Tuple[float, float]:
        """Most recent (time, value) sample."""
        if not self._values:
            raise IndexError(f"series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def tail(self, fraction: float = 0.25) -> List[float]:
        """The last ``fraction`` of the samples (at least one if non-empty)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self._values:
            return []
        k = max(1, int(len(self._values) * fraction))
        return self._values[-k:]

    def tail_mean(self, fraction: float = 0.25) -> float:
        """Mean of the tail — the 'converged-to' value in Figures 8/9."""
        tail = self.tail(fraction)
        if not tail:
            raise ValueError(f"series {self.name!r} is empty")
        return sum(tail) / len(tail)

    def summary(self) -> StatSummary:
        return StatSummary.of(self._values)

    def converged(self, fraction: float = 0.25, tolerance: float = 0.05) -> bool:
        """True if the tail's spread is within ``tolerance`` of its mean.

        This is the convergence criterion the experiment harness uses when
        reporting the plateau values of Figures 8 and 9.  For a tail mean
        of ~0, an absolute tolerance is applied instead.
        """
        tail = self.tail(fraction)
        if len(tail) < 2:
            return False
        mean = sum(tail) / len(tail)
        spread = max(tail) - min(tail)
        scale = abs(mean) if abs(mean) > 1e-9 else 1.0
        return spread <= tolerance * scale

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"name": self.name, "times": list(self._times), "values": list(self._values)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimeSeries":
        """Inverse of :meth:`to_dict`."""
        series = cls(data.get("name", ""))
        for t, v in zip(data["times"], data["values"]):
            series.record(t, v)
        return series

    def downsample(self, max_points: int) -> "TimeSeries":
        """Uniformly thin the series to at most ``max_points`` samples."""
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        out = TimeSeries(self.name)
        n = len(self._values)
        if n <= max_points:
            for t, v in self:
                out.record(t, v)
            return out
        step = n / max_points
        idx = 0.0
        while int(idx) < n:
            i = int(idx)
            out.record(self._times[i], self._values[i])
            idx += step
        return out


@dataclass
class EventLog:
    """Structured, time-stamped event records for debugging and assertions.

    Each entry is ``(time, kind, attributes)``.  Tests use it to assert on
    protocol behaviour (e.g. "an over-load exception was reported upstream
    before the parameter dropped").
    """

    entries: List[Tuple[float, str, Dict[str, Any]]] = field(default_factory=list)

    def log(self, time: float, kind: str, **attributes: Any) -> None:
        """Append one event."""
        self.entries.append((float(time), kind, attributes))

    def __len__(self) -> int:
        return len(self.entries)

    def count(self, kind: str) -> int:
        return sum(1 for _, k, _ in self.entries if k == kind)

    def first(self, kind: str) -> Optional[Tuple[float, Dict[str, Any]]]:
        """Earliest entry of ``kind``, or None."""
        for t, k, attrs in self.entries:
            if k == kind:
                return t, attrs
        return None

    def clear(self) -> None:
        self.entries.clear()
