"""Data units flowing between stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.obs.tracing import Hop, ItemTrace

__all__ = ["EndOfStream", "Item", "ItemRun"]


@dataclass(slots=True)
class Item:
    """One data item in flight through the pipeline.

    Attributes
    ----------
    payload:
        Application data.
    size:
        Bytes, used for link transmission time and per-byte CPU cost.
    origin:
        Name of the stream (edge) that delivered the item into the current
        stage, or the source binding name for external arrivals.
    created_at:
        Simulation/wall time when the item entered the system (for
        end-to-end latency accounting).
    trace:
        Sampled hop-trace context (:mod:`repro.obs.tracing`), or None for
        the untraced majority.  Emissions inherit the trace of the item
        being processed, so the context follows the data across stages.
    hop:
        The trace's open :class:`~repro.obs.tracing.Hop` for the stage
        queue this item currently sits in (runtime-internal).
    """

    payload: Any
    size: float = 8.0
    origin: str = ""
    created_at: float = 0.0
    trace: Optional[ItemTrace] = None
    hop: Optional[Hop] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"item size must be >= 0, got {self.size}")


class ItemRun:
    """Untraced items that arrived together: one message for a whole run.

    The networked runtime queues one per DATA frame (and its feeder
    batches arrivals into one): ``values[i]`` is an item's payload,
    ``sizes[i]`` its declared size, and all share one ``created_at`` and
    one ``origin``.  The stage loop takes the payloads straight from it,
    so no :class:`Item` is built per item.
    """

    __slots__ = ("values", "sizes", "created_at", "origin")

    def __init__(
        self, values: Sequence[Any], sizes: Sequence[float], created_at: float, origin: str
    ) -> None:
        self.values = values
        self.sizes = sizes
        self.created_at = created_at
        self.origin = origin

    def take(self, n: int) -> "ItemRun":
        """Split off and return the first ``n`` items; the rest stay here."""
        head = ItemRun(self.values[:n], self.sizes[:n], self.created_at, self.origin)
        self.values, self.sizes = self.values[n:], self.sizes[n:]
        return head


@dataclass(frozen=True)
class EndOfStream:
    """Sentinel marking the end of one input stream.

    A stage with N input streams terminates after receiving N sentinels,
    then flushes and propagates its own sentinel downstream.
    """

    origin: str = ""
    #: Size is zero: the sentinel is a control message, effectively free
    #: to transmit (modeled as a minimal 1-byte frame on links).
    size: float = field(default=1.0)
