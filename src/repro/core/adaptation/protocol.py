"""The over-/under-load exception protocol between adjacent stages.

"When d̃ exceeds the pre-defined interval [LT₁, LT₂], the current server
will report an under-load or over-load exception to the preceding server.
The number of these exceptions is a factor used to tune adjustment
parameters at the preceding server." (Section 4.2)

:class:`ExceptionCounter` is the upstream side's mailbox: it accumulates
T₁ (over-load) and T₂ (under-load) counts per reporting downstream stage.
The parameter controller reads — and *drains* — these counts each
adjustment round, so old exceptions do not dominate forever (the paper
wants the controller to "eliminate the load exceptions reported from the
server C", which requires reacting to recent ones).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["ExceptionCounter", "LoadException", "LoadExceptionKind"]


class LoadExceptionKind(enum.Enum):
    """The two exception flavours of Section 4.2."""

    OVERLOAD = "overload"
    UNDERLOAD = "underload"


@dataclass(frozen=True)
class LoadException:
    """One exception report travelling upstream."""

    kind: LoadExceptionKind
    reporter: str
    time: float
    #: The d̃ value that triggered the report (diagnostic only).
    score: float = 0.0


class ExceptionCounter:
    """Accumulates (T₁, T₂) per reporting downstream stage."""

    def __init__(self) -> None:
        self._counts: Dict[str, Tuple[int, int]] = {}
        self.total_overloads = 0
        self.total_underloads = 0

    def report(self, exception: LoadException) -> None:
        """Record one incoming exception."""
        t1, t2 = self._counts.get(exception.reporter, (0, 0))
        if exception.kind is LoadExceptionKind.OVERLOAD:
            self._counts[exception.reporter] = (t1 + 1, t2)
            self.total_overloads += 1
        else:
            self._counts[exception.reporter] = (t1, t2 + 1)
            self.total_underloads += 1

    def counts(self, reporter: str) -> Tuple[int, int]:
        """(T₁, T₂) accumulated from ``reporter`` since the last drain."""
        return self._counts.get(reporter, (0, 0))

    def aggregate(self) -> Tuple[int, int]:
        """(T₁, T₂) summed over all reporters since the last drain."""
        t1 = sum(c[0] for c in self._counts.values())
        t2 = sum(c[1] for c in self._counts.values())
        return t1, t2

    def drain(self) -> Tuple[int, int]:
        """Return the aggregate counts and reset the window."""
        totals = self.aggregate()
        self._counts.clear()
        return totals

    def snapshot(self) -> dict:
        """Checkpointable state (see :mod:`repro.resilience`).

        The counts are copied in one step first: on the threaded runtime
        a downstream monitor thread may report while a checkpoint reads.
        """
        return {
            "counts": [[r, t1, t2] for r, (t1, t2) in list(self._counts.items())],
            "total_overloads": self.total_overloads,
            "total_underloads": self.total_underloads,
        }

    def restore(self, state: dict) -> None:
        """Rebuild in place from a :meth:`snapshot` value."""
        self._counts = {r: (int(t1), int(t2)) for r, t1, t2 in state["counts"]}
        self.total_overloads = int(state["total_overloads"])
        self.total_underloads = int(state["total_underloads"])

    def __repr__(self) -> str:
        t1, t2 = self.aggregate()
        return f"ExceptionCounter(T1={t1}, T2={t2}, lifetime={self.total_overloads}/{self.total_underloads})"
