"""Simulated compute hosts with CPU cost models.

A :class:`Host` is where a GATES stage executes.  The paper's evaluation
varies per-byte post-processing cost (Figure 8: 1–20 ms/byte) and implicitly
the compute available near sources, so the host model exposes:

* a :class:`CpuCostModel` translating work (items/bytes) into seconds,
* a core pool (:class:`~repro.simnet.resources.CapacityResource`) so that
  co-located stages contend for CPU,
* a speed factor so heterogeneous grids can be assembled (Section 3.1's
  "heterogeneous resources" goal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.simnet.engine import Environment, Event
from repro.simnet.resources import CapacityResource

__all__ = ["CpuCostModel", "Host", "HostFailedError"]


class HostFailedError(Exception):
    """Raised when work is submitted to (or running on) a failed host."""


@dataclass(frozen=True)
class CpuCostModel:
    """Affine cost model for a unit of stage work.

    ``seconds = fixed + per_item * items + per_byte * bytes``

    All coefficients are expressed for a host with ``speed_factor == 1.0``;
    the host divides by its speed factor.  The per-byte term is the paper's
    "ms/byte" post-processing knob.
    """

    fixed: float = 0.0
    per_item: float = 0.0
    per_byte: float = 0.0

    def __post_init__(self) -> None:
        if self.fixed < 0 or self.per_item < 0 or self.per_byte < 0:
            raise ValueError(f"cost coefficients must be >= 0: {self}")

    def cost(self, items: float = 0.0, nbytes: float = 0.0) -> float:
        """Seconds of CPU time for ``items`` items / ``nbytes`` bytes."""
        if items < 0 or nbytes < 0:
            raise ValueError("work amounts must be >= 0")
        return self.fixed + self.per_item * items + self.per_byte * nbytes

    @property
    def is_free(self) -> bool:
        """True when every unit of work costs exactly zero seconds.

        Runtimes use this to skip the per-item cost computation on their
        batched fast paths; a frozen all-zero model can never start
        charging mid-run.
        """
        return self.fixed == 0.0 and self.per_item == 0.0 and self.per_byte == 0.0


class Host:
    """A compute node in the simulated grid.

    Parameters
    ----------
    env:
        Owning environment.
    name:
        Unique diagnostic name (the grid registry keys on it).
    cores:
        Number of CPU cores; stage work serializes beyond this.
    speed_factor:
        Relative speed (2.0 executes a given cost model twice as fast).
    memory_mb:
        Advertised memory, used by the resource matchmaker only.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int = 1,
        speed_factor: float = 1.0,
        memory_mb: float = 1024.0,
    ) -> None:
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be > 0, got {speed_factor}")
        if memory_mb <= 0:
            raise ValueError(f"memory_mb must be > 0, got {memory_mb}")
        self.env = env
        self.name = name
        self.cores = cores
        self.speed_factor = float(speed_factor)
        self.memory_mb = float(memory_mb)
        self.cpu = CapacityResource(env, capacity=cores)
        self.busy_time = 0.0
        #: True while the host is failed (crash-stop model); work
        #: submitted while failed raises :class:`HostFailedError`.
        self.failed = False

    def execute(
        self,
        cost_model: CpuCostModel,
        items: float = 0.0,
        nbytes: float = 0.0,
        seconds: Optional[float] = None,
    ) -> Event:
        """Run a unit of work on this host; event fires on completion.

        Either pass ``items``/``nbytes`` to be priced by ``cost_model``, or
        an explicit ``seconds`` override (still scaled by speed factor).
        The work holds one core for its duration, so concurrent stages on
        the same host contend realistically: beyond ``cores`` it waits its
        turn (FIFO).  One heap event per unit of work — the returned
        completion, scheduled when the work gets its core — whose first
        callback is :meth:`_finish`, so the account is settled before
        whoever waits on it resumes.
        """
        raw = cost_model.cost(items, nbytes) if seconds is None else float(seconds)
        if raw < 0:
            raise ValueError(f"work duration must be >= 0, got {raw}")
        duration = raw / self.speed_factor
        work = Event(self.env)
        if self.failed:
            return work.fail(HostFailedError(f"host {self.name!r} is down"))
        work.callbacks.append(self._finish)
        self.cpu.claim(partial(work.complete, duration, duration))
        return work

    def execute_inline(
        self, cost_model: CpuCostModel, items: float = 0.0, nbytes: float = 0.0
    ) -> Optional[float]:
        """Run awaited work to its end now, if nothing can come in between.

        For a caller that would wait on :meth:`execute`'s event at once:
        on a free core of a live host, when that completion would be the
        next event processed (:meth:`Environment.complete_inline`), the
        clock moves to the work's end, ``busy_time`` is booked and the
        seconds charged are returned, for no event at all.  Otherwise
        nothing happens and the result is None: call :meth:`execute`.
        """
        duration = cost_model.cost(items, nbytes) / self.speed_factor
        cpu = self.cpu
        if (
            duration < 0  # execute() rejects it
            or self.failed
            or cpu.in_use >= cpu.capacity  # no core available
            or not self.env.complete_inline(duration)
        ):
            return None
        self.busy_time += duration
        return duration

    def fail(self) -> None:
        """Crash-stop the host; subsequent (and in-flight) work errors."""
        self.failed = True

    def recover(self) -> None:
        """Bring the host back (fresh, with no carried-over work)."""
        self.failed = False

    def _finish(self, work: Event) -> None:
        """Pass the core on and book the work, or fail it with the host."""
        self.cpu.free()
        if self.failed:
            work._ok = False
            work._value = HostFailedError(f"host {self.name!r} failed while executing")
        else:
            self.busy_time += work._value

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy core-seconds divided by available core-seconds."""
        elapsed = self.env.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)

    def __repr__(self) -> str:
        return (
            f"Host({self.name!r}, cores={self.cores}, "
            f"speed={self.speed_factor}, mem={self.memory_mb}MB)"
        )
