"""How fast is the host right now?

The benchmark runs on a few cores of a shared host whose speed moves by
10-40 % in phases that last from seconds to many minutes: longer than an
invocation, so no median over an invocation's runs removes them, and
wide enough that the same code measured twice lands further apart than
any bound ``BENCHMARK.json`` may state.  What does remove most of it is
measuring the host alongside the program: ``bench/run.py`` times one
*slice* of the fixed, pure-stdlib work below before every run and after
the last, and divides the invocation's wall-clock and CPU-time metrics
by ``median(slices) / REFERENCE_US``.  The reported numbers are then
what a host of the reference speed would show.  In a noisy hour of this
box (74 runs per workload, medians over windows of 8) that brought the
interquartile range of the time metrics from 8-23 % of the median down
to 4-11 %; in a quiet hour it costs up to 1.5 points of added scatter.

The work must not depend on the program under test, or a regression
would normalise itself away: this module imports nothing but ``os``,
``struct`` and ``time``.
"""

from __future__ import annotations

import os
import struct
from time import perf_counter_ns

#: Mean microseconds per chunk on the box the baseline in
#: ``bench/README.md`` was taken on, in a quiet phase.  A constant: it
#: only fixes the scale of the normalised numbers.
REFERENCE_US = 620.0
SLICE_S = 0.3

_PACK = struct.Struct("<qq").pack


def pin_to_one_cpu() -> None:
    """Confine the calling process, and every process and thread it starts
    from now on, to one CPU (the last one it may use).

    Two vCPUs of a shared host are not two cores one can count on.  Where
    the host puts them (two cores, or two hardware threads of one) changes
    what two busy processes get done in parallel, for tens of minutes at a
    time and invisibly to any single-threaded reference: the same
    ``net-relay-saturate`` code read 58.5k items/s and 1.67 ms in ten
    invocations and 73.5k items/s and 0.96 ms in the next ten.  And every
    hand-off between the vCPUs (a GIL release, a socket wake-up) is an
    inter-processor interrupt whose cost moves with the host.  On one CPU
    a workload measures the work its processes do, whichever of them does
    it; what it no longer measures, how well they overlap, is what this
    host cannot repeat.  No-op where the platform has no affinity call.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _chunk() -> None:
    """About 0.6 ms of what the middleware does all day: dict and list
    updates, small allocations, struct packing, joins."""
    counts: dict = {}
    out = []
    pack = _PACK
    for i in range(3000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        out.append(pack(i, key))
        if len(out) >= 32:
            b"".join(out)
            out.clear()


def slice_us(seconds: float = SLICE_S) -> float:
    """Mean wall-clock microseconds per chunk over about ``seconds``.

    The mean, not a median of the chunks: time the host withholds inside
    the slice is exactly what the runs beside it lose as well."""
    chunks = 0
    start = perf_counter_ns()
    end = start + int(seconds * 1e9)
    while True:
        _chunk()
        chunks += 1
        now = perf_counter_ns()
        if now >= end:
            return (now - start) / chunks / 1e3
