"""Figure 8: Self-adaptation for a processing constraint (comp-steer).

Paper setup: five versions of comp-steer whose analysis-stage
post-processing cost is 1, 5, 8, 10, 20 ms/byte; the simulation generates
~160 bytes/second; the sampling factor starts at 0.13.  The figure plots
the middleware-chosen sampling factor over time.

Paper convergence values: 1, 1, ≈0.65, ≈0.55, ≈0.31 — i.e. the highest
sampling rate that still meets the processing constraint
(capacity = 1000/cost bytes/s, feasible rate = capacity / 160).

Run: ``python -m repro fig8``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import run_comp_steer

__all__ = ["Fig8Row", "run_fig8", "ANALYSIS_COSTS_MS_PER_BYTE"]

#: The paper's five post-processing costs (ms/byte).
ANALYSIS_COSTS_MS_PER_BYTE: Sequence[float] = (1.0, 5.0, 8.0, 10.0, 20.0)
#: Simulation output rate (paper: "approximately 160 bytes per second").
GENERATION_RATE = 160.0
#: Initial sampling factor (paper: 0.13 for all versions).
INITIAL_RATE = 0.13


@dataclass(frozen=True)
class Fig8Row:
    """One version's trajectory and plateau."""

    ms_per_byte: float
    converged_rate: float
    feasible_rate: float
    series: List[Tuple[float, float]]


def feasible_rate(ms_per_byte: float) -> float:
    """Highest sampling rate meeting the processing constraint."""
    capacity_bytes_per_s = 1000.0 / ms_per_byte
    return min(1.0, capacity_bytes_per_s / GENERATION_RATE)


def run_fig8(
    duration_seconds: float = 400.0,
    costs: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> List[Fig8Row]:
    """Run all five versions; each row carries the full time series."""
    costs = ANALYSIS_COSTS_MS_PER_BYTE if costs is None else costs
    rows = []
    for cost in costs:
        run = run_comp_steer(
            generation_rate_bytes=GENERATION_RATE,
            analysis_ms_per_byte=cost,
            initial_rate=INITIAL_RATE,
            duration_seconds=duration_seconds,
            seed=seed,
        )
        rows.append(
            Fig8Row(
                ms_per_byte=cost,
                converged_rate=run.converged_rate,
                feasible_rate=feasible_rate(cost),
                series=run.rate_series,
            )
        )
    return rows
