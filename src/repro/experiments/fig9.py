"""Figure 9: Self-adaptation for a network constraint (comp-steer).

Paper setup: after sampling, data crosses a 10 KB/s link; five versions
generate data (before sampling) at 5, 10, 20, 40, 80 KB/s; the sampling
factor starts at 0.01.  The figure plots the middleware-chosen sampling
factor over time for each version.

Reproduction target: convergence to the bandwidth-feasible rate
``min(1, 10 KB/s / generation_rate)`` — about 1, 1, 0.5, 0.25, 0.125.

Run: ``python -m repro fig9``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import run_comp_steer

__all__ = ["Fig9Row", "run_fig9", "GENERATION_RATES"]

#: The paper's five pre-sampling generation rates (bytes/second).
GENERATION_RATES: Sequence[float] = (5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0)
#: The constrained link (paper: 10 KB/s).
LINK_BANDWIDTH = 10_000.0
#: Initial sampling factor (paper: 0.01 for all versions).
INITIAL_RATE = 0.01
#: Wire bytes per generated value; coarser than Figure 8's 8 B so the
#: KB/s-scale streams stay laptop-fast without changing byte rates.
ITEM_BYTES = 200.0


@dataclass(frozen=True)
class Fig9Row:
    """One version's trajectory and plateau."""

    generation_rate: float
    converged_rate: float
    feasible_rate: float
    series: List[Tuple[float, float]]


def feasible_rate(generation_rate: float) -> float:
    """Highest sampling rate the 10 KB/s link can carry."""
    return min(1.0, LINK_BANDWIDTH / generation_rate)


def run_fig9(
    duration_seconds: float = 400.0,
    generation_rates: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> List[Fig9Row]:
    """Run all five versions; each row carries the full time series."""
    rates = GENERATION_RATES if generation_rates is None else generation_rates
    rows = []
    for rate in rates:
        run = run_comp_steer(
            generation_rate_bytes=rate,
            analysis_ms_per_byte=0.01,  # analysis is never the constraint
            link_bandwidth=LINK_BANDWIDTH,
            initial_rate=INITIAL_RATE,
            duration_seconds=duration_seconds,
            item_bytes=ITEM_BYTES,
            seed=seed,
        )
        rows.append(
            Fig9Row(
                generation_rate=rate,
                converged_rate=run.converged_rate,
                feasible_rate=feasible_rate(rate),
                series=run.rate_series,
            )
        )
    return rows
