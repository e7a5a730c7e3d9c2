"""Figure 5 (table): Benefits of distributed processing.

Paper setup: four streams of 25,000 integers on four machines, star-linked
to a central machine at 100 KB/s; query = "top 10 most frequent integers
and their frequency".  Centralized version forwards everything; the
distributed version forwards the 100 most frequent items per source.

Paper numbers: centralized 257.5 s / 0.99 accuracy; distributed 180.8 s /
0.97 accuracy.  The reproduction target is the *shape*: distributed is
faster with a small accuracy loss.

Run: ``python -m repro fig5``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import (
    run_count_samps_centralized,
    run_count_samps_distributed,
)

__all__ = ["Fig5Row", "run_fig5"]

BANDWIDTH = 100_000.0  # 100 KB/s
SUMMARY_SIZE = 100.0   # items forwarded per source in the distributed version


@dataclass(frozen=True)
class Fig5Row:
    """One row of the Figure 5 table."""

    processing_style: str
    execution_time: float
    accuracy: float
    bytes_to_center: float


def run_fig5(
    items_per_source: int = 25_000,
    n_sources: int = 4,
    seeds: tuple = (0, 1, 2),
) -> List[Fig5Row]:
    """Execute both versions (seed-averaged, like the paper's "Avg" columns)."""
    if not seeds:
        raise ValueError("need at least one seed")
    centralized = [
        run_count_samps_centralized(
            n_sources=n_sources,
            items_per_source=items_per_source,
            bandwidth=BANDWIDTH,
            seed=s,
        )
        for s in seeds
    ]
    distributed = [
        run_count_samps_distributed(
            n_sources=n_sources,
            items_per_source=items_per_source,
            bandwidth=BANDWIDTH,
            sample_size=SUMMARY_SIZE,
            adaptive=False,
            seed=s,
        )
        for s in seeds
    ]

    def _mean(runs, attr):
        return sum(getattr(r, attr) for r in runs) / len(runs)

    return [
        Fig5Row(
            "Centralized",
            _mean(centralized, "execution_time"),
            _mean(centralized, "accuracy"),
            _mean(centralized, "bytes_to_center"),
        ),
        Fig5Row(
            "Distributed",
            _mean(distributed, "execution_time"),
            _mean(distributed, "accuracy"),
            _mean(distributed, "bytes_to_center"),
        ),
    ]
