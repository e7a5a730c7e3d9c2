"""Figures 6 and 7: Impact of self-adaptation across bandwidths.

Paper setup: the four-source count-samps star, five application versions —
fixed summary sizes k = 40, 80, 120, 160 plus the self-adapting version
(k free in [10, 240]) — across four link bandwidths: 1 KB/s, 10 KB/s,
100 KB/s, 1 MB/s.  Figure 6 plots execution time, Figure 7 accuracy.

Reproduction target (shape): small fixed k is fast everywhere but
inaccurate; large fixed k is accurate but slow at low bandwidth; the
self-adapting version avoids both extremes — never the worst accuracy,
never the worst execution time.

Run: ``python -m repro fig6-7``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.adaptation.policy import AdaptationPolicy
from repro.experiments.common import run_count_samps_distributed

__all__ = ["Fig67Row", "run_fig6_7", "BANDWIDTHS", "FIXED_SIZES", "SEEDS"]

#: The paper's four networking configurations (bytes/second).
BANDWIDTHS: Sequence[float] = (1_000.0, 10_000.0, 100_000.0, 1_000_000.0)
#: The paper's four fixed summary sizes.
FIXED_SIZES: Sequence[float] = (40.0, 80.0, 120.0, 160.0)
#: Seeds each cell averages over by default: the digested runs and the
#: tables in EXPERIMENTS.md.
SEEDS: Sequence[int] = (0, 1)
#: The self-adapting version's range (paper: "any value between 10 and 240").
ADAPTIVE_MIN, ADAPTIVE_MAX = 10.0, 240.0
#: Feeding rate (items/s per source): fast enough that computation is not
#: the bottleneck, finite so the link constraint is observable.
SOURCE_RATE = 2_000.0
#: Workload shape: a large universe with mild skew makes the query
#: genuinely sensitive to the summary size k (with a small universe or a
#: heavy skew, even tiny summaries capture the top-10 and Figure 7's
#: accuracy axis flattens out).
UNIVERSE = 5_000
SKEW = 1.1


@dataclass(frozen=True)
class Fig67Row:
    """One (version, bandwidth) cell of Figures 6 and 7."""

    version: str
    bandwidth: float
    execution_time: float  # Figure 6's y-axis
    accuracy: float        # Figure 7's y-axis
    final_k: float


def _one_run(
    version: str,
    bandwidth: float,
    items_per_source: int,
    seed: int,
    policy: Optional[AdaptationPolicy] = None,
):
    if version == "adaptive":
        return run_count_samps_distributed(
            bandwidth=bandwidth,
            sample_size=100.0,
            adaptive=True,
            sample_size_min=ADAPTIVE_MIN,
            sample_size_max=ADAPTIVE_MAX,
            items_per_source=items_per_source,
            source_rate=SOURCE_RATE,
            universe=UNIVERSE,
            skew=SKEW,
            seed=seed,
            policy=policy,
        )
    return run_count_samps_distributed(
        bandwidth=bandwidth,
        sample_size=float(version),
        adaptive=False,
        items_per_source=items_per_source,
        source_rate=SOURCE_RATE,
        universe=UNIVERSE,
        skew=SKEW,
        seed=seed,
    )


def _one_cell(
    version: str,
    bandwidth: float,
    items_per_source: int,
    seeds: Sequence[int],
    policy: Optional[AdaptationPolicy] = None,
) -> Fig67Row:
    """One (version, bandwidth) cell, averaged over seeds.

    The counting sample is randomized, so single runs are noisy on the
    accuracy axis; the paper's table reports *average* accuracy, and so
    do we.
    """
    runs = [
        _one_run(version, bandwidth, items_per_source, s, policy=policy)
        for s in seeds
    ]
    series = runs[0].result.stage("filter-0").parameter_history.get("sample-size")
    final_k = series.last()[1] if series is not None and len(series) else float(
        version if version != "adaptive" else 100
    )
    return Fig67Row(
        version=version,
        bandwidth=bandwidth,
        execution_time=sum(r.execution_time for r in runs) / len(runs),
        accuracy=sum(r.accuracy for r in runs) / len(runs),
        final_k=final_k,
    )


def run_fig6_7(
    items_per_source: int = 25_000,
    bandwidths: Optional[Sequence[float]] = None,
    seeds: Sequence[int] = SEEDS,
    policy: Optional[AdaptationPolicy] = None,
) -> List[Fig67Row]:
    """All five versions across all bandwidths, seed-averaged.

    ``policy`` overrides the adaptation constants — reduced-scale callers
    shrink ``sample_interval`` so the adaptive version still gets a full
    convergence arc within a shorter workload.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    bandwidths = BANDWIDTHS if bandwidths is None else bandwidths
    versions = [str(int(k)) for k in FIXED_SIZES] + ["adaptive"]
    return [
        _one_cell(version, bandwidth, items_per_source, seeds, policy=policy)
        for bandwidth in bandwidths
        for version in versions
    ]
