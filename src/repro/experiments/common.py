"""Shared application runners for the experiments.

The paper's testbed is a star: N stream-source machines around one central
analysis machine, links emulated at a configurable bandwidth
(:func:`~repro.grid.fabric.build_star_fabric`, re-exported here).
:func:`run_count_samps_distributed` / :func:`run_count_samps_centralized` /
:func:`run_comp_steer` execute one configured run on it and return the
measured quantities the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps import comp_steer as comp_steer_app
from repro.apps import count_samps as count_samps_app
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.kernel import SourceBinding
from repro.core.results import RunResult
from repro.core.run import RunOptions, run
from repro.grid.config import AppConfig
from repro.grid.fabric import GridFabric, build_star_fabric
from repro.metrics.accuracy import topk_accuracy
from repro.streams.sources import IntegerStream, MeshStream

__all__ = [
    "CountSampsRun",
    "GridFabric",
    "build_star_fabric",
    "run_comp_steer",
    "run_count_samps_centralized",
    "run_count_samps_distributed",
]


@dataclass
class CountSampsRun:
    """Measured outcome of one count-samps run."""

    execution_time: float
    accuracy: float
    reported: List[Tuple[int, float]]
    truth: List[Tuple[int, int]]
    bytes_to_center: float
    result: RunResult


def _make_substreams(
    n_sources: int, items_per_source: int, universe: int, skew: float, seed: int
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Per-source integer sub-streams plus the global ground truth."""
    streams = [
        IntegerStream(
            items_per_source, universe=universe, skew=skew, seed=seed + i
        )
        for i in range(n_sources)
    ]
    from collections import Counter

    global_counts: Counter = Counter()
    for stream in streams:
        global_counts.update(stream.exact_counts())
    truth = sorted(global_counts.items(), key=lambda vc: (-vc[1], vc[0]))
    return [list(s) for s in streams], truth


def run_count_samps_distributed(
    n_sources: int = 4,
    items_per_source: int = 25_000,
    bandwidth: float = 100_000.0,
    sample_size: float = 100.0,
    adaptive: bool = False,
    sample_size_min: float = 10.0,
    sample_size_max: float = 240.0,
    batch: int = 500,
    top_n: int = 10,
    source_rate: Optional[float] = None,
    universe: int = 2000,
    skew: float = 1.3,
    seed: int = 0,
    sketch: str = "counting-samples",
    policy: Optional[AdaptationPolicy] = None,
    trace_every: Optional[int] = None,
) -> CountSampsRun:
    """One distributed count-samps run (Figure 5 row 2 / Figures 6-7).

    ``adaptive=False`` freezes k at ``sample_size`` (the fixed versions of
    Figure 6/7); ``adaptive=True`` lets the middleware pick k in
    [sample_size_min, sample_size_max].  ``trace_every=N`` hop-traces
    every N-th arrival (see :mod:`repro.obs`) so the run's latency can be
    decomposed with ``repro report``.
    """
    fabric = build_star_fabric(n_sources, bandwidth)
    low, high = (sample_size_min, sample_size_max) if adaptive else (sample_size, sample_size)
    config = count_samps_app.build_distributed_config(
        n_sources, fabric.source_hosts,
        sample_size=sample_size, sample_size_min=low, sample_size_max=high,
        batch=batch, top_n=top_n, sketch=sketch, seed=seed,
    )
    return _count_samps_run(
        fabric, config, "filter", "join",
        RunOptions(policy=policy, adaptation_enabled=adaptive, trace_every=trace_every),
        items_per_source, universe, skew, seed, top_n, source_rate,
    )


def run_count_samps_centralized(
    n_sources: int = 4,
    items_per_source: int = 25_000,
    bandwidth: float = 100_000.0,
    top_n: int = 10,
    source_rate: Optional[float] = None,
    universe: int = 2000,
    skew: float = 1.3,
    seed: int = 0,
    sketch_capacity: int = 1000,
    trace_every: Optional[int] = None,
) -> CountSampsRun:
    """One centralized count-samps run (Figure 5 row 1).

    ``sketch_capacity`` is below the value universe by default so the
    central one-pass algorithm stays genuinely approximate — the paper's
    centralized version scores 0.99, not 1.0, for the same reason.
    """
    fabric = build_star_fabric(n_sources, bandwidth)
    config = count_samps_app.build_centralized_config(
        n_sources, fabric.source_hosts, top_n=top_n, seed=seed,
        sketch_capacity=sketch_capacity,
    )
    return _count_samps_run(
        fabric, config, "relay", "central",
        RunOptions(adaptation_enabled=False, trace_every=trace_every),
        items_per_source, universe, skew, seed, top_n, source_rate,
    )


def _count_samps_run(
    fabric: GridFabric, config: AppConfig, entry: str, sink: str, options: RunOptions,
    items_per_source: int, universe: int, skew: float, seed: int, top_n: int,
    source_rate: Optional[float],
) -> CountSampsRun:
    """Run ``config`` on ``fabric``, feed sub-stream i into stage
    ``{entry}-{i}``, and score ``sink``'s top-``top_n`` answer."""
    substreams, truth = _make_substreams(
        len(fabric.source_hosts), items_per_source, universe, skew, seed
    )
    sources = [
        SourceBinding(
            name=f"stream-{i}", target_stage=f"{entry}-{i}", payloads=payloads,
            rate=source_rate, item_size=count_samps_app.RAW_INT_BYTES,
        )
        for i, payloads in enumerate(substreams)
    ]
    result = run(config, "sim", options, sources, fabric=fabric)
    reported = result.final_value(sink)
    return CountSampsRun(
        execution_time=result.execution_time,
        accuracy=topk_accuracy(reported, truth, k=top_n),
        reported=reported,
        truth=truth[:top_n],
        bytes_to_center=result.stage(sink).bytes_in,
        result=result,
    )


@dataclass
class CompSteerRun:
    """Measured outcome of one comp-steer run."""

    execution_time: float
    converged_rate: float
    rate_series: List[Tuple[float, float]]
    effective_rate: float
    result: RunResult


def _continuous_mesh_values(seed: int):
    """An endless stream of mesh values (continuous-simulation mode)."""
    mesh = MeshStream(steps=64, mesh_points=64, seed=seed)
    step = 0
    while True:
        frame = mesh.frame(step % mesh.steps)
        for value in frame:
            yield float(value)
        step += 1


def run_comp_steer(
    generation_rate_bytes: float = 160.0,
    analysis_ms_per_byte: float = 1.0,
    link_bandwidth: float = 1_000_000.0,
    initial_rate: float = 0.13,
    duration_seconds: float = 400.0,
    item_bytes: float = 8.0,
    seed: int = 0,
    policy: Optional[AdaptationPolicy] = None,
    trace_every: Optional[int] = None,
) -> CompSteerRun:
    """One comp-steer run (Figures 8 and 9).

    The simulation generates continuously for ``duration_seconds`` of
    simulated time at ``generation_rate_bytes`` bytes/s (Figure 8 fixes
    160 B/s and sweeps the analysis cost; Figure 9 sweeps the generation
    rate against a 10 KB/s link).  The run stops at the time horizon —
    the measured output is the sampling-rate trajectory, matching the
    paper's time-series plots.
    """
    if generation_rate_bytes <= 0:
        raise ValueError(
            f"generation rate must be > 0, got {generation_rate_bytes}"
        )
    if duration_seconds <= 0:
        raise ValueError(f"duration must be > 0, got {duration_seconds}")
    fabric = build_star_fabric(1, bandwidth=link_bandwidth)
    config = comp_steer_app.build_comp_steer_config(
        simulation_host=fabric.source_hosts[0],
        initial_rate=initial_rate,
        analysis_ms_per_byte=analysis_ms_per_byte,
        item_bytes=item_bytes,
        analysis_host=fabric.center_host,
    )
    source = SourceBinding(
        name="simulation", target_stage="sampler",
        payloads=_continuous_mesh_values(seed),
        rate=generation_rate_bytes / item_bytes, item_size=item_bytes,
    )
    result = run(
        config, "sim", RunOptions(policy=policy, trace_every=trace_every, stop_at=duration_seconds),
        [source], fabric=fabric,
    )
    series = result.parameter_series("sampler", "sampling-rate")
    sampler_stats = result.final_value("sampler")
    return CompSteerRun(
        execution_time=result.execution_time,
        converged_rate=series.tail_mean(0.25),
        rate_series=list(series),
        effective_rate=sampler_stats["effective_rate"],
        result=result,
    )
