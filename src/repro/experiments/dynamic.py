"""Extension experiment: re-convergence under dynamic resource changes.

The paper's second headline claim is that "self-adaptation can help choose
a balance between performance and accuracy, *even as resource availability
is varied widely*" — but its evaluation only varies resources *across*
runs.  This extension varies them *within* a run: the comp-steer link's
bandwidth is stepped through a schedule mid-experiment, and the measured
output is the sampling-rate trajectory, which should re-converge to each
new feasible rate.

Run: ``python -m repro.experiments.dynamic``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.apps import comp_steer as comp_steer_app
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, build
from repro.experiments.common import _continuous_mesh_values, build_star_fabric

__all__ = ["DynamicBandwidthResult", "main", "run_dynamic_bandwidth"]

#: Default schedule: (time, bandwidth) steps — a fat link degrades to a
#: quarter of the generation rate, then partially recovers.
DEFAULT_SCHEDULE: Sequence[Tuple[float, float]] = (
    (0.0, 40_000.0),
    (200.0, 10_000.0),
    (400.0, 20_000.0),
)
GENERATION_RATE = 40_000.0
ITEM_BYTES = 200.0


@dataclass
class DynamicBandwidthResult:
    """Trajectory plus the plateau measured in each schedule phase."""

    schedule: List[Tuple[float, float]]
    series: List[Tuple[float, float]]
    phase_plateaus: List[Tuple[float, float, float]]  # (bw, feasible, measured)


def run_dynamic_bandwidth(
    schedule: Optional[Sequence[Tuple[float, float]]] = None,
    duration_seconds: float = 600.0,
    generation_rate: float = GENERATION_RATE,
    seed: int = 0,
) -> DynamicBandwidthResult:
    """Run comp-steer while the link bandwidth follows ``schedule``."""
    schedule = list(DEFAULT_SCHEDULE if schedule is None else schedule)
    if not schedule or schedule[0][0] != 0.0:
        raise ValueError("schedule must start at time 0")
    times = [t for t, _ in schedule]
    if times != sorted(times):
        raise ValueError("schedule times must be increasing")
    if duration_seconds <= times[-1]:
        raise ValueError("duration must extend past the last schedule step")

    fabric = build_star_fabric(1, bandwidth=schedule[0][1])
    config = comp_steer_app.build_comp_steer_config(
        simulation_host=fabric.source_hosts[0],
        initial_rate=0.5,
        analysis_ms_per_byte=0.01,
        item_bytes=ITEM_BYTES,
        analysis_host=fabric.center_host,
    )
    source = SourceBinding(
        name="simulation", target_stage="sampler",
        payloads=_continuous_mesh_values(seed),
        rate=generation_rate / ITEM_BYTES, item_size=ITEM_BYTES,
    )
    built = build(config, "sim", RunOptions(stop_at=duration_seconds), [source], fabric=fabric)

    link = fabric.network.link(fabric.source_hosts[0], fabric.center_host)

    def _vary(env) -> Generator:
        for step_time, bandwidth in schedule[1:]:
            yield env.timeout(step_time - env.now)
            link.set_bandwidth(bandwidth)

    fabric.env.process(_vary(fabric.env), name="bandwidth-schedule")
    result = built.run()
    series = result.parameter_series("sampler", "sampling-rate")

    plateaus: List[Tuple[float, float, float]] = []
    boundaries = times[1:] + [duration_seconds]
    for (start, bandwidth), end in zip(schedule, boundaries):
        # Plateau = mean over the last third of the phase (settled part).
        window_start = start + 2.0 * (end - start) / 3.0
        values = [v for t, v in series if window_start <= t < end]
        measured = sum(values) / len(values) if values else float("nan")
        feasible = min(1.0, bandwidth / generation_rate)
        plateaus.append((bandwidth, feasible, measured))
    return DynamicBandwidthResult(
        schedule=schedule, series=list(series), phase_plateaus=plateaus
    )


def main() -> DynamicBandwidthResult:
    result = run_dynamic_bandwidth()
    print("Dynamic bandwidth: sampling-rate re-convergence per phase")
    print(f"{'bandwidth':>12} {'feasible':>9} {'measured':>9}")
    for bandwidth, feasible, measured in result.phase_plateaus:
        print(f"{bandwidth/1000:>10.0f}KB {feasible:>9.3f} {measured:>9.3f}")
    return result


if __name__ == "__main__":
    main()
