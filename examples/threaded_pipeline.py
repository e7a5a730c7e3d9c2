"""The same middleware on real threads (wall-clock runtime).

Runs the comp-steer sampler -> analysis pipeline with genuine
concurrency: stdlib threads, bounded queues, and the Section 4
adaptation algorithm ticking on wall-clock time.  This is the execution
mode closest to the paper's JVM deployment — including its scheduler
noise, which is why the figures are regenerated on the deterministic
simulated runtime instead.

Run: ``python examples/threaded_pipeline.py``  (takes ~6 wall seconds)
"""

from repro.apps.comp_steer import build_comp_steer_config
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, run
from repro.streams.sources import MeshStream


def main() -> None:
    # The analysis stage costs 1 ms per byte: 8-byte values at 700/s,
    # sampled at 0.2, arrive near its capacity, so the middleware keeps
    # moving the sampling rate around the rate it can sustain.
    config = build_comp_steer_config(
        "simulation", initial_rate=0.2, analysis_ms_per_byte=1.0, item_bytes=8.0
    )
    values = [float(p.value) for p in MeshStream(steps=60, mesh_points=64, seed=0)]
    source = SourceBinding("simulation", "sampler", values, rate=700.0, item_size=8.0)
    # Wall-clock pacing: ~6 seconds of real time.
    options = RunOptions(
        policy=AdaptationPolicy(sample_interval=0.1, adjust_every=2), timeout=60.0
    )

    print(f"streaming {len(values)} values at 700 items/s through real threads...")
    result = run(config, "threaded", options, [source])

    series = result.parameter_series("sampler", "sampling-rate")
    print(f"wall-clock execution time: {result.execution_time:.1f}s")
    print(f"sampling-rate adjustments: {len(series)}")
    if len(series):
        print(f"final sampling rate:       {series.last()[1]:.2f}")
    stats = result.final_value("analysis")
    print(f"analysis saw {stats['count']} sampled values, "
          f"{len(stats['detections'])} feature detections")


if __name__ == "__main__":
    main()
