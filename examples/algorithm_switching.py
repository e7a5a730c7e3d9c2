"""Algorithm-choice adaptation: the middleware picks the algorithm.

Section 1 lists three things GATES may adjust: the sampling rate, the
summary-structure size, "and/or the choice of the algorithm to be used".
This example runs the count-samps pipeline with a filter stage whose
adjustment parameter is a rung on an *algorithm ladder*:

    0  Misra-Gries @ k/4      cheapest, coarsest
    1  Misra-Gries @ k
    2  Space-Saving @ k
    3  Counting Samples @ 2k  most expensive, most accurate

and shows the middleware climbing the ladder on a fat link and descending
it on a starved one — the same Section 4 controller in both cases.

Run: ``python examples/algorithm_switching.py``
"""

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, run
from repro.experiments.common import build_star_fabric
from repro.grid.config import AppConfig, ParameterConfig, StageConfig, StreamConfig
from repro.grid.resources import ResourceRequirement
from repro.streams.sources import IntegerStream


def run_at(bandwidth: float):
    fabric = build_star_fabric(1, bandwidth=bandwidth)
    config = AppConfig(
        name="algo-demo",
        stages=[
            StageConfig(
                "ladder-filter",
                "repo://count-samps/algo-filter",
                requirement=ResourceRequirement(placement_hint="near:source-0"),
                parameters=[
                    ParameterConfig("algorithm-level", 1.0, 0.0, 3.0, 1.0, -1)
                ],
                properties={"base-capacity": "50", "batch": "200"},
            ),
            StageConfig("join", "repo://count-samps/join"),
        ],
        streams=[StreamConfig("summaries", "ladder-filter", "join", item_size=12.0)],
    )
    stream = IntegerStream(20_000, universe=500, seed=5)
    source = SourceBinding("ints", "ladder-filter", list(stream), rate=2_000.0, item_size=8.0)
    options = RunOptions(policy=AdaptationPolicy(sample_interval=0.1))
    return run(config, "sim", options, [source], fabric=fabric)


def main() -> None:
    for label, bandwidth in (("fat link (1 MB/s)", 1_000_000.0),
                             ("starved link (200 B/s)", 200.0)):
        result = run_at(bandwidth)
        info = result.final_value("ladder-filter")
        series = result.parameter_series("ladder-filter", "algorithm-level")
        trajectory = " -> ".join(f"{v:.0f}" for v in series.downsample(8).values)
        print(f"{label}:")
        print(f"  level trajectory: {trajectory}")
        print(f"  final algorithm:  {info['algorithm']} (level {info['final_level']}, "
              f"{info['switches']} switches)")
        print(f"  top-3 answer:     {[v for v, _ in result.final_value('join')[:3]]}")
        print()


if __name__ == "__main__":
    main()
