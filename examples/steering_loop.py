"""A closed computational-steering loop on the GATES middleware.

Section 2's motivating scenario, end to end: a running simulation streams
mesh values through a middleware-sampled pipeline to a remote analysis
machine; a steering client watches the live analysis and *steers the
simulation* — here, raising the mesh resolution once a feature is
detected ("if we detect certain features at a part of a grid, we may want
to increase the resolution for that part of the grid").

The loop interacts with self-adaptation exactly as the paper intends:
steering up the resolution multiplies the data rate; the middleware then
lowers the sampling fraction to keep the analysis within its real-time
constraint.

Run: ``python examples/steering_loop.py``
"""

from repro.apps.comp_steer import build_comp_steer_config
from repro.core.queries import ContinuousQuery
from repro.core.kernel import SourceBinding
from repro.core.run import RunOptions, build
from repro.experiments.common import build_star_fabric
from repro.streams.sources import MeshStream


class SteerableSimulation:
    """A mesh simulation whose resolution a steering client can change."""

    def __init__(self, base_rate: float = 64.0, seed: int = 0):
        self.rate = base_rate          # mesh values emitted per second
        self.resolution_boosts = 0
        self._mesh = MeshStream(steps=10_000, mesh_points=64,
                                feature_step=40, seed=seed)

    def payloads(self):
        step = 0
        while True:
            frame = self._mesh.frame(step % self._mesh.steps)
            for value in frame:
                yield float(value)
            step += 1

    def gaps(self):
        """ArrivalProcess protocol: gap before each value (reads .rate live)."""
        while True:
            yield 1.0 / self.rate

    def mean_rate(self):
        return self.rate

    def boost_resolution(self, factor: float = 3.0):
        self.rate *= factor
        self.resolution_boosts += 1


def main() -> None:
    fabric = build_star_fabric(1, bandwidth=1_000_000.0)
    config = build_comp_steer_config(
        fabric.source_hosts[0],
        initial_rate=1.0,
        analysis_ms_per_byte=2.0,       # 500 B/s of analysis capacity
        feature_threshold=1.5,
        analysis_host=fabric.center_host,
    )
    simulation = SteerableSimulation(base_rate=32.0)   # 256 B/s initially
    source = SourceBinding("simulation", "sampler", simulation.payloads(),
                           arrivals=simulation, item_size=8.0)
    built = build(config, "sim", RunOptions(stop_at=400.0), [source], fabric=fabric)

    # The steering client: poll the live analysis; on the first feature
    # detection, boost the simulation's resolution.
    query = ContinuousQuery(built.runtime, "analysis", interval=2.0)
    query.attach()

    def steering_client(env):
        while True:
            yield env.timeout(2.0)
            if query.answers and query.latest()["detections"]:
                if simulation.resolution_boosts == 0:
                    t = env.now
                    simulation.boost_resolution(3.0)
                    print(f"t={t:6.1f}s  feature detected -> resolution x3 "
                          f"(now {simulation.rate:.0f} values/s)")

    fabric.env.process(steering_client(fabric.env), name="steering-client")
    result = built.run()

    series = result.parameter_series("sampler", "sampling-rate")
    before = [v for t, v in series if t < 50.0]
    after = series.tail(0.25)
    analysis = result.final_value("analysis")
    print(f"\nsimulation resolution boosts: {simulation.resolution_boosts}")
    print(f"feature detections at the analysis stage: {len(analysis['detections'])}")
    print(f"sampling rate before steering: ~{sum(before)/len(before):.2f}")
    print(f"sampling rate after steering:  ~{sum(after)/len(after):.2f}")
    print("\nthe middleware lowered the sampling fraction to absorb the "
          "3x data-rate increase the steering client requested")
    assert simulation.resolution_boosts == 1
    assert sum(after) / len(after) < sum(before) / len(before)


if __name__ == "__main__":
    main()
