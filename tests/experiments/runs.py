"""The simulated runs behind EXPERIMENTS.md, each computed once, and their rows.

Every entry of :data:`RUN_SETS` runs one figure (or one ablation or
extension) at the scale EXPERIMENTS.md reports and returns its *rows*:
the numbers the claims in :mod:`tests.experiments.claims` and the
document's tables read (plateaus, first values, times to a band, phase
means), never whole trajectories.  ``python -m tests.core.test_sim_golden
--experiments`` hashes every run's export as it returns and checks the
rows' claims.

An ablation's default arm *is* the figure run it ablates, so it is not
run again: the φ₂, weights, σ and exceptions ablations vary one constant
of Fig 8's 20 ms/byte run (whose rows are ``fig8/20``), and the sketch
ablation's counting-samples arm is Fig 5's distributed version (rows
``fig5/distributed``).  The extensions keep their own setups.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.count_samps import build_distributed_config, build_hierarchical_config
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.queries import ContinuousQuery
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.experiments import fig5 as fig5_module
from repro.experiments import fig8 as fig8_module
from repro.experiments.common import (
    _make_substreams,
    build_star_fabric,
    run_comp_steer,
    run_count_samps_centralized,
    run_count_samps_distributed,
)
from repro.experiments.dynamic import run_dynamic_bandwidth
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6_7 import SEEDS as FIG67_SEEDS
from repro.experiments.fig6_7 import run_fig6_7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.metrics import topk_accuracy

Rows = Dict[str, object]

#: The cost every comp-steer ablation runs at (feasible rate 0.3125).
ABLATION_COST = 20.0
#: Half-width of the band around the feasible rate a plateau must enter.
BAND = 0.1
#: The sketch ablation's other arms (counting-samples is Fig 5's run).
SKETCHES = ("misra-gries", "space-saving", "lossy-counting")
WEIGHT_ARMS: Dict[str, AdaptationPolicy] = {
    "lifetime-only": AdaptationPolicy(p1=1.0, p2=0.0, p3=0.0),
    "recent-only": AdaptationPolicy(p1=0.0, p2=0.0, p3=1.0),
    "alpha=0.95": AdaptationPolicy(alpha=0.95),
    "alpha=0.3": AdaptationPolicy(alpha=0.3),
}
SCALING_SOURCES = (2, 4, 8, 16)


def time_to_band(
    series: Sequence[Tuple[float, float]], target: float, band: float = BAND
) -> Optional[float]:
    """First time the trajectory enters ``[target - band, target + band]``."""
    for time, value in series:
        if abs(value - target) <= band:
            return time
    return None


def _plateau(converged: float, feasible: float, series) -> Rows:
    return {
        "converged": converged,
        "feasible": feasible,
        "first": series[0][1],
        "time_to_band": time_to_band(series, feasible),
    }


def _fig5() -> Rows:
    return {
        row.processing_style.lower(): {
            "execution_time": row.execution_time,
            "accuracy": row.accuracy,
            "bytes_to_center": row.bytes_to_center,
        }
        for row in run_fig5()
    }


def _fig6_7() -> Rows:
    rows: Dict[str, Dict[str, Rows]] = {}
    for row in run_fig6_7(seeds=FIG67_SEEDS):
        rows.setdefault(str(int(row.bandwidth)), {})[row.version] = {
            "execution_time": row.execution_time,
            "accuracy": row.accuracy,
            "final_k": row.final_k,
        }
    return rows


def _fig8() -> Rows:
    return {
        f"{row.ms_per_byte:g}": _plateau(row.converged_rate, row.feasible_rate, row.series)
        for row in run_fig8()
    }


def _fig9() -> Rows:
    return {
        str(int(row.generation_rate)): _plateau(
            row.converged_rate, row.feasible_rate, row.series
        )
        for row in run_fig9()
    }


def _dynamic() -> Rows:
    return {
        str(int(bandwidth)): {"feasible": feasible, "measured": measured}
        for bandwidth, feasible, measured in run_dynamic_bandwidth().phase_plateaus
    }


def _fig8_arm(policy: AdaptationPolicy) -> Rows:
    """Fig 8's 20 ms/byte run with one adaptation constant changed."""
    run = run_comp_steer(
        generation_rate_bytes=fig8_module.GENERATION_RATE,
        analysis_ms_per_byte=ABLATION_COST,
        initial_rate=fig8_module.INITIAL_RATE,
        duration_seconds=400.0,
        seed=0,
        policy=policy,
    )
    return _plateau(
        run.converged_rate, fig8_module.feasible_rate(ABLATION_COST), run.rate_series
    )


def _sketch_arm(kind: str) -> Rows:
    """Fig 5's distributed version with another summary, seed-averaged."""
    runs = [
        run_count_samps_distributed(
            items_per_source=25_000, bandwidth=fig5_module.BANDWIDTH,
            sample_size=fig5_module.SUMMARY_SIZE, adaptive=False, seed=seed,
            sketch=kind,
        )
        for seed in (0, 1, 2)
    ]
    return {
        attr: sum(getattr(run, attr) for run in runs) / len(runs)
        for attr in ("execution_time", "accuracy", "bytes_to_center")
    }


def _hierarchy_arm(builder: Callable) -> Rows:
    """Eight sources, 6,000 integers each, through flat or tiered merges."""
    fabric = build_star_fabric(8, bandwidth=100_000.0)
    deployment = fabric.launcher.launch(builder(8, fabric.source_hosts))
    runtime = SimulatedRuntime(
        fabric.env, fabric.network, deployment, adaptation_enabled=False
    )
    streams, truth = _make_substreams(8, 6_000, universe=2000, skew=1.3, seed=40)
    for i, payloads in enumerate(streams):
        runtime.bind_source(
            SourceBinding(f"s{i}", f"filter-{i}", payloads, rate=2_000.0, item_size=8.0)
        )
    result = runtime.run()
    join = result.stage("join")
    return {
        "accuracy": topk_accuracy(result.final_value("join"), truth, k=10),
        "join_items_in": join.items_in,
        "join_bytes_in": join.bytes_in,
        "execution_time": result.execution_time,
    }


def _hierarchy() -> Rows:
    return {
        "flat": _hierarchy_arm(
            lambda n, hosts: build_distributed_config(n, hosts, batch=400)
        ),
        "hierarchical": _hierarchy_arm(
            lambda n, hosts: build_hierarchical_config(n, hosts, fan_in=2, batch=400)
        ),
    }


def _query() -> Rows:
    """A top-10 query polled every 0.25 s on four 10,000-integer sources."""
    fabric = build_star_fabric(4, bandwidth=100_000.0)
    deployment = fabric.launcher.launch(
        build_distributed_config(4, fabric.source_hosts, batch=400)
    )
    runtime = SimulatedRuntime(
        fabric.env, fabric.network, deployment, adaptation_enabled=False
    )
    streams, truth = _make_substreams(4, 10_000, universe=1500, skew=1.3, seed=70)
    for i, payloads in enumerate(streams):
        runtime.bind_source(SourceBinding(f"s{i}", f"filter-{i}", payloads, rate=2_000.0))
    query = ContinuousQuery(
        runtime, "join", interval=0.25,
        score=lambda answer: topk_accuracy(answer, truth, k=10) if answer else 0.0,
    )
    query.attach()
    result = runtime.run()
    quality: List[float] = list(query.quality.values)
    quarter = max(1, len(quality) // 4)
    return {
        "polls": len(query.answers),
        "time_to_half": query.time_to_quality(0.5),
        "final_quality": quality[-1],
        "first_quarter_quality": sum(quality[:quarter]) / quarter,
        "last_quarter_quality": sum(quality[-quarter:]) / quarter,
        "execution_time": result.execution_time,
    }


def _scaling() -> Rows:
    """Centralized vs distributed at 2-16 sources, 6,000 integers each."""
    rows: Dict[str, Rows] = {}
    for n in SCALING_SOURCES:
        centralized = run_count_samps_centralized(
            n_sources=n, items_per_source=6_000, bandwidth=100_000.0, seed=5
        )
        distributed = run_count_samps_distributed(
            n_sources=n, items_per_source=6_000, bandwidth=100_000.0,
            sample_size=100.0, seed=5,
        )
        rows[str(n)] = {
            "centralized_time": centralized.execution_time,
            "distributed_time": distributed.execution_time,
            "speedup": centralized.execution_time / distributed.execution_time,
            "accuracy_cost": centralized.accuracy - distributed.accuracy,
        }
    return rows


#: Run-set name -> the function that runs it and returns its rows.  The
#: name prefixes each run's digest key (``fig8/04``) and its rows.
RUN_SETS: Dict[str, Callable[[], Rows]] = {
    "fig5": _fig5,
    "fig6_7": _fig6_7,
    "fig8": _fig8,
    "fig9": _fig9,
    "dynamic": _dynamic,
    "ablation-phi2": lambda: {"linear": _fig8_arm(AdaptationPolicy(phi2_form="linear"))},
    "ablation-weights": lambda: {
        name: _fig8_arm(policy) for name, policy in WEIGHT_ARMS.items()
    },
    "ablation-sigma": lambda: {"off": _fig8_arm(AdaptationPolicy(sigma_variability=0.0))},
    "ablation-exceptions": lambda: {
        "off": _fig8_arm(AdaptationPolicy(exceptions_enabled=False))
    },
    "ablation-sketches": lambda: {kind: _sketch_arm(kind) for kind in SKETCHES},
    "ext-hierarchy": _hierarchy,
    "ext-query": _query,
    "ext-scaling": _scaling,
}
