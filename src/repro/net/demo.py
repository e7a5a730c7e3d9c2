"""The networked demo: count-samps across three real OS processes.

This is the acceptance scenario for :mod:`repro.net` (and the body of
the ``repro netdemo`` CLI): the distributed count-samps application from
the paper's Section 5 deployed onto three local worker processes — one
filter per worker for two workers, the join on the third — with a
deliberately slowed join so the Section 4 loop observes a real overload
and ships exceptions back to the filters *over the wire*.

``SlowJoinStage`` is resolved by the workers through the repository's
``py://`` scheme, demonstrating that stage code outside the built-in
``repo://`` publications deploys the same way.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.apps.count_samps import JoinStage, build_distributed_config
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.api import CpuCostModel, StageContext
from repro.core.kernel import SourceBinding
from repro.core.options import stamp
from repro.core.results import RunResult
from repro.core.run import RunOptions, build
from repro.obs.registry import MetricsRegistry

__all__ = ["SlowJoinStage", "run_netdemo"]


class SlowJoinStage(JoinStage):
    """A JoinStage whose per-summary cost is set by a property.

    ``join-cost-ms`` (milliseconds per summary, default 2.0) makes the
    join the pipeline's bottleneck, so its inbox fills, the local load
    estimator's d̃ crosses the overload threshold, and exceptions travel
    upstream over the summary channels to the filter workers.
    """

    def setup(self, context: StageContext) -> None:
        super().setup(context)
        cost_ms = float(context.properties.get("join-cost-ms", "2.0"))
        self.cost_model = CpuCostModel(per_item=cost_ms / 1000.0)


def run_netdemo(
    workers: int = 3,
    items_per_source: int = 4000,
    batch: int = 40,
    top_n: int = 5,
    seed: int = 11,
    join_cost_ms: float = 2.0,
    timeout: float = 90.0,
    metrics: Optional[MetricsRegistry] = None,
    verify: bool = True,
) -> Tuple[RunResult, Dict[str, Any]]:
    """Run the 3-process demo; returns (result, summary-of-interesting-facts).

    The summary dict carries what the demo is meant to prove: the final
    top-n, the per-channel wire metrics, and how many adaptation
    exceptions crossed a process boundary.
    """
    if workers < 2:
        raise ValueError(f"the demo needs at least 2 workers, got {workers}")
    n_sources = max(1, workers - 1)
    worker_names = [f"worker-{i}" for i in range(workers)]
    config = build_distributed_config(
        n_sources=n_sources,
        source_hosts=worker_names[:n_sources],
        batch=batch,
        top_n=top_n,
        seed=seed,
    )
    join = config.stage("join")
    join.code_url = "py://repro.net.demo:SlowJoinStage"
    join.properties["join-cost-ms"] = repr(join_cost_ms)
    # A small inbox relative to the credit window: the wire can keep it
    # saturated, so the estimator sees a genuinely overloaded queue.
    stamp(join.properties, queue_capacity=16)

    rng = random.Random(seed)
    sources = [
        SourceBinding(
            f"src-{i}", f"filter-{i}",
            [rng.randrange(0, 50) for _ in range(items_per_source)], item_size=8.0,
        )
        for i in range(n_sources)
    ]
    options = RunOptions(
        workers=workers,
        policy=AdaptationPolicy().with_(sample_interval=0.05, adjust_every=2),
        credit_window=16,
        metrics=metrics,
        verify=verify,
        timeout=timeout,
    )
    built = build(config, "net", options, sources)
    result = built.run()
    runtime = built.runtime

    registry = runtime.metrics
    channels: Dict[str, Dict[str, float]] = {}
    for name in registry.names("net."):
        _, channel, metric = name.split(".", 2)
        if metric == "rtt":
            continue
        channels.setdefault(channel, {})[metric] = registry.value(name, 0.0)
    wire_exceptions = sum(
        stats.get("exceptions", 0.0) for stats in channels.values()
    )
    summary = {
        "placement": dict(runtime.placement),
        "topk": result.final_value("join"),
        "channels": channels,
        "wire_exceptions": wire_exceptions,
        "execution_time": result.execution_time,
    }
    return result, summary
