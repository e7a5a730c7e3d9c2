"""The chaos demo behind ``repro chaos``.

A two-stage pipeline (``work`` on an edge host, ``sink`` on the central
host, a spare host standing by) run under injected faults: a mid-run
crash of the edge host with heartbeat-driven live failover to the spare,
optionally lossy links (exercising transmission retries) and poison
items (exercising the error policy).  It is deliberately the smallest
scenario that shows every fault-tolerance mechanism at once, and the
summary it returns reconciles the books: every item fed is either in the
sink, a counted duplicate, or a counted quarantine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core.api import StageContext, StreamProcessor
from repro.core.results import RunResult
from repro.resilience.policy import ResilienceConfig

if TYPE_CHECKING:
    from repro.core.kernel import SourceBinding
    from repro.grid.config import AppConfig
    from repro.grid.fabric import GridFabric

__all__ = ["run_chaos_demo", "run_migrate_demo"]


class _ChaosWork(StreamProcessor):
    """Doubles each payload; raises on poison markers; checkpointable."""

    def __init__(self, poison_every: Optional[int] = None) -> None:
        from repro.simnet.hosts import CpuCostModel

        self.cost_model = CpuCostModel(per_item=0.01)
        self.poison_every = poison_every
        self.count = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        if (
            self.poison_every is not None
            and payload % self.poison_every == 0
            and payload > 0
        ):
            raise ValueError(f"poison payload {payload}")
        self.count += 1
        context.emit(payload * 2, size=8.0)

    def snapshot(self) -> Any:
        return {"count": self.count}

    def restore(self, state: Any) -> None:
        self.count = int(state["count"])

    def result(self) -> Any:
        return self.count


class _ChaosSink(StreamProcessor):
    """Collects everything; checkpointable so replay keeps it honest."""

    def __init__(self) -> None:
        self.items: list = []

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.items.append(payload)

    def snapshot(self) -> Any:
        return {"items": list(self.items)}

    def restore(self, state: Any) -> None:
        self.items = list(state["items"])

    def result(self) -> Any:
        return list(self.items)


def _fabric(name: str, cores: int, work: Callable[[], StreamProcessor]) -> "GridFabric":
    """The three-host topology: ``edge`` and a ``spare`` around
    ``central``, 10 KB/s links, and the scenario's two stage codes
    published under ``repo://{name}/``."""
    from repro.grid.fabric import star_fabric

    fabric = star_fabric(
        ["edge", "spare"], bandwidth=10_000.0, latency=0.01, leaf_cores=cores, center_cores=cores
    )
    fabric.repository.publish(f"repo://{name}/work", work)
    fabric.repository.publish(f"repo://{name}/sink", _ChaosSink)
    return fabric


def _config(name: str) -> "AppConfig":
    """``work`` pinned to the edge host, ``sink`` to the central one."""
    from repro.grid.config import AppConfig, StageConfig, StreamConfig
    from repro.grid.resources import ResourceRequirement

    return AppConfig(
        name=name,
        stages=[
            StageConfig(
                "work", f"repo://{name}/work",
                requirement=ResourceRequirement(placement_hint="edge"),
            ),
            StageConfig(
                "sink", f"repo://{name}/sink",
                requirement=ResourceRequirement(placement_hint="central"),
            ),
        ],
        streams=[StreamConfig("doubled", "work", "sink")],
    )


def _feed(items: int, rate: float) -> "SourceBinding":
    from repro.core.kernel import SourceBinding

    return SourceBinding("feed", "work", payloads=list(range(items)), rate=rate)


def run_chaos_demo(
    items: int = 500,
    fail_at: Optional[float] = 1.0,
    checkpoint_interval: float = 0.5,
    loss: float = 0.0,
    policy: str = "dead-letter",
    poison_every: Optional[int] = None,
    rate: float = 100.0,
) -> Tuple[RunResult, Dict[str, Any]]:
    """Run the chaos pipeline; returns ``(result, summary)``.

    Parameters
    ----------
    items:
        Integers fed to the ``work`` stage.
    fail_at:
        Simulated second at which the edge host crash-stops (``None``
        disables the crash; the spare then just idles).
    checkpoint_interval:
        Simulated seconds between stage checkpoints.
    loss:
        Transmission-failure probability per link send (0 disables).
    policy:
        Error policy (``fail`` / ``skip`` / ``dead-letter``) for poison
        items and exhausted transmission retries.
    poison_every:
        Every payload divisible by this (and > 0) makes ``work`` raise.
    rate:
        Source rate in items per simulated second.
    """
    from repro.core.run import RunOptions, build
    from repro.grid.faults import FaultInjector, FaultPlan, Redeployer
    from repro.grid.heartbeat import HeartbeatDetector
    from repro.resilience.failover import FailoverCoordinator

    fabric = _fabric("chaos", cores=2, work=lambda: _ChaosWork(poison_every))
    env, net = fabric.env, fabric.network
    if loss > 0:
        for a, b in (("edge", "central"), ("spare", "central")):
            net.link(a, b).set_loss(loss, seed=7)
    resilience = ResilienceConfig(
        checkpoint_interval=checkpoint_interval,
        error_policy=policy,
        max_retries=5,
    )
    built = build(
        _config("chaos"), "sim", RunOptions(adaptation_enabled=False, resilience=resilience),
        [_feed(items, rate)], fabric=fabric,
    )
    runtime = built.runtime

    coordinator = None
    if fail_at is not None:
        FaultInjector(env, net).schedule(FaultPlan("edge", fail_at=fail_at))
        detector = HeartbeatDetector(env, net, interval=0.2, timeout=0.6)
        coordinator = FailoverCoordinator(runtime, detector, Redeployer(fabric.deployer))
        coordinator.arm()
        detector.start()

    result = built.run()

    metrics = result.metrics
    sink_items = result.final_value("sink")
    latency_hist = (
        metrics.get("recovery.work.latency")
        if "recovery.work.latency" in metrics
        else None
    )
    quarantined = sum(
        metrics.value(f"fault.{stage}.quarantined", default=0.0)
        for stage in ("work", "sink")
    )
    retries = sum(
        metrics.value(f"fault.{stage}.retries", default=0.0)
        for stage in ("work", "sink")
    )
    summary: Dict[str, Any] = {
        "items_fed": items,
        "sink_items": len(sink_items),
        "unique_items": len(set(sink_items)),
        "work_host": result.stage("work").host_name,
        "failovers": metrics.value("fault.work.failovers", default=0.0),
        "checkpoints": sum(
            metrics.value(f"recovery.{stage}.checkpoints", default=0.0)
            for stage in ("work", "sink")
        ),
        "replayed": metrics.value("recovery.work.items_replayed", default=0.0),
        "duplicates": metrics.value("recovery.work.duplicates", default=0.0),
        "replay_dropped": metrics.value("recovery.work.replay_dropped", default=0.0),
        "quarantined": quarantined,
        "retries": retries,
        "dead_letters": (
            len(runtime.dead_letters) if runtime.dead_letters is not None else 0
        ),
        "recovery_latency": (
            max(latency_hist.samples) if latency_hist is not None else None
        ),
        "recoveries": list(coordinator.recoveries) if coordinator is not None else [],
    }
    return result, summary


def run_migrate_demo(
    items: int = 500,
    drift_at: float = 1.0,
    drift_duration: float = 0.5,
    drift_factor: float = 0.2,
    checkpoint_interval: float = 0.5,
    rate: float = 100.0,
) -> Tuple[RunResult, Dict[str, Any]]:
    """Run the live-migration scenario; returns ``(result, summary)``.

    The same three-host chaos topology, but nothing crashes: instead
    the edge host *slows down* (competing load), ramping its speed down
    to ``drift_factor`` × nominal between ``drift_at`` and ``drift_at +
    drift_duration``.  A :class:`~repro.resilience.migration.MigrationController`
    watches the :class:`~repro.grid.monitor.MonitoringService` occupancy
    signal and re-places the ``work`` stage — a planned, loss-free move
    with a bounded pause, not a failover (see docs/migration.md).
    """
    from repro.core.run import RunOptions, build
    from repro.grid.faults import DriftPlan, FaultInjector
    from repro.grid.monitor import MonitoringService
    from repro.resilience.migration import MigrationController, Migrator
    from repro.simnet.hosts import CpuCostModel

    def _work() -> _ChaosWork:
        work = _ChaosWork(None)
        # Light enough that the edge host idles below the occupancy
        # band at nominal speed and saturates once slowed down.
        work.cost_model = CpuCostModel(per_item=0.005)
        return work

    # Single-core hosts so one saturated stage reads as ~1.0 occupancy
    # (utilization is busy core-seconds over capacity).
    fabric = _fabric("migrate", cores=1, work=_work)
    env, net = fabric.env, fabric.network
    options = RunOptions(
        adaptation_enabled=False,
        resilience=ResilienceConfig(checkpoint_interval=checkpoint_interval),
    )
    built = build(_config("migrate"), "sim", options, [_feed(items, rate)], fabric=fabric)
    runtime = built.runtime

    FaultInjector(env, net).schedule_drift(DriftPlan(
        kind="host-slowdown", target="edge", start_at=drift_at,
        duration=drift_duration, factor=drift_factor,
    ))
    monitor = MonitoringService(env, net, interval=0.25,
                                registry=runtime.metrics)
    monitor.start()
    controller = MigrationController(
        runtime, Migrator(fabric.deployer, runtime.deployment), monitor=monitor
    )
    controller.start()

    result = built.run()

    metrics = result.metrics
    sink_items = result.final_value("sink")
    pause_hist = (
        metrics.get("migration.work.pause_seconds")
        if "migration.work.pause_seconds" in metrics
        else None
    )
    summary: Dict[str, Any] = {
        "items_fed": items,
        "sink_items": len(sink_items),
        "unique_items": len(set(sink_items)),
        "work_host": result.stage("work").host_name,
        "moves": [
            (r.stage, r.from_host, r.to_host) for r in runtime.migrations
        ],
        "triggers": metrics.value("migration.work.triggers", default=0.0),
        "replayed": metrics.value("migration.work.items_replayed", default=0.0),
        "duplicates": metrics.value("migration.work.duplicates", default=0.0),
        "max_pause": max(pause_hist.samples) if pause_hist is not None else None,
        "decisions": [
            (d.time, d.stage, d.reason, d.target)
            for d in controller.decisions
        ],
    }
    return result, summary
