"""Heartbeat-driven live failover for a running simulated pipeline.

:class:`FailoverCoordinator` is the glue between three layers that each
know only their own job:

* the :class:`~repro.grid.heartbeat.HeartbeatDetector` notices a silent
  host and fires its suspicion callbacks;
* the :class:`~repro.grid.faults.Redeployer` re-places the dead host's
  stages on healthy hosts (fresh service instances, no state);
* :meth:`~repro.core.runtime_sim.SimulatedRuntime.failover_stage`
  restores each moved stage from its last checkpoint and replays its
  unacknowledged input — while the rest of the pipeline keeps running.

The outage clock for the recovery-latency histogram starts at the failed
host's *last heartbeat*: the undetected silent period is part of the
outage the failover pays for, not free time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.grid.deployer import Deployment
from repro.grid.faults import Redeployer
from repro.grid.heartbeat import HeartbeatDetector
from repro.core.runtime_sim import SimulatedRuntime

__all__ = ["FailoverCoordinator"]


class FailoverCoordinator:
    """Wires detector suspicions to redeployment plus state restoration.

    Typical use, on a runtime :func:`repro.core.run.build` made::

        options = RunOptions(resilience=ResilienceConfig())
        built = build(config, "sim", options, sources, fabric=fabric)
        detector = HeartbeatDetector(fabric.env, fabric.network, interval=0.5, timeout=1.5)
        coordinator = FailoverCoordinator(built.runtime, detector, Redeployer(fabric.deployer))
        coordinator.arm()
        detector.start()
        result = built.run()

    Every handled suspicion is recorded in :attr:`recoveries` as
    ``(time, host, moved_stage_names)``.
    """

    def __init__(
        self,
        runtime: SimulatedRuntime,
        detector: HeartbeatDetector,
        redeployer: Redeployer,
        deployment: Optional[Deployment] = None,
    ) -> None:
        if runtime.resilience is None:
            raise ValueError(
                "FailoverCoordinator requires a runtime constructed with "
                "resilience= (checkpointing and replay are what make a live "
                "failover possible)"
            )
        self.runtime = runtime
        self.detector = detector
        self.redeployer = redeployer
        self.deployment = deployment if deployment is not None else runtime.deployment
        self.recoveries: List[tuple] = []
        self._armed = False

    def arm(self) -> None:
        """Register the suspicion handler (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self.detector.on_suspect(self._on_suspect)

    def _on_suspect(self, host_name: str, time: float) -> None:
        # A stage in the middle of a planned migration must not also be
        # failed over: its migration drainer owns the re-placement (and
        # handles a mid-move source-host crash itself).  Redeploying it
        # here would race the drainer — two fresh instances, two
        # restores, duplicated replay.
        migrating = self.runtime.migrating_stages()
        report = self.redeployer.redeploy(
            self.deployment, host_name, exclude_stages=migrating
        )
        down_since = self.detector.last_beat(host_name)
        for stage_name in report.moved_stages:
            self.runtime.failover_stage(stage_name, down_since=down_since)
        self.recoveries.append((time, host_name, tuple(report.moved_stages)))
