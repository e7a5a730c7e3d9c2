"""Fault injection and redeployment.

GATES itself (2004) did not handle failures; a grid middleware that runs
"24 hours a day, 7 days a week" (Section 1) needs to, so this module
provides the natural extension, kept at the *deployment* layer:

* :class:`FaultInjector` — schedules crash-stop host failures (and
  recoveries) on the simulated fabric;
* :class:`Redeployer` — given a deployment and a failed host, re-places
  the affected stages on healthy hosts via the ordinary matchmaker,
  re-fetches their code from the repository, and swaps the service
  instances.  The redeployer itself moves no state (crash-stop
  semantics: the replacement instance starts fresh); restoring stage
  state from checkpoints and replaying in-flight input is the runtime's
  job — see :mod:`repro.resilience` and
  :meth:`repro.core.runtime_sim.SimulatedRuntime.failover_stage`.

The matchmaker refuses hosts whose ``failed`` flag is set, so ordinary
deployments also avoid known-dead nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.grid.deployer import Deployer, Deployment, DeploymentError
from repro.simnet.engine import Environment
from repro.simnet.topology import Network

__all__ = ["DriftPlan", "FaultInjector", "FaultPlan", "Redeployer"]


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled fault: fail ``host`` at ``fail_at``; recover later."""

    host: str
    fail_at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fail_at < 0:
            raise ValueError(f"fail_at must be >= 0, got {self.fail_at}")
        if self.recover_at is not None and self.recover_at <= self.fail_at:
            raise ValueError(
                f"recover_at {self.recover_at} must be after fail_at {self.fail_at}"
            )


@dataclass(frozen=True)
class DriftPlan:
    """A gradual divergence from deployment-time assumptions.

    Unlike :class:`FaultPlan`'s crash-stop failures, drift degrades a
    resource *slowly* — a congested WAN link losing bandwidth, a node
    picking up competing load — which is exactly the signal the
    migration control loop (:mod:`repro.resilience.migration`) watches
    for.  ``kind`` selects the knob:

    * ``"link-decay"`` — ``target`` is a link name (``"src->dst"``);
      its bandwidth ramps down to ``factor`` × the starting value.
    * ``"host-slowdown"`` — ``target`` is a host name; its
      ``speed_factor`` ramps down to ``factor`` × the starting value.

    The ramp runs over ``duration`` seconds in ``steps`` equal stages
    starting at ``start_at``.
    """

    kind: str
    target: str
    start_at: float
    duration: float
    factor: float
    steps: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("link-decay", "host-slowdown"):
            raise ValueError(
                f"kind must be 'link-decay' or 'host-slowdown', got {self.kind!r}"
            )
        if self.start_at < 0:
            raise ValueError(f"start_at must be >= 0, got {self.start_at}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0 < self.factor < 1:
            raise ValueError(
                f"factor must be in (0, 1) — drift degrades — got {self.factor}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


class FaultInjector:
    """Schedules crash-stop failures on the fabric.

    Failures are recorded in :attr:`events` as (time, host, "fail" |
    "recover") so tests and harnesses can assert on them.
    """

    def __init__(self, env: Environment, network: Network) -> None:
        self.env = env
        self.network = network
        self.events: List[tuple] = []

    def schedule(self, plan: FaultPlan) -> None:
        """Arm one fault plan (validates the host exists now)."""
        self.network.host(plan.host)
        self.env.process(self._inject(plan), name=f"fault:{plan.host}")

    def fail_now(self, host_name: str) -> None:
        """Fail a host immediately."""
        self.network.host(host_name).fail()
        self.events.append((self.env.now, host_name, "fail"))

    def recover_now(self, host_name: str) -> None:
        """Recover a host immediately."""
        self.network.host(host_name).recover()
        self.events.append((self.env.now, host_name, "recover"))

    def _inject(self, plan: FaultPlan) -> Generator:
        delay = plan.fail_at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.fail_now(plan.host)
        if plan.recover_at is not None:
            yield self.env.timeout(plan.recover_at - plan.fail_at)
            self.recover_now(plan.host)

    def schedule_drift(self, plan: DriftPlan) -> None:
        """Arm one drift plan (validates the target exists now)."""
        if plan.kind == "host-slowdown":
            self.network.host(plan.target)
        else:
            self._link(plan.target)
        self.env.process(self._drift(plan), name=f"drift:{plan.target}")

    def _link(self, name: str):
        for _src, _dst, link in self.network.edges():
            if link.name == name:
                return link
        raise ValueError(f"unknown link {name!r}")

    def _drift(self, plan: DriftPlan) -> Generator:
        delay = plan.start_at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        if plan.kind == "host-slowdown":
            host = self.network.host(plan.target)
            baseline = host.speed_factor
        else:
            link = self._link(plan.target)
            baseline = link.bandwidth
        step = plan.duration / plan.steps
        for i in range(1, plan.steps + 1):
            yield self.env.timeout(step)
            value = baseline * (1.0 + (plan.factor - 1.0) * i / plan.steps)
            if plan.kind == "host-slowdown":
                host.speed_factor = value
            else:
                link.set_bandwidth(value)
            self.events.append((self.env.now, plan.target, f"drift:{value:.4g}"))


@dataclass
class RedeploymentReport:
    """What a redeployment did."""

    failed_host: str
    moved_stages: List[str] = field(default_factory=list)
    new_hosts: dict = field(default_factory=dict)
    #: Stages on the failed host deliberately left alone (e.g. under a
    #: planned migration that owns their re-placement).
    skipped_stages: List[str] = field(default_factory=list)


class Redeployer:
    """Moves the stages of a failed host onto healthy ones."""

    def __init__(self, deployer: Deployer) -> None:
        self.deployer = deployer

    def redeploy(
        self,
        deployment: Deployment,
        failed_host: str,
        exclude_stages: Optional[set] = None,
    ) -> RedeploymentReport:
        """Re-place every stage of ``deployment`` on ``failed_host``.

        Each stage goes through the grid layer's one re-placement:
        :meth:`~repro.grid.matchmaker.Matchmaker.match_relaxed` picks the
        host (a pin or ``near:`` hint that resolves to the failed host is
        unsatisfiable, so it is relaxed; other hints hold), and
        :meth:`~repro.grid.deployer.Deployer.replace_instance` creates,
        customizes and activates the replacement before destroying (and
        deregistering) the dead instance.

        Stages named in ``exclude_stages`` are skipped (and recorded in
        the report's ``skipped_stages``): a stage mid-way through a
        planned migration already has a re-placement in flight, and a
        concurrent redeploy would race it.
        """
        report = RedeploymentReport(failed_host=failed_host)
        affected = []
        for name, p in deployment.placements.items():
            if p.host_name != failed_host:
                continue
            if exclude_stages and name in exclude_stages:
                report.skipped_stages.append(name)
                continue
            affected.append(name)
        if not affected:
            return report
        claimed = {
            p.host_name for p in deployment.placements.values()
            if p.host_name != failed_host
        }
        for stage_name in affected:
            requirement = deployment.config.stage(stage_name).requirement
            try:
                new_host = self.deployer.matchmaker.match_relaxed(requirement, set(claimed))
                self.deployer.replace_instance(deployment, stage_name, new_host)
            except Exception as exc:
                raise DeploymentError(
                    f"cannot re-place stage {stage_name!r} after "
                    f"{failed_host!r} failed: {exc}"
                ) from exc
            claimed.add(new_host)
            report.moved_stages.append(stage_name)
            report.new_hosts[stage_name] = new_host
        return report
