"""Planned live migration: move a *healthy* stage with a bounded pause.

PR 2 gave the repo crash-driven failover: kill a host, restore its
stages from checkpoints, replay unacknowledged input.  This module adds
the non-destructive counterpart — the control-plane move GATES's
long-running-pipeline pitch actually needs when deployment-time
assumptions drift but nothing has failed:

* :class:`Migrator` — the grid-layer half of a planned move, the same
  re-placement the Redeployer runs.  Given a live
  :class:`~repro.grid.deployer.Deployment`, it asks the ordinary
  :class:`~repro.grid.matchmaker.Matchmaker` for a better node
  (excluding the current one), and the
  :class:`~repro.grid.deployer.Deployer` secures the replacement service
  instance *before* destroying the old one and swaps the placement
  record.  It moves no state: draining, snapshot
  hand-off and channel switch-over are the runtime's job
  (:meth:`~repro.core.runtime_sim.SimulatedRuntime.migrate_stage`,
  :meth:`~repro.core.runtime_threads.ThreadedRuntime.migrate_stage`,
  and the networked runtime's MIGRATE/HANDOFF exchange).

* :class:`MigrationController` — the closed loop.  It watches observed
  per-link bandwidth and per-host occupancy (the Section 4 load signal
  as sampled by :class:`~repro.grid.monitor.MonitoringService`, plus
  raw ``simnet`` link capacity drift) against the values captured when
  the controller started, and triggers a re-placement when they diverge
  past the hysteresis bands of :class:`MigrationPolicy` — sustained
  breaches only, with a per-stage cooldown, exactly the
  breach/idle/cooldown shape the PR 6 autoscaler uses.

Every move is reported as a :class:`MigrationReport`, booked by
:func:`book_move` on all three runtimes under the ``migration.*`` metric
family (see docs/migration.md).

Unlike failover, a *planned* move is loss-free and duplicate-free by
construction: the stage is drained to an item boundary, checkpointed,
and its queued backlog survives in place — nothing is replayed unless
the source host dies mid-move, in which case the move degrades to the
PR 2 failover path and is reported with ``planned=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.grid.deployer import Deployer, Deployment, DeploymentError
from repro.grid.monitor import MonitoringService
from repro.obs.registry import MetricsRegistry

__all__ = [
    "MigrationError",
    "MigrationPlan",
    "MigrationPolicy",
    "MigrationReport",
    "MigrationController",
    "Migrator",
    "book_move",
]


class MigrationError(Exception):
    """Raised when a planned stage move cannot be carried out."""


@dataclass(frozen=True)
class MigrationPlan:
    """One scheduled migration request (networked runtime).

    ``at`` is seconds after START; ``target`` pins the destination
    worker, or None to let the coordinator's matchmaker choose.
    """

    stage: str
    at: float
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")


@dataclass
class MigrationReport:
    """What one migration did, as measured by the runtime that ran it."""

    stage: str
    from_host: str
    to_host: str
    #: "manual" for API-triggered moves, "drift" for controller-triggered.
    trigger: str = "manual"
    requested_at: float = 0.0
    completed_at: float = 0.0
    #: The stop-the-stage window: drain + snapshot + re-place + restore.
    pause_seconds: float = 0.0
    #: Replayed input (only the failover fallback path replays).
    items_replayed: int = 0
    duplicates: int = 0
    #: False when the source host died mid-move and the planned switch
    #: degraded to a checkpoint-restore failover.
    planned: bool = True


def book_move(
    report: MigrationReport, metrics: MetricsRegistry, migrations: List[MigrationReport]
) -> MigrationReport:
    """Record one completed move, on every runtime the same way.

    Counts ``migration.{stage}.moves``, observes the pause in
    ``migration.{stage}.pause_seconds``, adds the failover fallback's
    nonzero ``items_replayed`` / ``duplicates``, and appends ``report``
    to ``migrations`` (the runtime's list).  Returns ``report``.
    """
    prefix = f"migration.{report.stage}"
    metrics.counter(f"{prefix}.moves").inc()
    metrics.histogram(f"{prefix}.pause_seconds").observe(report.pause_seconds)
    if report.items_replayed:
        metrics.counter(f"{prefix}.items_replayed").inc(report.items_replayed)
    if report.duplicates:
        metrics.counter(f"{prefix}.duplicates").inc(report.duplicates)
    migrations.append(report)
    return report


class Migrator:
    """Grid-layer re-placement of one healthy stage (create before destroy).

    The Redeployer's re-placement — :meth:`Matchmaker.match_relaxed
    <repro.grid.matchmaker.Matchmaker.match_relaxed>` then
    :meth:`Deployer.replace_instance
    <repro.grid.deployer.Deployer.replace_instance>` — for a single,
    *live* stage, with the current host excluded rather than a failed
    one.
    """

    def __init__(self, deployer: Deployer, deployment: Deployment) -> None:
        self.deployer = deployer
        self.deployment = deployment
        #: Every committed placement swap: (stage, old_host, new_host).
        self.moves: List[Tuple[str, str, str]] = []

    def select_target(
        self, stage_name: str, exclude: Iterable[str] = ()
    ) -> str:
        """Matchmake a destination host for ``stage_name``.

        The stage's current host is always excluded; a placement hint
        pinning the stage to its current host is relaxed (the pin is
        what we are deliberately overriding).
        """
        excluded = {self.deployment.host_of(stage_name)} | set(exclude)
        requirement = self.deployment.config.stage(stage_name).requirement
        try:
            return self.deployer.matchmaker.match_relaxed(requirement, excluded, strict=True)
        except Exception as exc:
            raise MigrationError(
                f"no eligible target host for stage {stage_name!r}: {exc}"
            ) from exc

    def place(
        self, stage_name: str, target_host: Optional[str] = None
    ) -> Tuple[str, str]:
        """Swap ``stage_name``'s service instance onto a better host.

        Returns ``(old_host, new_host)``.  The old instance is destroyed
        only after the replacement is fully activated, so a failed move
        leaves the deployment record pointing at the still-running old
        instance.
        """
        old_host = self.deployment.host_of(stage_name)
        if target_host is None:
            new_host = self.select_target(stage_name)
        else:
            host = self.deployer.registry.network.host(target_host)
            if host.failed:
                raise MigrationError(
                    f"cannot migrate {stage_name!r} onto failed host "
                    f"{target_host!r}"
                )
            new_host = target_host
        if new_host == old_host:
            raise MigrationError(
                f"stage {stage_name!r} is already on {old_host!r}"
            )
        try:
            self.deployer.replace_instance(self.deployment, stage_name, new_host)
        except DeploymentError as exc:
            raise MigrationError(f"cannot migrate stage {stage_name!r}: {exc}") from exc
        self.moves.append((stage_name, old_host, new_host))
        return old_host, new_host


@dataclass(frozen=True)
class MigrationPolicy:
    """Hysteresis bands for the drift-watching control loop.

    A stage is re-placed only after its host's occupancy stays above
    ``host_high`` — or a link touching its host decays below
    ``bandwidth_ratio`` of its start-time capacity — for
    ``breach_samples`` consecutive samples, and never again within
    ``cooldown`` simulated seconds of its previous move.  ``host_low``
    keeps the loop from ping-ponging: a host-occupancy move needs a
    destination below that band to be worth the pause.

    Each field's ``doc`` metadata is its line in ``docs/migration.md``'s
    knob table, whose names and defaults :mod:`repro.analysis.docscheck`
    diffs against these fields.
    """

    interval: float = field(
        default=0.5, metadata={"doc": "seconds between controller drift evaluations"})
    host_high: float = field(
        default=0.85, metadata={"doc": "sustained host occupancy that counts as a breach"})
    host_low: float = field(
        default=0.5,
        metadata={"doc": "destination occupancy ceiling an occupancy move requires"})
    bandwidth_ratio: float = field(
        default=0.5,
        metadata={"doc": "fraction of baseline link capacity that counts as drift"})
    breach_samples: int = field(
        default=3, metadata={"doc": "consecutive breach samples before a trigger"})
    cooldown: float = field(
        default=5.0, metadata={"doc": "seconds a stage is immune after each of its moves"})

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if not 0.0 < self.bandwidth_ratio < 1.0:
            raise ValueError(
                f"bandwidth_ratio must be in (0, 1), got {self.bandwidth_ratio}"
            )
        if not 0.0 < self.host_low <= self.host_high:
            raise ValueError(
                f"need 0 < host_low <= host_high, got "
                f"{self.host_low}/{self.host_high}"
            )
        if self.breach_samples < 1:
            raise ValueError(
                f"breach_samples must be >= 1, got {self.breach_samples}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


@dataclass
class _Decision:
    """One trigger the controller fired."""

    time: float
    stage: str
    reason: str
    target: Optional[str]


class MigrationController:
    """Watches fabric drift and triggers planned moves (simulated runtime).

    Runs as a simulation process next to the pipeline::

        controller = MigrationController(runtime, migrator, monitor=monitor)
        controller.start()
        result = runtime.run()

    Baseline link capacities are captured at :meth:`start`; host
    occupancy comes from the :class:`MonitoringService` samples (the
    same utilization signal the Matchmaker's ranking consumes).  Every
    firing increments ``migration.{stage}.triggers`` and is recorded in
    :attr:`decisions`; the actual move (and its queueing when one is
    already in flight) is :meth:`SimulatedRuntime.migrate_stage`'s job.
    """

    def __init__(
        self,
        runtime,
        migrator: Migrator,
        monitor: Optional[MonitoringService] = None,
        policy: Optional[MigrationPolicy] = None,
    ) -> None:
        self.runtime = runtime
        self.migrator = migrator
        self.monitor = monitor
        self.policy = policy if policy is not None else MigrationPolicy()
        self.decisions: List[_Decision] = []
        self._baseline: Dict[str, float] = {}
        self._breaches: Dict[Tuple[str, str], int] = {}
        self._last_move: Dict[str, float] = {}
        self._started = False

    def start(self) -> None:
        """Capture the capacity baseline and arm the watch process."""
        if self._started:
            return
        self._started = True
        env = self.runtime.env
        network = self.runtime.network
        for _src, _dst, link in network.edges():
            self._baseline[link.name] = link.bandwidth
        env.process(self._watch(), name="migration-controller")

    # -- the control loop --------------------------------------------------

    def _watch(self):
        env = self.runtime.env
        while True:
            yield env.timeout(self.policy.interval)
            if all(s.done for s in self.runtime._stages.values()):
                return
            self._evaluate()

    def _evaluate(self) -> None:
        now = self.runtime.env.now
        network = self.runtime.network
        drifted_hosts = set()
        for _src, _dst, link in network.edges():
            assumed = self._baseline.get(link.name)
            if not assumed:
                continue
            if link.bandwidth < self.policy.bandwidth_ratio * assumed:
                head, _, tail = link.name.partition("->")
                drifted_hosts.update((head, tail))
        snapshot = None
        if self.monitor is not None:
            try:
                snapshot = self.monitor.snapshot
            except RuntimeError:
                snapshot = None  # no sample yet
        for name, stage in list(self.runtime._stages.items()):
            if stage.done or stage.migrating:
                continue
            host_name = stage.host_name
            if self.runtime.network.host(host_name).failed:
                continue  # failover territory, not a planned move
            reason = None
            if host_name in drifted_hosts:
                reason = "link-drift"
            elif snapshot is not None:
                sample = snapshot.hosts.get(host_name)
                if sample is not None and sample.utilization > self.policy.host_high:
                    idlest = snapshot.idlest_host()
                    if (
                        idlest is not None
                        and idlest != host_name
                        and snapshot.hosts[idlest].utilization < self.policy.host_low
                    ):
                        reason = "host-occupancy"
            key = (name, reason or "")
            if reason is None:
                self._breaches.pop((name, "link-drift"), None)
                self._breaches.pop((name, "host-occupancy"), None)
                continue
            count = self._breaches.get(key, 0) + 1
            self._breaches[key] = count
            if count < self.policy.breach_samples:
                continue
            if now - self._last_move.get(name, -self.policy.cooldown) < self.policy.cooldown:
                continue
            self._breaches[key] = 0
            self._last_move[name] = now
            try:
                target = self.migrator.select_target(name)
            except MigrationError:
                continue  # nowhere better to go; keep watching
            self.runtime.metrics.counter(f"migration.{name}.triggers").inc()
            self.decisions.append(_Decision(now, name, reason, target))
            self.runtime.migrate_stage(
                name, migrator=self.migrator, target_host=target, trigger="drift"
            )
