"""Data-plane fault tolerance: checkpoints, replay, failover, quarantine.

GATES is pitched as middleware that runs "24 hours a day, 7 days a week"
(Section 1).  The grid substrate already injects crash-stop faults
(:mod:`repro.grid.faults`) and detects them (:mod:`repro.grid.heartbeat`);
this package supplies the *data-plane* half of the story:

* :mod:`repro.resilience.policy` — :class:`ResilienceConfig` (checkpoint
  cadence, ``error_policy``, retry count), the retry backoff
  :func:`~repro.resilience.policy.retry_delay`, and the per-run
  :class:`DeadLetterQueue` of quarantined poison items;
* :mod:`repro.resilience.checkpoint` — :class:`StageCheckpoint` capturing
  a stage's processor state, adjustment-parameter values, and adaptation
  state, plus in-memory and JSONL stores;
* :mod:`repro.resilience.replay` — bounded per-channel buffers of
  delivered-but-unacknowledged input giving at-least-once redelivery;
* :mod:`repro.resilience.failover` — :class:`FailoverCoordinator` wiring
  a :class:`~repro.grid.heartbeat.HeartbeatDetector` suspicion through
  the :class:`~repro.grid.faults.Redeployer` into a *running*
  :class:`~repro.core.runtime_sim.SimulatedRuntime`;
* :mod:`repro.resilience.migration` — planned, non-destructive live
  moves of *healthy* stages (:class:`Migrator`,
  :class:`MigrationController` drift-watch control loop), documented in
  ``docs/migration.md``;
* :mod:`repro.resilience.demo` — the chaos demo behind ``repro chaos``.

Delivery semantics and the failure model are documented in
``docs/fault_tolerance.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checkpoint": (
        "CheckpointStore", "JsonlCheckpointStore", "MemoryCheckpointStore",
        "StageCheckpoint",
    ),
    ".failover": ("FailoverCoordinator",),
    ".migration": (
        "MigrationController", "MigrationError", "MigrationPlan", "MigrationReport", "Migrator",
    ),
    ".policy": ("DeadLetter", "DeadLetterQueue", "ResilienceConfig"),
    ".replay": ("ReplayBuffers",),
})
